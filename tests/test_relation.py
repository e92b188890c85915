"""The reduction relation, against ``naive_is_reduction``.

Many members of the first classes carry the same strategy tuple, so a
label mask alone does not tell a parent's reduction from the other
members of its labels; the second are the classes the benchmark's
per-class work runs on.  The differentials read ``reduction_bits`` for
every (member, parent) pair, on classes built in memory, whose games
carry the record ``restrict`` leaves, and on the same classes read back
from disk, whose games carry none.
"""

import random

import pytest

from nashaxioms import GameClass, d_closure, reduction_closure

from conftest import add_player_reductions, shaped_game
from naive_checks import naive_is_reduction


def _union(shape, seeds):
    """The d-closure of ``seeds`` random games of this shape, which all
    carry the same labels: the union of their d-closures."""
    rng = random.Random(0)
    return d_closure([shaped_game(rng, shape) for _ in range(seeds)])


def _player_reduced():
    """A random 3x3x2 game's reduction closure plus every player reduction
    of each member: many two- and one-player members share labels."""
    cls = reduction_closure(shaped_game(random.Random(3), (3, 3, 2)))
    return add_player_reductions(cls, list(cls))


#: Per class, how it is built and its size.
CLASSES = {
    "union-2x2": (lambda: _union((2, 2), 200), 228),
    "union-2x3": (lambda: _union((2, 3), 40), 311),
    "union-2x2x2": (lambda: _union((2, 2, 2), 20), 317),
    "player-reduced-3x3x2": (_player_reduced, 370),
}


@pytest.mark.parametrize("name", sorted(CLASSES))
def test_reduction_bits_agree_with_naive_on_shared_labels(name, tmp_path):
    build, size = CLASSES[name]
    cls = build()
    assert len(cls) == size
    # some strategy tuple is carried by several members
    assert len({g.strategies for g in cls}) < size
    loaded = GameClass.read_dir(cls.write_dir(tmp_path / "cls"))
    assert loaded.ids() == cls.ids()
    assert not any("_restricts" in vars(g) for g in loaded)
    members = list(cls)
    for parent in members:
        want = sum(
            1 << j for j, g in enumerate(members) if naive_is_reduction(g, parent)
        )
        assert cls.reduction_bits(parent) == want, parent
        assert loaded.reduction_bits(loaded.get(parent.canonical_id)) == want, parent


#: Per class, how it is built and its size: a 2x2 d-closure, as ``sweep2x2``
#: checks one per game, and the two shapes of the ``scan`` workload.
BENCHMARK_CLASSES = {
    "d-closure-2x2": (lambda: d_closure([shaped_game(random.Random(1), (2, 2))]), 9),
    "reductions-4x4": (
        lambda: reduction_closure(shaped_game(random.Random(2), (4, 4), 5)),
        225,
    ),
    "player-reduced-3x3x2": (_player_reduced, 370),
}


@pytest.mark.parametrize("name", sorted(BENCHMARK_CLASSES))
def test_relation_table_agrees_with_naive(name, tmp_path):
    # every member's entry of the class's one relation table, and a parent
    # outside the class, whose candidates are checked one at a time
    build, size = BENCHMARK_CLASSES[name]
    cls = build()
    assert len(cls) == size
    loaded = GameClass.read_dir(cls.write_dir(tmp_path / "cls"))
    assert loaded.ids() == cls.ids()
    members = list(cls)

    def naive(parent):
        return sum(
            1 << j for j, g in enumerate(members) if naive_is_reduction(g, parent)
        )

    wants = list(map(naive, members))
    for parent, want in zip(members, wants):
        assert cls.reduction_bits(parent) == want, parent
        assert loaded.reduction_bits(loaded.get(parent.canonical_id)) == want, parent
    outsider = shaped_game(random.Random(5), members[0].shape, 5)
    assert outsider not in cls
    assert cls.reduction_bits(outsider) == naive(outsider) != 0
    # a parent outside the class leaves the members' table as it was
    assert [cls.reduction_bits(g) for g in members] == wants
