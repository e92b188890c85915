"""The reduction relation on classes whose members share labels.

Many members of these classes carry the same strategy tuple, so a label
mask alone does not tell a parent's reduction from the other members of
its labels.  The differential below reads ``reduction_bits`` for every
(member, parent) pair, on classes built in memory, whose games carry the
record ``restrict`` leaves, and on the same classes read back from disk,
whose games carry none, against ``naive_is_reduction``.
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
