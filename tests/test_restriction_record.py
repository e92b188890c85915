"""The restriction record: a game that ``restrict`` builds names the games
it restricts (``Game._restricts``), and ``is_reduction`` answers from it.

The differential test compares each class's reduction relation with the
relation of the same class read back from disk, whose games carry no
record, so ``is_reduction`` compares their rank tables, and checks every
recorded id with the naive reduction test.
"""

import random

import pytest

from nashaxioms import (
    GameClass,
    d_closure,
    is_reduction,
    reduce_players,
    reduction_closure,
    restrict,
    strict_closure,
)

from conftest import add_player_reductions, shaped_game
from naive_checks import naive_is_reduction


def _with_player_reductions(cls):
    """``cls`` plus every player reduction of each member; these carry no
    record."""
    return add_player_reductions(cls, list(cls))


CLASSES = {
    "d-2x3": lambda rng: d_closure([shaped_game(rng, (2, 3))]),
    "d-two-3x3-seeds": lambda rng: d_closure(
        [shaped_game(rng, (3, 3)) for _ in range(2)]
    ),
    "d-2x2x2": lambda rng: d_closure([shaped_game(rng, (2, 2, 2))]),
    "strict-three-1x5-seeds": lambda rng: strict_closure(
        [shaped_game(rng, (5,), levels=5) for _ in range(3)]
    ),
    "strict-two-4x4-seeds": lambda rng: strict_closure(
        [shaped_game(rng, (4, 4), levels=8) for _ in range(2)]
    ),
    "reduction-4x4": lambda rng: reduction_closure(
        shaped_game(rng, (4, 4), levels=5)
    ),
    "reduction-3x3x2-player-reduced": lambda rng: _with_player_reductions(
        reduction_closure(shaped_game(rng, (3, 3, 2)))
    ),
}


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("name", sorted(CLASSES))
def test_relation_from_records_equals_relation_read_from_disk(name, seed, tmp_path):
    cls = CLASSES[name](random.Random(seed))
    if name == "reduction-4x4":
        assert len(cls) == 225
    loaded = GameClass.read_dir(cls.write_dir(tmp_path / "cls"))
    assert loaded.ids() == cls.ids()
    assert not any("_restricts" in vars(g) for g in loaded)
    recorded = 0
    for g in cls:
        # seeds come from build_game and player reductions from
        # reduce_players, which set no record
        kind = cls.provenance[g.canonical_id].kind
        assert ("_restricts" in vars(g)) != (kind in ("seed", "player-reduction-of"))
        for cid in g._restricts:
            parent = cls.get(cid)
            assert parent is not None and naive_is_reduction(g, parent)
            recorded += 1
    assert recorded > 0
    for cid in cls.ids():
        assert cls.reduction_bits(cls.get(cid)) == loaded.reduction_bits(
            loaded.get(cid)
        ), cid


@pytest.fixture(scope="module")
def seed():
    return shaped_game(random.Random(5), (3, 3, 2), levels=4)


def test_player_reduction_is_not_a_reduction(seed):
    child = restrict(seed, [["p0s0", "p0s2"], ["p1s1", "p1s2"], ["p2s0", "p2s1"]])
    for parent in (seed, child):
        reduced = reduce_players(parent, (0, 1), next(parent.profiles()))
        assert reduced._restricts == frozenset()
        assert not is_reduction(reduced, parent)
        assert not is_reduction(reduced, seed)


def test_grandchild_is_a_reduction_of_the_seed(seed):
    child = restrict(seed, [["p0s0", "p0s2"], ["p1s1", "p1s2"], ["p2s0", "p2s1"]])
    grandchild = restrict(child, [["p0s2"], ["p1s1", "p1s2"], ["p2s1"]])
    assert grandchild._restricts == {seed.canonical_id, child.canonical_id}
    assert is_reduction(grandchild, seed) and naive_is_reduction(grandchild, seed)
    assert is_reduction(grandchild, child) and naive_is_reduction(grandchild, child)


def test_child_is_not_a_reduction_of_a_sibling(seed):
    left = restrict(seed, [["p0s0"], ["p1s0", "p1s1"], ["p2s0", "p2s1"]])
    right = restrict(seed, [["p0s1"], ["p1s0", "p1s1"], ["p2s0", "p2s1"]])
    assert left._restricts == right._restricts == {seed.canonical_id}
    assert not is_reduction(left, right) and not is_reduction(right, left)
    assert not naive_is_reduction(left, right)
