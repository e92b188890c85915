import hashlib
import itertools
import json
import math
import random
from collections import Counter

import pytest
from hypothesis import given, strategies as st

from nashaxioms import (
    BudgetExceededError,
    Game,
    GameFormatError,
    Profile,
    build_game,
    enumerate_reductions,
    is_cut,
    is_reduction,
    is_strict_reduction,
    merge,
    reduce_players,
    reduction_closure,
    restrict,
)
from nashaxioms.concepts import clear_cache, jointly_optimal, nash
from nashaxioms.fixtures import FIXTURES, fixture_game, fixture_path
import nashaxioms.games as games
from nashaxioms.games import _columns, _profiles, _undominated
from nashaxioms.oracles import nash_bruteforce

from conftest import random_game, random_square_game, random_subsets, shaped_game
from naive_checks import (
    _naive_dominates,
    _naive_jointly_optimal,
    _naive_reduce_players,
    naive_is_reduction,
    naive_candidate_counts,
    naive_columns,
    naive_dense,
    naive_is_strict_reduction,
    naive_reductions,
    textbook_nash,
)


# ----------------------------------------------------------------------
# construction and canonical form
# ----------------------------------------------------------------------


def test_build_from_payoffs_matches_expected_ranks(ex2):
    # payoff 2 -> rank 0, payoff 1 -> rank 1, payoff 0 -> rank 2
    assert ex2.ranks[0] == (0, 2, 1, 1)
    assert ex2.ranks[1] == (0, 2, 1, 1)


def test_build_singleton_game():
    g = build_game(1, [["a"]], payoffs=[[0]])
    assert g.num_profiles == 1
    assert g.ranks == ((0,),)


def test_build_duplicate_row_game_ranks(ex5):
    assert ex5.ranks[0] == (0, 2, 2, 1, 0, 2)
    assert ex5.ranks[1] == (1, 2, 2, 0, 1, 2)


@pytest.mark.parametrize(
    "tables",
    [
        [[[2, 0], [1, 1]], [[2, 0], [1, 1]]],
        [[2, 0, 1, 1], [2, 0, 1, (1,)]],
    ],
)
def test_build_rejects_nested_tables(tables):
    with pytest.raises(GameFormatError, match="^tables must be flat lists$"):
        build_game(2, [["U", "D"], ["L", "R"]], payoffs=tables)


def test_scaling_payoffs_does_not_change_canonical_id(ex2):
    scaled = build_game(
        2,
        [["U", "D"], ["L", "R"]],
        payoffs=[[20, 0, 10, 10], [7.5, 0.25, 3, 3]],
    )
    assert scaled.canonical_id == ex2.canonical_id
    assert scaled == ex2


def _dumps_id(game):
    """The canonical id as ``json.dumps`` of the fields as a dict of lists
    writes it, keys sorted: the form every committed id was made with."""
    payload = json.dumps(
        {
            "players": game.player_count,
            "strategies": [list(s) for s in game.strategies],
            "ranks": [list(r) for r in game.ranks],
        },
        separators=(",", ":"),
        sort_keys=True,
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


# labels that JSON escapes, or writes as \u escapes, or leaves alone
AWKWARD_LABELS = [
    '"', "\\", 'a"b', "c\\d", "é", "☃x", "𝄞",
    "\n", "\x00", "\u2028", "'", " ", "x",
]


def test_canonical_id_matches_the_json_dumps_form():
    rng = random.Random(25)
    clear_cache()
    for _ in range(300):
        n = rng.randint(1, 3)
        labels = [rng.sample(AWKWARD_LABELS, rng.randint(1, 3)) for _ in range(n)]
        total = math.prod(map(len, labels))
        ranks = [[rng.randrange(total) for _ in range(total)] for _ in range(n)]
        game = build_game(n, labels, ranks=ranks)
        assert game.canonical_id == _dumps_id(game)
    for name in FIXTURES:
        assert fixture_game(name).canonical_id == _dumps_id(fixture_game(name))


def test_canonical_id_is_hashed_once_per_content(ex2):
    clear_cache()
    copies = [Game(ex2.player_count, ex2.strategies, ex2.ranks) for _ in range(3)]
    assert {g.canonical_id for g in copies} == {ex2.canonical_id}
    assert list(games._ids.values()) == [ex2.canonical_id]
    clear_cache()
    assert games._ids == {}


def test_build_errors():
    with pytest.raises(GameFormatError):
        build_game(2, [["a", "a"], ["x"]], payoffs=[[1, 1], [1, 1]])
    with pytest.raises(GameFormatError):
        build_game(2, [["a"], []], payoffs=[[1], [1]])
    with pytest.raises(GameFormatError):
        build_game(1, [["a", "b"]], payoffs=[[1, 2, 3]])
    with pytest.raises(GameFormatError):
        build_game(1, [["a", "b"]], payoffs=[[1, 2]], ranks=[[0, 1]])
    with pytest.raises(GameFormatError):
        build_game(1, [["a", "b"]], ranks=[[0, -1]])
    nan, inf = float("nan"), float("inf")
    bad = ([nan, 1, nan], [inf, 1, 0], [-inf, 1, 0], [True, 0, 0], ["1", 0, 0])
    for payoffs in bad:
        with pytest.raises(GameFormatError, match="payoffs must be finite numbers"):
            build_game(1, [["a", "b", "c"]], payoffs=[payoffs])
    with pytest.raises(GameFormatError, match="ranks must be non-negative integers"):
        build_game(1, [["a", "b"]], ranks=[[True, 0]])
    with pytest.raises(GameFormatError, match="must hold non-negative integers"):
        Game(1, (("a", "b"),), ((True, False),))
    not_int = "player count must be an integer"
    with pytest.raises(GameFormatError, match=not_int):
        build_game(True, [["a"]], ranks=[[0]])
    with pytest.raises(GameFormatError, match=not_int):
        build_game("2", [["a"], ["x"]], ranks=[[0], [0]])
    with pytest.raises(GameFormatError, match=not_int):
        Game("2", (("a",), ("x",)), ((0,), (0,)))


def test_tables_and_strategies_that_are_not_lists_are_named():
    with pytest.raises(GameFormatError, match="^table is not a sequence$"):
        build_game(1, [["a"]], payoffs=[5])
    not_lists = "^strategies must be one list of labels per player, got 5$"
    with pytest.raises(GameFormatError, match=not_lists):
        build_game(1, 5, ranks=[[0]])
    with pytest.raises(GameFormatError, match=not_lists):
        Game(1, 5, [[0]])


def test_unknown_fixture_lists_the_known_names():
    with pytest.raises(KeyError) as exc:
        fixture_path("nope")
    assert exc.value.args == (
        "unknown fixture 'nope'; known: pd, ex2, ex5, cube222, chain4",
    )


def test_build_accepts_any_finite_real_payoff():
    huge = build_game(1, [["a", "b", "c"]], payoffs=[[10**400, 0.5, -(10**400)]])
    assert huge.ranks == ((0, 1, 2),)


@given(st.integers(min_value=0, max_value=3), st.integers(min_value=0, max_value=1))
def test_profile_roundtrip_2x3x2(i, j):
    shape = (4, 2)
    p = Profile((i, j))
    assert Profile.from_linear(shape, p.linear_index(shape)) == p


@given(st.lists(st.integers(min_value=1, max_value=4), min_size=1, max_size=4))
def test_profile_roundtrip_all_linears(shape):
    shape = tuple(shape)
    total = 1
    for k in shape:
        total *= k
    for lin in range(total):
        assert Profile.from_linear(shape, lin).linear_index(shape) == lin


def test_linear_index_contract():
    # profile (i1, i2, i3) sits at ((i1*|S2| + i2)*|S3| + i3)
    shape = (2, 3, 2)
    assert Profile((1, 2, 1)).linear_index(shape) == (1 * 3 + 2) * 2 + 1


@pytest.mark.parametrize("indices", [("1", 1), (1.9, 0), (True, 0), (0, False)])
def test_profile_rejects_non_int_indices(indices):
    with pytest.raises(GameFormatError, match="profile indices must be integers"):
        Profile(indices)


# ----------------------------------------------------------------------
# restriction
# ----------------------------------------------------------------------


def test_restrict_column_prefers_safe_row(ex2):
    sub = restrict(ex2, [["U", "D"], ["R"]])
    assert sub.strategies == (("U", "D"), ("R",))
    d_r = sub.profile_from_labels(("D", "R"))
    u_r = sub.profile_from_labels(("U", "R"))
    assert sub.prefers(0, d_r, u_r)


def test_restrict_full_is_identity(ex2):
    assert restrict(ex2, ex2.strategies) == ex2


def test_restrict_top_rows_nash(ex5):
    sub = restrict(ex5, [["U", "C"], ["L", "R"]])
    got = {sub.labels_of(p) for p in nash_bruteforce(sub)}
    assert got == {("U", "L"), ("C", "R")}
    assert nash(sub) == nash_bruteforce(sub)


def test_restrict_empty_subset_rejected(ex2):
    with pytest.raises(GameFormatError):
        restrict(ex2, (("U",), ()))


@pytest.mark.parametrize(
    "subsets",
    [
        [[0.9], [0]],
        [["1"], [True]],
        [[0, 1], [False]],
        [[1.0], [1]],
        [["1", 0], [0]],
        [[0], [1, None]],
    ],
)
def test_restrict_rejects_non_int_indices(ex2, subsets):
    with pytest.raises(GameFormatError, match="list of the game's labels per player"):
        restrict(ex2, subsets)


@pytest.mark.parametrize(
    "call",
    [
        lambda g: restrict(g, [0, 0]),
        lambda g: restrict(g, 5),
        lambda g: reduce_players(g, 0, Profile((0, 0))),
        lambda g: reduce_players(g, (0,), (0, 0)),
        lambda g: restrict(g, [["U"], [["L"]]]),
        lambda g: is_cut(g, 5, 1),
        lambda g: restrict(g, [["U"], ["L"], ["L"]]),
        # a string is not a subset of its characters
        lambda g: restrict(g, ["UD", ["L"]]),
        lambda g: merge(g, [["Q"], ["L"]], g.strategies),
        # strategies are named by their labels, not their indices
        lambda g: restrict(g, ((0, 1), (0,))),
        lambda g: is_cut(g, ((0, 1), (0,)), 1),
        lambda g: merge(g, g.strategies, ((0,), (0,))),
        lambda g: restrict(g, [["U"]]),
        # nor a list of strategy labels
        lambda g: build_game(1, ["UD"], ranks=[[0, 1]]),
        lambda g: Game(1, ("UD",), ((0, 1),)),
        lambda g: g.profile_at(99),
        lambda g: g.profile_at(-1),
        lambda g: g.profile_at(1.0),
        lambda g: g.profile_at(True),
        lambda g: g.columns(5),
        lambda g: g.columns(0, True),
        lambda g: g.rank(0, Profile((0, 2))),
        lambda g: Profile((0, 3)).linear_index((2, 2)),
        lambda g: Profile((0,)).linear_index((2, 2)),
        lambda g: g.rank(-1, Profile((0, 1))),
        lambda g: g.rank(True, Profile((0, 1))),
        lambda g: g.subgrid([[5], [0]]),
        lambda g: g.subgrid([[0], [-1]]),
        lambda g: g.subgrid([[0]]),
        lambda g: g.subgrid([[1, 0], [0]]),
        lambda g: g.subgrid([[0, 0], [0]]),
        lambda g: g.labels_of(Profile((0, -1))),
        lambda g: g.labels_of(Profile((0, 2))),
        lambda g: g.labels_of(Profile((0,))),
        lambda g: Profile((0, 1)).replace(2, 0),
        lambda g: Profile((0, 1)).replace(-1, 0),
        # not a sequence where one belongs
        lambda g: Game(1, [["a"]], 5),
        lambda g: Game(1, [["a"]], [5]),
        lambda g: Game(1, [["a"]], None),
        lambda g: build_game(1, [["a"]], payoffs=5),
        lambda g: Profile(5),
        lambda g: Profile(None),
    ],
    ids=[
        "restrict-flat-list",
        "restrict-int",
        "reduce-players-int-keep",
        "reduce-players-tuple-fixed",
        "from-labels-list-label",
        "from-labels-int",
        "from-labels-extra-player",
        "from-labels-string-subset",
        "from-labels-unknown-label",
        "restrict-index-subsets",
        "is-cut-index-subsets",
        "merge-index-subsets",
        "restrict-missing-player",
        "build-game-string-strategies",
        "game-string-strategies",
        "profile-at-past-the-end",
        "profile-at-negative",
        "profile-at-float",
        "profile-at-bool",
        "columns-player-out-of-range",
        "columns-bool-player",
        "rank-profile-outside-shape",
        "linear-index-outside-shape",
        "linear-index-wrong-length",
        "rank-negative-player",
        "rank-bool-player",
        "subgrid-axis-past-the-end",
        "subgrid-negative-axis",
        "subgrid-too-few-axes",
        "subgrid-descending-axis",
        "subgrid-repeated-index",
        "labels-of-negative-index",
        "labels-of-past-the-end",
        "labels-of-wrong-length",
        "replace-player-out-of-range",
        "replace-negative-player",
        "game-int-ranks",
        "game-int-table",
        "game-none-ranks",
        "build-game-int-payoffs",
        "profile-int",
        "profile-none",
    ],
)
def test_malformed_arguments_raise_game_format_error(ex2, call):
    with pytest.raises(GameFormatError):
        call(ex2)


def test_columns_agree_with_naive_and_are_tuples():
    rng = random.Random(15)
    for _ in range(200):
        g = random_game(rng, max_players=3, max_strategies=4, levels=2)
        for size in range(1, g.player_count + 1):
            for players in itertools.combinations(range(g.player_count), size):
                got = g.columns(*players)
                assert [list(col) for col in got] == naive_columns(g, players)
                assert type(got) is tuple and all(type(c) is tuple for c in got)
    assert _columns.cache_info().currsize > 0
    clear_cache()
    assert _columns.cache_info().currsize == 0


def test_profiles_are_shared_by_every_game_of_a_shape(ex2, pd):
    clear_cache()
    assert _profiles.cache_info().currsize == 0
    profiles = list(ex2.profiles())
    assert profiles == [Profile(i) for i in itertools.product(range(2), repeat=2)]
    assert all(a is b for a, b in zip(profiles, pd.profiles()))
    assert all(ex2.profile_at(k) is s for k, s in enumerate(profiles))
    assert _profiles.cache_info().currsize == 1
    clear_cache()
    assert _profiles.cache_info().currsize == 0


def test_from_labels_reads_generators(ex2):
    subsets = ((lab for lab in labels) for labels in (["D", "U"], ["R"]))
    assert restrict(ex2, subsets).strategies == (("U", "D"), ("R",))


def test_shuffled_or_repeated_labels_keep_the_parents_order():
    rng = random.Random(808)
    for _ in range(200):
        g = random_game(rng)
        kept = random_subsets(rng, g)
        messy = [rng.sample(s * 2, rng.randint(len(s), 2 * len(s))) for s in kept]
        messy = [m + [lab for lab in s if lab not in m] for m, s in zip(messy, kept)]
        sub = restrict(g, messy)
        assert sub.strategies == kept
        assert sub == restrict(g, kept)
        assert is_cut(g, messy, 1) == is_cut(g, kept, 1)
        assert merge(g, messy, messy) == sub


def test_positions_agree_with_strategy_order():
    rng = random.Random(11)
    for _ in range(200):
        g = random_game(rng)
        assert g.positions == tuple(
            {lab: labels.index(lab) for lab in labels} for labels in g.strategies
        )
        for s in g.profiles():
            assert g.profile_from_labels(g.labels_of(s)) == s


@pytest.mark.parametrize("labels", [("U", "Q"), ("U", ["L"]), ("U",), ("U", "L", "L")])
def test_profile_from_labels_gives_none_when_labels_do_not_fit(ex2, labels):
    assert ex2.profile_from_labels(labels) is None


# ----------------------------------------------------------------------
# reduction recognition
# ----------------------------------------------------------------------


def test_restrict_output_is_reduction(ex2):
    sub = restrict(ex2, [["D"], ["L", "R"]])
    assert is_reduction(sub, ex2)


def test_every_game_reduces_to_itself(ex2):
    assert is_reduction(ex2, ex2)


def test_inverted_ranks_are_not_a_reduction(ex2):
    flipped = build_game(
        2, [["U", "D"], ["L", "R"]], payoffs=[[0, 2, 1, 1], [2, 0, 1, 1]]
    )
    assert not is_reduction(flipped, ex2)


def test_label_renaming_is_not_tolerated(ex2):
    renamed = build_game(
        2, [["u", "d"], ["L", "R"]], payoffs=[[2, 0, 1, 1], [2, 0, 1, 1]]
    )
    assert not is_reduction(renamed, ex2)


def test_reordered_labels_are_not_a_reduction(ex2):
    # ex2 with player 1's rows swapped: the same preferences, but a
    # reduction keeps the parent's strategy order
    swapped = build_game(
        2, [["D", "U"], ["L", "R"]], ranks=[[1, 1, 0, 2], [1, 1, 0, 2]]
    )
    assert not is_reduction(swapped, ex2)
    three = build_game(1, [["a", "b", "c"]], ranks=[[0, 1, 2]])
    assert is_reduction(build_game(1, [["a", "c"]], ranks=[[0, 1]]), three)
    assert not is_reduction(build_game(1, [["c", "a"]], ranks=[[1, 0]]), three)


def test_reduction_agrees_with_naive_on_random_pairs():
    rng = random.Random(20240817)
    for _ in range(300):
        g = random_game(rng)
        sub = restrict(g, random_subsets(rng, g))
        assert is_reduction(sub, g)
        assert naive_is_reduction(sub, g)
        other = random_game(rng)
        assert is_reduction(other, g) == naive_is_reduction(other, g)


def test_reduction_agrees_with_naive_on_near_misses():
    # A restriction with two distinct ranks swapped in one table keeps
    # the labels and shape, so only the rank tables tell it apart.
    rng = random.Random(20261018)
    tried = 0
    for _ in range(400):
        g = random_game(rng)
        sub = restrict(g, random_subsets(rng, g))
        i = rng.randrange(sub.player_count)
        table = list(sub.ranks[i])
        pairs = [
            (a, b)
            for a in range(len(table))
            for b in range(a + 1, len(table))
            if table[a] != table[b]
        ]
        if not pairs:
            continue
        a, b = rng.choice(pairs)
        table[a], table[b] = table[b], table[a]
        ranks = sub.ranks[:i] + (tuple(table),) + sub.ranks[i + 1 :]
        near = Game(sub.player_count, sub.strategies, ranks)
        assert is_reduction(near, g) == naive_is_reduction(near, g)
        assert is_strict_reduction(near, g) == naive_is_strict_reduction(near, g)
        tried += 1
    assert tried > 200


def test_restriction_transitivity():
    rng = random.Random(99)
    for _ in range(200):
        g = random_game(rng)
        mid = restrict(g, random_subsets(rng, g))
        sub = restrict(mid, random_subsets(rng, mid))
        assert is_reduction(sub, g)


def test_rank_order_preservation_on_many_random_pairs():
    rng = random.Random(7)
    for _ in range(1000):
        g = random_game(rng)
        subsets = random_subsets(rng, g)
        sub = restrict(g, subsets)
        mapping = [[pos[lab] for lab in s] for pos, s in zip(g.positions, subsets)]
        for s in sub.profiles():
            for t in sub.profiles():
                ps = Profile(tuple(mapping[i][k] for i, k in enumerate(s.indices)))
                pt = Profile(tuple(mapping[i][k] for i, k in enumerate(t.indices)))
                for i in range(g.player_count):
                    assert (sub.rank(i, s) <= sub.rank(i, t)) == (
                        g.rank(i, ps) <= g.rank(i, pt)
                    )


# ----------------------------------------------------------------------
# dummy and quasi-dummy cuts
# ----------------------------------------------------------------------


def cuts(game, subsets):
    """The ``m`` in (1, 2) for which ``subsets`` is a cut: 1 a dummy, 2 a
    quasi-dummy player."""
    return {m for m in (1, 2) if is_cut(game, subsets, m)}


def test_flavor_singleton_column_of_2x2_is_both(ex2):
    # dummy via the singleton column, quasi via the retained pair
    assert cuts(ex2, (("U", "D"), ("R",))) == {1, 2}


def test_flavor_singleton_column_of_3x2_is_dummy_only(ex5):
    assert cuts(ex5, (("U", "C", "D"), ("L",))) == {1}


def test_flavor_full_two_by_two_is_quasi(ex2):
    assert cuts(ex2, ex2.strategies) == {2}


def test_flavor_single_profile_of_wide_game_is_dummy(ex5):
    assert cuts(ex5, (("U",), ("L",))) == {1}


def test_flavor_both_at_once(ex5, cube):
    # one player cut to a pair, the other to a singleton of a 2-set
    assert cuts(ex5, (("U", "C"), ("L",))) == {2}
    assert cuts(cube, (("a",), ("a", "b"), ("a", "b"))) == {1, 2}


def test_flavor_full_3x2_is_quasi(ex5):
    # the width-2 player makes even the full spec quasi-dummy
    assert cuts(ex5, ex5.strategies) == {2}


def test_flavor_plain_exists():
    wide = build_game(
        2,
        [["a", "b", "c"], ["x", "y", "z"]],
        ranks=[[0] * 9, [0] * 9],
    )
    assert cuts(wide, wide.strategies) == set()
    assert cuts(wide, (("a", "b", "c"), ("x", "z"))) == {2}


# ----------------------------------------------------------------------
# dominance and strict reductions
# ----------------------------------------------------------------------


def naive_undominated(g):
    """``_undominated`` re-derived from ``_naive_dominates``."""
    return tuple(
        tuple(lab for b, lab in enumerate(labels) if not any(
            _naive_dominates(g, i, a, b) for a in range(len(labels))
        ))
        for i, labels in enumerate(g.strategies)
    )


def test_defection_strictly_dominates(pd):
    assert all(_naive_dominates(pd, i, 1, 0) for i in range(2))
    assert _undominated(pd) == naive_undominated(pd) == (("D",), ("D",))


def test_no_dominance_between_rows(ex2):
    assert not _naive_dominates(ex2, 0, 0, 1) and not _naive_dominates(ex2, 0, 1, 0)
    assert _undominated(ex2)[0] == naive_undominated(ex2)[0] == ("U", "D")


def test_one_player_dominance_is_pairwise(chain):
    # a beats b, c and d, and b and c beat d; b and c tie, so neither
    # dominates the other and both are undominated once a is gone
    pairs = {(a, b) for a, b in itertools.product(range(4), repeat=2)
             if _naive_dominates(chain, 0, a, b)}
    assert pairs == {(0, 1), (0, 2), (0, 3), (1, 3), (2, 3)}
    assert _undominated(chain) == naive_undominated(chain) == (("a",),)
    tail = restrict(chain, [["b", "c", "d"]])
    assert _undominated(tail) == naive_undominated(tail) == (("b", "c"),)


def test_strictly_dominates_agrees_with_naive():
    rng = random.Random(401)
    seen = Counter()
    for _ in range(300):
        g = random_game(rng, max_players=3, max_strategies=4)
        undominated = _undominated(g)
        assert undominated == naive_undominated(g)
        for labels, keep in zip(g.strategies, undominated):
            seen[len(keep) < len(labels)] += 1
    assert seen[True] > 50 and seen[False] > 50


#: The shapes of the benchmark's classes and of their members, and larger.
KERNEL_SHAPES = [(k,) for k in range(1, 7)] + [
    (4, 4), (5, 5), (3, 3, 2), (2, 2, 2, 2), (4, 4, 4)
]

#: The three kernels that read one best-response table, each call order
#: starting from a different one.
KERNEL_ORDERS = [
    ("nash", "jointly_optimal", "undominated"),
    ("jointly_optimal", "undominated", "nash"),
    ("undominated", "nash", "jointly_optimal"),
]


def kernel_values(g, order):
    """The three kernels on ``g`` from a cold memo, called in ``order``."""
    calls = {
        "nash": lambda: nash(g),
        "jointly_optimal": lambda: jointly_optimal(g),
        "undominated": lambda: _undominated(g),
    }
    clear_cache()
    return {name: calls[name]() for name in order}


def test_best_response_kernels_agree_with_naive_at_benchmark_sizes():
    rng = random.Random(2901)
    seen = Counter()
    for shape in KERNEL_SHAPES:
        for levels in (2, 3, 5):
            for _ in range(2):
                g = shaped_game(rng, shape, levels)
                expected = {
                    "nash": nash_bruteforce(g),
                    "jointly_optimal": frozenset(_naive_jointly_optimal(g)),
                    "undominated": naive_undominated(g),
                }
                assert expected["nash"] == textbook_nash(g)
                for order in KERNEL_ORDERS:
                    assert kernel_values(g, order) == expected
                seen["equilibria"] += bool(expected["nash"])
                seen["jointly optimal"] += bool(expected["jointly_optimal"])
                seen["dominated"] += expected["undominated"] != g.strategies
    assert min(seen.values()) > 10, seen


def test_rank_slices_agree_with_naive_on_every_column():
    rng = random.Random(2902)
    for shape in KERNEL_SHAPES:
        g = shaped_game(rng, shape, 5)
        n = g.player_count
        slices = [
            (cells, players)
            for size in range(1, n + 1)
            for players in itertools.combinations(range(n), size)
            for cells in _columns(g.shape, players)
        ]
        # one-cell slices, of every player
        slices += [((k,), range(n)) for k in range(g.num_profiles)]
        for cells, players in slices:
            expected = tuple(
                tuple(naive_dense([g.ranks[i][k] for k in cells], higher_first=False))
                for i in players
            )
            assert games._slice_ranks(g, cells, players) == expected


class CountedReads(tuple):
    """A rank table that counts its reads by index; slices are not counted."""

    reads = 0

    def __getitem__(self, key):
        if not isinstance(key, slice):
            self.reads += 1
        return tuple.__getitem__(self, key)


def test_three_kernels_scan_the_rank_tables_once(monkeypatch):
    """The kernels share one best-response entry per content, and a player
    whose every strategy is a best response somewhere is compared with
    nothing.  Player 1 of this game best responds with T to L and with B
    to R; player 2's R is strictly dominated, so it is tested."""
    rows, cols = CountedReads((0, 1, 1, 0)), CountedReads((0, 1, 0, 1))
    g = games._assemble(2, (("T", "B"), ("L", "R")), (rows, cols))
    scans = []
    scan = games._best_response_scan
    monkeypatch.setattr(
        games, "_best_response_scan", lambda game: scans.append(game) or scan(game)
    )
    for order in KERNEL_ORDERS:
        rows.reads = cols.reads = 0
        scans.clear()
        values = kernel_values(g, order)
        assert values["undominated"] == (("T", "B"), ("L",))
        assert scans == [g]
        best = [key for key in games._facts if key[0] == ("best responses",)]
        assert best == [(("best responses",), g.canonical_id)]
        assert rows.reads == 0 and cols.reads > 0
    clear_cache()


def test_strict_reduction_gadget(pd):
    pair = restrict(pd, [["C", "D"], ["C"]])
    single = restrict(pd, [["D"], ["C"]])
    assert is_strict_reduction(single, pair)


def test_no_removal_is_not_strict(ex2):
    assert not is_strict_reduction(ex2, ex2)


def test_weakly_dominated_removal_is_not_strict(ex2):
    top = restrict(ex2, [["U"], ["L", "R"]])
    assert not is_strict_reduction(top, ex2)


def test_strict_reduction_agrees_with_naive():
    rng = random.Random(4242)
    for _ in range(300):
        g = random_game(rng)
        sub = restrict(g, random_subsets(rng, g))
        assert is_strict_reduction(sub, g) == naive_is_strict_reduction(sub, g)


def test_strict_reduction_certificates_reverify():
    # every removed strategy must lose every opponent column to some
    # retained one; re-verified here with a direct loop
    rng = random.Random(11)
    found = 0
    for _ in range(500):
        g = random_game(rng)
        subsets = random_subsets(rng, g)
        sub = restrict(g, subsets)
        if not is_strict_reduction(sub, g):
            continue
        found += 1
        for i in range(g.player_count):
            kept = {g.positions[i][lab] for lab in subsets[i]}
            for k in range(g.shape[i]):
                if k in kept:
                    continue
                assert any(
                    all(
                        g.rank(i, p.replace(i, r)) < g.rank(i, p)
                        for p in g.profiles()
                        if p.indices[i] == k
                    )
                    for r in kept
                )
    assert found > 0


# ----------------------------------------------------------------------
# merge
# ----------------------------------------------------------------------


def test_merge_recovers_parent(ex2):
    a = [["U", "D"], ["R"]]
    b = [["D"], ["L", "R"]]
    assert merge(ex2, a, b) == ex2


def test_merge_idempotent(ex5):
    a = [["U", "C"], ["R"]]
    assert merge(ex5, a, a) == restrict(ex5, a)


def test_merge_needs_parent_profiles(ex5):
    merged = merge(
        ex5,
        [["U"], ["L"]],
        [["C"], ["R"]],
    )
    assert merged.num_profiles == 4
    assert merged == restrict(ex5, [["U", "C"], ["L", "R"]])


def test_merge_random_covers_recover_parent():
    rng = random.Random(5150)
    for _ in range(300):
        g = random_game(rng)
        a = random_subsets(rng, g)
        b = []
        for labels, kept in zip(g.strategies, a):
            missing = [lab for lab in labels if lab not in kept]
            extra = rng.sample(labels, rng.randint(0, len(labels)))
            b.append(missing + extra or [labels[0]])
        assert merge(g, a, b) == g


# ----------------------------------------------------------------------
# player reduction
# ----------------------------------------------------------------------


def test_reduce_players_column(ex2):
    fixed = ex2.profile_from_labels(("D", "R"))
    reduced = reduce_players(ex2, (0,), fixed)
    assert reduced.strategies == (("U", "D"),)
    assert {reduced.labels_of(p) for p in nash(reduced)} == {("D",)}


def test_reduce_players_row(ex2):
    fixed = ex2.profile_from_labels(("U", "L"))
    reduced = reduce_players(ex2, (1,), fixed)
    assert reduced.strategies == (("L", "R"),)
    l = reduced.profile_from_labels(("L",))
    r = reduced.profile_from_labels(("R",))
    assert reduced.prefers(0, l, r)


def test_reduce_players_indifferent_row(ex2):
    fixed = ex2.profile_from_labels(("D", "L"))
    reduced = reduce_players(ex2, (1,), fixed)
    assert reduced.ranks == ((0, 0),)


def test_reduce_players_guards(ex2):
    fixed = ex2.profile_from_labels(("U", "L"))
    with pytest.raises(GameFormatError):
        reduce_players(ex2, (), fixed)
    with pytest.raises(GameFormatError):
        reduce_players(ex2, (0, 1), fixed)
    with pytest.raises(GameFormatError):
        reduce_players(ex2, (0,), Profile((0, 5)))


@pytest.mark.parametrize("keep", [(2,), (-1,)])
def test_reduce_players_rejects_an_out_of_range_player(ex2, keep):
    with pytest.raises(
        GameFormatError, match="^keep contains an invalid player index$"
    ):
        reduce_players(ex2, keep, Profile((0, 0)))


@pytest.mark.parametrize("keep", [["0"], [True], [0.0], [1, False]])
def test_reduce_players_rejects_non_int_indices(ex2, keep):
    with pytest.raises(GameFormatError, match="player indices must be integers"):
        reduce_players(ex2, keep, Profile((0, 0)))


def test_reduce_players_agrees_with_naive():
    rng = random.Random(402)
    checked = 0
    for _ in range(300):
        g = random_game(rng, max_players=3, max_strategies=4)
        n = g.player_count
        if n < 2:
            continue
        keep = rng.sample(range(n), rng.randint(1, n - 1))
        fixed = Profile(tuple(rng.randrange(k) for k in g.shape))
        assert reduce_players(g, keep, fixed) == _naive_reduce_players(
            g, keep, fixed
        )
        checked += 1
    assert checked > 100


def test_reduce_players_never_callable_on_one_player(chain):
    # any non-empty keep is already the full player set
    with pytest.raises(GameFormatError):
        reduce_players(chain, (0,), Profile((0,)))


# ----------------------------------------------------------------------
# enumeration
# ----------------------------------------------------------------------


def test_enumeration_counts(ex2, chain):
    assert len(list(enumerate_reductions(ex2, "all"))) == 9
    three = build_game(1, [["a", "b", "c"]], payoffs=[[3, 2, 1]])
    assert len(list(enumerate_reductions(three, "all"))) == 7
    assert len(list(enumerate_reductions(ex2, "dummy-or-quasi"))) == 9


def test_enumeration_order_is_bitmask_ascending(ex2):
    specs = list(enumerate_reductions(ex2, "all"))
    assert specs[0] == (("U",), ("L",))
    assert specs[1] == (("U",), ("R",))
    assert specs[2] == (("U",), ("L", "R"))
    assert specs[-1] == (("U", "D"), ("L", "R"))


def test_enumeration_budget(ex2):
    with pytest.raises(BudgetExceededError):
        enumerate_reductions(ex2, "all", budget=8)
    assert len(list(enumerate_reductions(ex2, "all", budget=9))) == 9


def test_enumeration_rejects_an_unknown_flavor(ex2):
    with pytest.raises(ValueError, match="^unknown flavor filter: 'bogus'$"):
        enumerate_reductions(ex2, "bogus")


def test_enumeration_streams_restart(ex2):
    first = list(enumerate_reductions(ex2, "all"))
    second = list(enumerate_reductions(ex2, "all"))
    assert first == second


@pytest.mark.parametrize("mode", ["all", "dummy-or-quasi", "strict"])
def test_enumeration_matches_naive_walk(mode):
    # Every bundled game, then random games of 1-3 players with 1-4
    # strategies each; three rank levels make ties common.
    rng = random.Random(1212)
    games = [fixture_game(name) for name in FIXTURES]
    games += [random_game(rng, 3, 4, levels=3) for _ in range(200)]
    # A budget refuses exactly when the product of the per-player counts
    # exceeds it, at that product with each factor capped at budget + 1.
    for g in games:
        specs = naive_reductions(g, mode)
        assert list(enumerate_reductions(g, mode)) == specs, (g, mode)
        counts = naive_candidate_counts(g, mode)
        for budget in (-1, 0, 1, len(specs) - 1, len(specs), 10**30):
            if math.prod(counts) <= budget:
                assert list(enumerate_reductions(g, mode, budget=budget)) == specs
                continue
            refused = math.prod(min(c, max(budget + 1, 0)) for c in counts)
            with pytest.raises(
                BudgetExceededError,
                match=f"^{refused} subset specs exceed the budget of {budget}$",
            ):
                enumerate_reductions(g, mode, budget=budget)


def test_negative_budget_is_exceeded_and_a_huge_one_caps_nothing(ex2):
    # an islice cap below 0 or above sys.maxsize must not leak its ValueError
    for flavor in ("all", "dummy-or-quasi", "strict"):
        for budget in (-1, -5):
            with pytest.raises(BudgetExceededError, match=f"budget of {budget}$"):
                enumerate_reductions(ex2, flavor, budget=budget)
        assert list(enumerate_reductions(ex2, flavor, budget=10**30)) == list(
            enumerate_reductions(ex2, flavor)
        )
    with pytest.raises(BudgetExceededError):
        reduction_closure(ex2, budget=-5)
    assert len(reduction_closure(ex2, budget=10**30)) == len(reduction_closure(ex2))


def test_dummy_or_quasi_budget_counts_considered_specs():
    # Each player of a 10x10 game has 10 singletons, 45 pairs and the
    # full set: 56 x 56 specs are considered, and the full spec, with
    # no dummy or quasi-dummy player, is dropped.
    g = random_square_game(random.Random(10), 10)
    assert len(list(enumerate_reductions(g, "dummy-or-quasi"))) == 3135
    assert len(list(enumerate_reductions(g, "dummy-or-quasi", budget=3136))) == 3135
    with pytest.raises(
        BudgetExceededError, match="^3136 subset specs exceed the budget of 3135$"
    ):
        enumerate_reductions(g, "dummy-or-quasi", budget=3135)


def test_dummy_or_quasi_list_is_not_built_past_the_budget():
    # 100 strategies have 5,051 dummy-or-quasi subsets: a budget of 1,000
    # refuses them at the count the capped list gives
    g = build_game(1, [[f"s{k}" for k in range(100)]], ranks=[list(range(100))])
    with pytest.raises(
        BudgetExceededError, match="^1001 subset specs exceed the budget of 1000$"
    ):
        enumerate_reductions(g, "dummy-or-quasi", budget=1000)
    # the full spec, last, has no dummy or quasi-dummy player
    assert len(list(enumerate_reductions(g, "dummy-or-quasi", budget=5051))) == 5050


def test_strict_filter_matches_predicate():
    rng = random.Random(31337)
    for _ in range(60):
        g = random_game(rng)
        strict_specs = set(enumerate_reductions(g, "strict"))
        for labels in enumerate_reductions(g, "all"):
            expected = is_strict_reduction(restrict(g, labels), g)
            assert (labels in strict_specs) == expected


def test_strict_filter_agrees_with_naive_on_games_with_ties():
    # Three rank levels make ties, and so weak-but-not-strict dominance,
    # common; the naive test re-derives dominance from the raw tables.
    # Both the strict filter and ``is_strict_reduction`` must agree.
    # Games alternate between up to three players with two strategies
    # and up to two players with three.
    rng = random.Random(7007)
    seen = Counter()
    for k in range(300):
        g = random_game(rng, *((3, 2), (2, 3))[k % 2], levels=3)
        strict = set(enumerate_reductions(g, "strict"))
        for labels in enumerate_reductions(g, "all"):
            sub = restrict(g, labels)
            expected = naive_is_strict_reduction(sub, g)
            assert (labels in strict) == expected, (g, labels)
            assert is_strict_reduction(sub, g) == expected, (g, labels)
            seen[expected] += 1
    assert seen[True] > 100 and seen[False] > 100
