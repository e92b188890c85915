import random

import pytest

from nashaxioms import (
    ConceptDomainError,
    SubsetSpec,
    build_game,
    eval_concept,
    is_reduction,
    jointly_optimal,
    nash,
    restrict,
    strong_nash,
)
from nashaxioms.concepts import CONCEPT_IDS, ne_indifference_closure
from nashaxioms.oracles import nash_bruteforce

from conftest import random_game, random_subsets


def labels(game, profiles):
    return {game.labels_of(p) for p in profiles}


# ----------------------------------------------------------------------
# nash
# ----------------------------------------------------------------------


def test_nash_coordination(ex2):
    assert labels(ex2, nash(ex2)) == {("U", "L"), ("D", "R")}


def test_nash_duplicate_row(ex5):
    assert labels(ex5, nash(ex5)) == {("U", "L"), ("C", "R"), ("D", "L")}


def test_nash_one_player_with_tie():
    g = build_game(1, [["a", "b", "c"]], payoffs=[[5, 5, 1]])
    assert labels(g, nash(g)) == {("a",), ("b",)}


def test_nash_matches_oracle_on_random_games():
    rng = random.Random(2718)
    for _ in range(400):
        g = random_game(rng)
        assert nash(g) == nash_bruteforce(g)


# ----------------------------------------------------------------------
# strong nash
# ----------------------------------------------------------------------


def test_strong_nash_excludes_blocked_equilibrium(ex2):
    assert labels(ex2, strong_nash(ex2)) == {("U", "L")}


def test_strong_nash_on_one_player_equals_nash(chain):
    assert strong_nash(chain) == nash(chain)


def test_strong_nash_single_column(ex2):
    sub = restrict(ex2, SubsetSpec.from_labels(ex2, [["U", "D"], ["R"]]))
    assert labels(sub, strong_nash(sub)) == {("D", "R")}


# ----------------------------------------------------------------------
# joint optimality
# ----------------------------------------------------------------------


def test_jointly_optimal_dilemma(pd):
    assert labels(pd, jointly_optimal(pd)) == {("D", "D")}


def test_jointly_optimal_empty_when_rows_flip(ex2):
    assert jointly_optimal(ex2) == frozenset()


def test_jointly_optimal_single_profile_game(pd):
    single = restrict(pd, SubsetSpec.from_labels(pd, [["D"], ["C"]]))
    assert jointly_optimal(single) == frozenset(single.profiles())


# ----------------------------------------------------------------------
# registered concepts
# ----------------------------------------------------------------------


def test_empty_and_all(ex2):
    assert eval_concept("empty", ex2) == frozenset()
    assert eval_concept("all_profiles", ex2) == frozenset(ex2.profiles())


def test_indifference_closure_adds_tied_profile(ex2):
    got = labels(ex2, eval_concept("ne_indifference_closure", ex2))
    assert got == {("U", "L"), ("D", "R"), ("D", "L")}


def test_parity(ex2, chain):
    assert eval_concept("parity_ne", ex2) == nash(ex2)
    assert eval_concept("parity_ne", chain) == frozenset()


def test_ex4_concepts(ex2, chain):
    assert eval_concept("ex4_phi", chain) == frozenset(chain.profiles())
    assert eval_concept("ex4_phi", ex2) == nash(ex2)
    assert eval_concept("ex4_phi_prime", chain) == frozenset()
    assert eval_concept("ex4_phi_prime", ex2) == strong_nash(ex2)


def test_ex5_concept_carveout(ex5):
    pinned = restrict(ex5, SubsetSpec.from_labels(ex5, [["U", "C"], ["R"]]))
    assert eval_concept("ex5_phi", pinned) == frozenset()
    assert labels(ex5, eval_concept("ex5_phi", ex5)) == {("U", "L"), ("D", "L")}


def test_domain_errors(cube, chain):
    for concept in ("ex4_phi", "ex4_phi_prime", "ex5_phi"):
        with pytest.raises(ConceptDomainError):
            eval_concept(concept, cube)
    with pytest.raises(ConceptDomainError):
        eval_concept("ex5_phi", chain)


def test_unknown_concept(ex2):
    with pytest.raises(ValueError):
        eval_concept("does_not_exist", ex2)


# ----------------------------------------------------------------------
# invariants
# ----------------------------------------------------------------------


def test_inclusions_on_many_random_games():
    rng = random.Random(1234)
    for _ in range(1000):
        g = random_game(rng)
        ne = nash(g)
        assert jointly_optimal(g) <= ne
        assert strong_nash(g) <= ne
        assert ne <= ne_indifference_closure(g)


def test_nash_is_stable_under_reductions():
    rng = random.Random(55)
    for _ in range(400):
        g = random_game(rng)
        sub = restrict(g, random_subsets(rng, g))
        assert is_reduction(sub, g)
        for s in nash(g):
            mapped = sub.profile_from_labels(g.labels_of(s))
            if mapped is not None:
                assert mapped in nash(sub)


def test_concurrent_evaluation_matches_sequential(ex5_class):
    from concurrent.futures import ThreadPoolExecutor

    from nashaxioms.concepts import clear_cache

    clear_cache()
    games = list(ex5_class)

    def work(g):
        return g.canonical_id, eval_concept("nash", g), eval_concept("ex5_phi", g)

    with ThreadPoolExecutor(max_workers=8) as pool:
        results = list(pool.map(work, games * 4))
    for cid, ne, phi in results:
        g = ex5_class.get(cid)
        assert ne == nash_bruteforce(g)
        assert phi == eval_concept("ex5_phi", g)


def test_eval_is_deterministic_on_canonical_form(ex2):
    rebuilt = build_game(
        2, [["U", "D"], ["L", "R"]], payoffs=[[8, 0, 4, 4], [80, 0, 9, 9]]
    )
    assert rebuilt.canonical_id == ex2.canonical_id
    for concept in CONCEPT_IDS:
        assert eval_concept(concept, rebuilt) == eval_concept(concept, ex2)
