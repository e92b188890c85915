import random

import pytest

from nashaxioms import (
    ConceptDomainError,
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

from conftest import random_game, random_subsets, weak_ordinal_2x2_games
from naive_checks import (
    _naive_jointly_optimal,
    naive_ne_indifference_closure,
    naive_strong_nash,
    textbook_nash,
)


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


def test_oracle_agrees_with_the_textbook_oracle():
    # ranks from range(3) leave ties in most of these games, up to 3x3x3
    rng = random.Random(2719)
    for _ in range(400):
        g = random_game(rng, levels=3)
        assert nash_bruteforce(g) == textbook_nash(g)
    games = weak_ordinal_2x2_games()
    assert len(games) == 5625
    for g in games:
        assert nash_bruteforce(g) == textbook_nash(g)


# ----------------------------------------------------------------------
# strong nash
# ----------------------------------------------------------------------


def test_strong_nash_excludes_blocked_equilibrium(ex2):
    assert labels(ex2, strong_nash(ex2)) == {("U", "L")}


def test_strong_nash_on_one_player_equals_nash(chain):
    assert strong_nash(chain) == nash(chain)


def test_strong_nash_single_column(ex2):
    sub = restrict(ex2, [["U", "D"], ["R"]])
    assert labels(sub, strong_nash(sub)) == {("D", "R")}


# ----------------------------------------------------------------------
# joint optimality
# ----------------------------------------------------------------------


def test_jointly_optimal_dilemma(pd):
    assert labels(pd, jointly_optimal(pd)) == {("D", "D")}


def test_jointly_optimal_empty_when_rows_flip(ex2):
    assert jointly_optimal(ex2) == frozenset()


def test_jointly_optimal_single_profile_game(pd):
    single = restrict(pd, [["D"], ["C"]])
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
    pinned = restrict(ex5, [["U", "C"], ["R"]])
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


def test_jointly_optimal_agrees_with_naive():
    rng = random.Random(303)
    found = 0
    for _ in range(300):
        g = random_game(rng, max_players=3, max_strategies=4)
        expected = frozenset(_naive_jointly_optimal(g))
        assert jointly_optimal(g) == expected
        found += bool(expected)
    assert found > 30


def test_strong_nash_agrees_with_naive():
    rng = random.Random(304)
    found = 0
    for _ in range(300):
        g = random_game(rng, max_players=3, max_strategies=4)
        expected = frozenset(naive_strong_nash(g))
        assert strong_nash(g) == expected
        found += bool(expected) and expected != nash(g)
    assert found > 0
    # three players, so coalitions of two and of all three are tested on
    # the equilibria that the singletons leave
    found = 0
    for _ in range(150):
        shape = [rng.randint(1, 3) for _ in range(3)]
        total = shape[0] * shape[1] * shape[2]
        g = build_game(
            3,
            [[f"p{i}s{k}" for k in range(size)] for i, size in enumerate(shape)],
            ranks=[[rng.randrange(3) for _ in range(total)] for _ in range(3)],
        )
        expected = frozenset(naive_strong_nash(g))
        assert strong_nash(g) == expected
        found += bool(expected) and expected != nash(g)
    assert found > 0


def test_ne_indifference_closure_agrees_with_naive():
    rng = random.Random(305)
    for _ in range(300):
        g = random_game(rng, max_players=3, max_strategies=4)
        expected = frozenset(naive_ne_indifference_closure(g))
        assert ne_indifference_closure(g) == expected


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


# ----------------------------------------------------------------------
# the per-content memo
# ----------------------------------------------------------------------


def test_jointly_optimal_is_worked_out_once_per_game_content(monkeypatch):
    import nashaxioms.axioms as axioms
    from nashaxioms import GameClass, Provenance, check_axiom
    from nashaxioms.concepts import CONCEPTS, clear_cache

    # the memo's other facts are not confused with concept values
    assert not {"jointly_optimal", "undominated"} & set(CONCEPTS)
    calls = []
    monkeypatch.setattr(
        axioms, "jointly_optimal", lambda g: calls.append(g) or jointly_optimal(g)
    )
    ranks = [[0, 1, 1, 0], [1, 0, 0, 1]]

    def jo_on_its_own_class(strategies):
        game = build_game(2, strategies, ranks=ranks)
        cls = GameClass()
        cls.add(game, Provenance("seed"))
        return game, check_axiom("jo", "nash", cls)

    clear_cache()
    a, verdict_a = jo_on_its_own_class([["T", "B"], ["L", "R"]])
    b, verdict_b = jo_on_its_own_class([["T", "B"], ["L", "R"]])
    assert a is not b and a == b and verdict_a == verdict_b
    assert calls == [a]
    relabeled, _ = jo_on_its_own_class([["U", "D"], ["L", "R"]])
    assert relabeled.ranks == a.ranks and relabeled.shape == a.shape
    assert calls == [a, relabeled]


def _module_caches():
    """Every module-level cache of the package, found by introspection:
    per module, each ``functools.cache`` function it defines and each
    dict, list or set it holds, by qualified name."""
    import importlib
    import pkgutil

    import nashaxioms

    found = {}
    for info in pkgutil.iter_modules(nashaxioms.__path__):
        if info.name == "__main__":  # importing it runs the CLI
            continue
        module = importlib.import_module(f"nashaxioms.{info.name}")
        for name, value in vars(module).items():
            if name.startswith("__"):
                continue
            defined_here = getattr(value, "__module__", None) == module.__name__
            if (defined_here and hasattr(value, "cache_clear")) or type(value) in (
                dict,
                list,
                set,
            ):
                found[f"{info.name}.{name}"] = value
    return found


def _size(cache) -> int:
    return cache.cache_info().currsize if hasattr(cache, "cache_info") else len(cache)


def test_clear_cache_empties_every_module_level_cache():
    from nashaxioms.concepts import clear_cache
    from nashaxioms.suite import run_suite

    caches = _module_caches()
    # the label-bit registry interns labels and is never emptied
    registry = caches.pop("games._label_bits")
    clear_cache()
    cold = {name: _size(cache) for name, cache in caches.items()}
    assert all(r.ok for r in run_suite())
    grown = {name for name, cache in caches.items() if _size(cache) > cold[name]}
    # the suite reaches every cache known today, so one that grows is seen
    assert {
        "games._profiles",
        "games._columns",
        "games._facts",
        "games._ids",
    } <= grown
    clear_cache()
    assert {name: _size(cache) for name, cache in caches.items()} == cold
    assert all(_size(caches[name]) == 0 for name in grown)
    assert registry


def test_clear_cache_misses_no_memo():
    """After a scan and a Theorem-1 check, ``clear_cache`` leaves every
    memo empty: the fact and id memos, every ``functools.cache`` of the
    package, and the derive memo of every live class.  The label-bit
    registry is the one exception, and it keeps its bits."""
    import importlib
    import pkgutil

    import nashaxioms
    from nashaxioms import closures, games
    from nashaxioms.axioms import AXIOM_IDS, check_axiom
    from nashaxioms.concepts import clear_cache
    from nashaxioms.fixtures import fixture_game
    from nashaxioms.theorems import verify_theorem1

    scanned = closures.build_named_class("ex4")
    for axiom in AXIOM_IDS:
        check_axiom(axiom, "nash", scanned)
    checked = closures.d_closure([fixture_game("ex2")])
    assert verify_theorem1(checked).all_passed
    assert scanned._derived and checked._derived and games._facts and games._ids
    registry = dict(games._label_bits)
    cached = {}
    for info in pkgutil.iter_modules(nashaxioms.__path__):
        if info.name == "__main__":  # importing it runs the CLI
            continue
        module = importlib.import_module(f"nashaxioms.{info.name}")
        for name, value in vars(module).items():
            if hasattr(value, "cache_info"):
                cached[f"{info.name}.{name}"] = value
    assert {"games._columns", "games._profiles"} <= set(cached)
    assert any(fn.cache_info().currsize for fn in cached.values())
    clear_cache()
    assert not games._facts and not games._ids
    sizes = {name: fn.cache_info().currsize for name, fn in cached.items()}
    assert sizes == dict.fromkeys(cached, 0)
    assert list(closures._classes) and not any(c._derived for c in closures._classes)
    assert games._label_bits == registry
