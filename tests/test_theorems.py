import math
import random
from collections import Counter

import pytest

import nashaxioms.theorems as theorems
from nashaxioms import (
    BudgetExceededError,
    GameClass,
    build_game,
    d_closure,
    eval_concept,
    lemma1a_witness,
    lemma1b_construct,
    nash,
    strict_closure,
    verify_one_player_lemma,
    verify_theorem1,
)
from nashaxioms.axioms import _AXIOMS
from nashaxioms.closures import Provenance
from nashaxioms.oracles import nash_bruteforce
from nashaxioms.theorems import (
    ConceptOnePlayerResult,
    OnePlayerLemmaReport,
    audit_d_closed,
    audit_strictly_closed,
)

from conftest import random_game, shaped_game, weak_ordinal_2x2_games
from naive_checks import (
    naive_audit_message,
    naive_is_reduction,
    naive_is_strict_reduction,
)


# ----------------------------------------------------------------------
# part (a) gadget: a selected non-equilibrium breaks a contraction axiom
# ----------------------------------------------------------------------


def test_gadget_names_invariance_for_all_profiles(pd):
    report = lemma1a_witness("all_profiles", pd, ("C", "C"))
    assert report.all_passed
    assert report.violated_axioms == ["isds"]
    roles = dict(report.constructed)
    assert roles["G'"].strategies == (("C", "D"), ("C",))
    assert roles["G''"].strategies == (("D",), ("C",))


def test_gadget_names_contraction_for_indifference_closure(ex2):
    report = lemma1a_witness("ne_indifference_closure", ex2, ("D", "L"))
    assert report.all_passed
    assert report.violated_axioms == ["iis"]
    roles = dict(report.constructed)
    # deviation for the row player towards the coordination row
    assert roles["G'"].strategies == (("U", "D"), ("L",))
    assert roles["G''"].strategies == (("U",), ("L",))


def test_gadget_rejects_equilibria(pd):
    with pytest.raises(ValueError):
        lemma1a_witness("all_profiles", pd, ("D", "D"))


def test_gadget_rejects_unselected_profiles(pd):
    with pytest.raises(ValueError):
        lemma1a_witness("empty", pd, ("C", "C"))


@pytest.mark.parametrize(
    "construct",
    [
        pytest.param(lambda g, s: lemma1a_witness("all_profiles", g, s), id="1a"),
        pytest.param(lemma1b_construct, id="1b"),
    ],
)
def test_constructions_reject_a_profile_that_is_not_a_label_sequence(construct, ex2):
    with pytest.raises(ValueError, match="profile 5 does not fit the game"):
        construct(ex2, 5)


@pytest.mark.parametrize(
    "construct",
    [
        pytest.param(lambda g, s: lemma1a_witness("all_profiles", g, s), id="1a"),
        pytest.param(lemma1b_construct, id="1b"),
    ],
)
def test_constructions_reject_a_string_profile(construct, ex2):
    # ex2's labels are single characters, so splitting "UL" would give
    # the equilibrium ("U", "L")
    with pytest.raises(ValueError, match="profile 'UL' does not fit the game"):
        construct(ex2, "UL")


def test_gadget_total_over_example_classes(pd_dclosed, ex2_dclosed):
    cases = 0
    for concept, cls, expected in (
        ("all_profiles", pd_dclosed, "isds"),
        ("ne_indifference_closure", ex2_dclosed, "iis"),
    ):
        for game in cls:
            for s in sorted(eval_concept(concept, game) - nash(game)):
                report = lemma1a_witness(concept, game, s)
                assert report.all_passed
                assert report.violated_axioms == [expected]
                cases += 1
    assert cases >= 8


# ----------------------------------------------------------------------
# part (b) gadget: equilibria rebuild through dummy reductions
# ----------------------------------------------------------------------


def test_reconstruction_two_player(ex2):
    report = lemma1b_construct(ex2, ("U", "L"))
    assert report.all_passed
    roles = dict(report.constructed)
    assert roles["G^1"].strategies == (("U", "D"), ("L",))
    assert roles["G^2"].strategies == (("U",), ("L", "R"))
    assert roles["H^1"] == ex2


def test_reconstruction_dilemma(pd):
    assert lemma1b_construct(pd, ("D", "D")).all_passed


def test_reconstruction_three_player(cube):
    report = lemma1b_construct(cube, ("a", "a", "a"))
    assert report.all_passed
    roles = dict(report.constructed)
    assert roles["H^1"].shape == (2, 2, 1)
    assert roles["H^2"] == cube


def test_reconstruction_rejects_non_equilibria(ex2):
    with pytest.raises(ValueError):
        lemma1b_construct(ex2, ("U", "R"))


def test_reconstruction_rejects_one_player(chain):
    with pytest.raises(ValueError):
        lemma1b_construct(chain, ("a",))


def test_reconstruction_total_over_classes(pd_dclosed, ex2_dclosed, cube_dclosed):
    for cls in (pd_dclosed, ex2_dclosed, cube_dclosed):
        for game in cls:
            for s in sorted(nash(game)):
                assert lemma1b_construct(game, s).all_passed


def test_gadget_reduction_claims_hold_by_content(
    pd_dclosed, ex2_dclosed, cube_dclosed
):
    """Every game a construction claims is a reduction of G is one by a
    pairwise rank comparison, not only by the record ``restrict`` leaves,
    and so is G'' a strict reduction of G'."""
    reports = []
    for cls in (pd_dclosed, ex2_dclosed, cube_dclosed):
        for game in cls:
            for s in game.profiles():
                if s in nash(game):
                    reports.append((game, lemma1b_construct(game, s)))
                else:
                    reports.append((game, lemma1a_witness("all_profiles", game, s)))
    claims = {"reduction": 0, "strict": 0}
    for game, report in reports:
        assert report.all_passed
        roles = dict(report.constructed)
        for claim in report.assertions:
            role, _, rest = claim.name.partition(" is a ")
            if rest.startswith("reduction of G"):
                assert naive_is_reduction(roles[role], game), claim.name
                claims["reduction"] += 1
            elif rest == "strict reduction of G'":
                assert naive_is_strict_reduction(roles[role], roles["G'"])
                claims["strict"] += 1
    # 49 part (a) reports with two reduction claims each, 47 part (b) ones
    assert claims == {"reduction": 246, "strict": 49}


# ----------------------------------------------------------------------
# forward-direction verification
# ----------------------------------------------------------------------


def test_forward_direction_on_dclosed_classes(pd_dclosed, ex2_dclosed, ex5_dclosed):
    for cls in (pd_dclosed, ex2_dclosed, ex5_dclosed):
        report = verify_theorem1(cls)
        assert report.all_passed
        assert set(report.verdicts) == {"iis", "mc", "isds", "jo"}


def test_forward_direction_on_every_weak_ordinal_2x2_dclosure():
    """Theorem 1 on the d-closure of each of the 5625 2x2 weak-ordinal
    games: the exhaustive sweep of the end-to-end measure."""
    games = weak_ordinal_2x2_games()
    assert len(games) == 5625
    failed = [g for g in games if not verify_theorem1(d_closure([g])).all_passed]
    assert failed == []


@pytest.mark.parametrize("shape", [(2, 2), (3, 3), (2, 2, 2)], ids=["2x2", "3x3", "2x2x2"])
def test_theorem1_builds_one_relation_table(shape, monkeypatch):
    # The audit and the four scans read one relation table per class.  A
    # one-seed d-closure has one top, the seed, and every member is its
    # candidate, so the table costs one ``is_reduction`` call per member.
    import nashaxioms.closures as closures

    calls = Counter()
    tops, is_reduction = GameClass._tops, closures.is_reduction
    monkeypatch.setattr(
        GameClass, "_tops", lambda cls: calls.update(["_tops"]) or tops(cls)
    )
    monkeypatch.setattr(
        closures,
        "is_reduction",
        lambda g, h: calls.update(["is_reduction"]) or is_reduction(g, h),
    )
    cls = d_closure([shaped_game(random.Random(35), shape)])
    assert verify_theorem1(cls).all_passed
    assert calls == {"_tops": 1, "is_reduction": len(cls)}


def test_forward_direction_rejects_unclosed_class(ex2_dclosed):
    corrupted = GameClass()
    # drop one non-seed member
    members = list(ex2_dclosed)
    for game in members[:-1]:
        corrupted.add(game, Provenance("seed"))
    with pytest.raises(
        ValueError, match="not d-closed: game .* missing the reduction with"
    ):
        verify_theorem1(corrupted)


def _holed(full, gone) -> GameClass:
    """``full`` without the member ``gone``, every other member a seed."""
    holed = GameClass()
    for game in full:
        if game.canonical_id != gone:
            holed.add(game, Provenance("seed"))
    return holed


def _assert_audit_names_the_hole(holed, mode, audit) -> None:
    expected = naive_audit_message(holed, mode)
    assert expected is not None
    with pytest.raises(ValueError) as exc:
        audit(holed)
    assert str(exc.value) == expected


#: Per mode, the seeded one-seed closures of benchmark size, as (seed
#: shape, rank levels, members): the d-closures of a 4x4 game (the ``scan``
#: workload's shape) and of a 3x3x2 game, and the strict closure of a
#: one-player game with six strategies.
_BENCHMARK_SIZE = {
    "d": [((4, 4), 3, 121), ((3, 3, 2), 3, 147)],
    "strict": [((6,), 6, 16)],
}


@pytest.mark.parametrize(
    "mode,closure,audit",
    [
        ("d", d_closure, audit_d_closed),
        ("strict", strict_closure, audit_strictly_closed),
    ],
)
def test_closedness_audit_agrees_with_naive(mode, closure, audit):
    # Random two-seed closures (their label sets overlap) pass the audit;
    # with one non-seed member dropped, it raises exactly the
    # restrict-and-lookup reference's message.  So do seeded closures of
    # benchmark size, with a random non-seed member dropped and with the
    # last member added dropped: for the 4x4 and one-player seeds, only
    # the last spec of the seed's plan names it.
    rng = random.Random(20261018)
    dropped = 0
    for _ in range(40):
        full = closure([random_game(rng), random_game(rng)])
        audit(full)
        non_seeds = [c for c in full.ids() if full.provenance[c].kind != "seed"]
        if not non_seeds:
            continue
        _assert_audit_names_the_hole(_holed(full, rng.choice(non_seeds)), mode, audit)
        dropped += 1
    assert dropped >= 15
    rng = random.Random(34)
    for shape, levels, size in _BENCHMARK_SIZE[mode]:
        full = closure([shaped_game(rng, shape, levels)])
        assert len(full) == size
        audit(full)
        assert naive_audit_message(full, mode) is None
        for gone in (rng.choice(full.ids()[1:]), full.ids()[-1]):
            _assert_audit_names_the_hole(_holed(full, gone), mode, audit)


@pytest.mark.parametrize(
    "mode,closure,audit,seed,specs",
    [
        (
            "d",
            d_closure,
            audit_d_closed,
            build_game(
                2, [["audT", "audB"], ["audL", "audR"]], ranks=[[0, 1, 2, 3], [3, 2, 1, 0]]
            ),
            9,
        ),
        (
            "strict",
            strict_closure,
            audit_strictly_closed,
            build_game(1, [["audA", "audB", "audC", "audD"]], ranks=[[0, 1, 2, 3]]),
            8,
        ),
    ],
    ids=["d", "strict"],
)
def test_an_audit_past_the_budget_refuses_and_keeps_no_plan(
    monkeypatch, mode, closure, audit, seed, specs
):
    """Audits read plans at ``DEFAULT_BUDGET`` or the class size, if
    larger.  With ``DEFAULT_BUDGET`` below the seed's spec count, the
    closed class still passes, while the seed alone, a class of one
    member, is refused twice, naming the budget; afterwards, at the real
    budget, the seed alone is refused as not closed and the closed class
    passes.  The seeds' labels are used nowhere else, and each closure is
    built at its spec count, so no plan at either budget exists
    beforehand."""
    cls = closure([seed], budget=specs)
    alone = _holed([seed], None)
    monkeypatch.setattr(theorems, "DEFAULT_BUDGET", specs - 1)
    audit(cls)
    for _ in range(2):
        with pytest.raises(
            BudgetExceededError,
            match=f"^{specs} subset specs exceed the budget of {specs - 1}$",
        ):
            audit(alone)
    monkeypatch.undo()
    _assert_audit_names_the_hole(alone, mode, audit)
    audit(cls)


def test_theorem1_records_do_not_depend_on_sharing_facts_across_classes():
    from nashaxioms.concepts import clear_cache

    rng = random.Random(23)
    seeds = []
    for shape in [(2, 2)] * 80 + [(2, 3)] * 80 + [(2, 2, 2)] * 50:
        labels = [[f"p{i}s{k}" for k in range(size)] for i, size in enumerate(shape)]
        ranks = [[rng.randrange(3) for _ in range(math.prod(shape))] for _ in shape]
        seeds.append(build_game(len(shape), labels, ranks=ranks))

    def records(cold: bool) -> list[dict]:
        clear_cache()
        out = []
        for seed in seeds:
            if cold:
                clear_cache()
            out.append(verify_theorem1(d_closure([seed])).to_record())
        return out

    warm = records(cold=False)
    assert len(warm) >= 200 and all(r["result"] == "pass" for r in warm)
    assert records(cold=True) == warm


def _sharing_seeds(count: int) -> list:
    """Seeded random 2x2, 2x3 and 2x2x2 games with ranks from ``range(3)``,
    each player's labels drawn from a small pool in a random order, so
    classes meet the same labels, and the same content, in many mixes."""
    rng = random.Random(27)
    pools = [["T", "M", "B", "U"], ["L", "C", "R", "D"], ["x", "y", "z"]]
    shapes = [(2, 2), (2, 3), (2, 2, 2)]
    seeds = []
    for k in range(count):
        shape = shapes[k % 3]
        labels = [rng.sample(pools[i], size) for i, size in enumerate(shape)]
        ranks = [[rng.randrange(3) for _ in range(math.prod(shape))] for _ in shape]
        seeds.append(build_game(len(shape), labels, ranks=ranks))
    return seeds


def _class_facts(cls) -> dict:
    """Everything a class's checks report: its Theorem-1 record, and the
    full witness stream and coverage of five scans for three concepts."""
    streams = {}
    for concept in ("nash", "strong_nash", "ne_indifference_closure"):
        for axiom in ("iis", "mc", "isds", "jo", "ciis"):
            tally = Counter()
            found = list(_AXIOMS[axiom][0](concept, cls, cls, tally))
            streams[axiom, concept] = (found, dict(tally))
    return {
        "members": cls.ids(),
        "theorem1": verify_theorem1(cls).to_record(),
        "streams": streams,
    }


def test_shared_facts_never_leak_across_classes():
    """Label and content facts are shared by every class that meets the
    same labels or content: the checks of each class read the same with a
    cold memo per class as with one memo shared by all, in shuffled order,
    and a class with a hole fails its audit with the naive message."""
    from nashaxioms.concepts import clear_cache

    seeds = _sharing_seeds(200)
    cold = []
    for seed in seeds:
        clear_cache()
        cold.append(_class_facts(d_closure([seed])))
    assert all(c["theorem1"]["result"] == "pass" for c in cold)
    assert sum(len(f) for c in cold for f, _ in c["streams"].values()) > 0
    order = list(range(len(seeds)))
    random.Random(2027).shuffle(order)
    clear_cache()
    shared = {}
    classes = {}
    for k in order:
        classes[k] = d_closure([seeds[k]])
        shared[k] = _class_facts(classes[k])
    assert [shared[k] for k in range(len(seeds))] == cold
    rng = random.Random(72)
    for k in order:
        full = classes[k]
        gone = rng.choice([c for c in full.ids() if full.provenance[c].kind != "seed"])
        holed = GameClass()
        for cid in full.ids():
            if cid != gone:
                holed.add(full.get(cid), full.provenance[cid])
        expected = naive_audit_message(holed, "d")
        assert expected is not None
        with pytest.raises(ValueError) as exc:
            audit_d_closed(holed)
        assert str(exc.value) == expected


def test_engine_oracle_agreement_everywhere(ex5_class, cube_dclosed):
    for cls in (ex5_class, cube_dclosed):
        for game in cls:
            assert eval_concept("nash", game) == nash_bruteforce(game)


# ----------------------------------------------------------------------
# one-player strictly closed classes
# ----------------------------------------------------------------------


def test_one_player_lemma_report(chain_strict):
    report = verify_one_player_lemma(chain_strict)
    assert report.all_consistent
    by_name = {r.concept: r for r in report.results}
    assert by_name["nash"].isds_pass and by_name["nash"].jo_pass
    assert by_name["nash"].agrees_with_nash
    assert not by_name["all_profiles"].isds_pass
    assert by_name["all_profiles"].replays
    removed = {
        a.detail
        for rep in by_name["all_profiles"].replays
        for a in rep.assertions
        if a.detail
    }
    assert removed  # the replay names the removed strategy
    assert not by_name["empty"].jo_pass
    assert by_name["ex5_phi"].skipped


def test_one_player_lemma_rejects_multiplayer(ex2_dclosed):
    with pytest.raises(ValueError):
        verify_one_player_lemma(ex2_dclosed)


def test_one_player_lemma_rejects_unclosed(chain):
    cls = GameClass()
    cls.add(chain, Provenance("seed"))
    with pytest.raises(
        ValueError,
        match="not strictly closed: game .* missing the strict reduction with",
    ):
        verify_one_player_lemma(cls)


@pytest.mark.parametrize(
    "fields, line",
    [
        pytest.param(
            dict(isds_pass=True, refinement_holds=False),
            "  FAIL phi: isds=pass jo=fail nash-agreement=no replays=0",
            id="invariance-without-refinement",
        ),
        pytest.param(
            dict(jo_pass=True, coarsening_holds=False),
            "  FAIL phi: isds=fail jo=pass nash-agreement=no replays=0",
            id="joint-optimality-without-coarsening",
        ),
        pytest.param(
            dict(isds_pass=True, jo_pass=True),
            "  FAIL phi: isds=pass jo=pass nash-agreement=no replays=0",
            id="both-axioms-without-nash-agreement",
        ),
    ],
)
def test_one_player_lemma_reports_an_inconsistent_concept(fields, line):
    result = ConceptOnePlayerResult("phi", **fields)
    assert not result.consistent
    report = OnePlayerLemmaReport(3, [result])
    assert not report.all_consistent
    assert report.lines() == ["one-player strictly closed class of 3 games", line]
    assert report.to_record()["result"] == "violated"
