"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the
criterion lines; the reproduce CLI covers the same ground end to end.
"""

import pytest

from nashaxioms import (
    ConceptDomainError,
    check_axiom,
    eval_concept,
    lemma1a_witness,
    lemma1b_construct,
    nash,
    replay_witness,
    verify_one_player_lemma,
    verify_theorem1,
)
from nashaxioms.concepts import CONCEPT_IDS
from nashaxioms.oracles import nash_bruteforce
from nashaxioms.suite import render, run_suite


def announce(number, text):
    print(f"criterion {number:>2}: PASS  {text}")


FOUR_AXIOMS = ("iis", "mc", "isds", "jo")

# expected axiom signature of the independence examples:
# concept -> (host class fixture name, axioms it violates)
SIGNATURE = {
    "empty": ("pd_dclosed", {"jo"}),
    "all_profiles": ("pd_dclosed", {"isds"}),
    "strong_nash": ("ex2_dclosed", {"mc"}),
    "ne_indifference_closure": ("ex2_dclosed", {"iis"}),
}


@pytest.fixture(scope="module")
def classes(pd_dclosed, ex2_dclosed, ex3_cons, ex4_class, ex5_class, ex5_dclosed, cube_dclosed, chain_strict):
    return {
        "pd_dclosed": pd_dclosed,
        "ex2_dclosed": ex2_dclosed,
        "ex3_cons": ex3_cons,
        "ex4": ex4_class,
        "ex5": ex5_class,
        "ex5_dclosed": ex5_dclosed,
        "cube_dclosed": cube_dclosed,
        "chain_strict": chain_strict,
    }


def test_criterion_1_nash_sets(ex2, ex5):
    # frozen expected sets, plus the independently written oracle
    expected_ex2 = {("U", "L"), ("D", "R")}
    expected_ex5 = {("U", "L"), ("C", "R"), ("D", "L")}
    assert {ex2.labels_of(p) for p in nash(ex2)} == expected_ex2
    assert {ex5.labels_of(p) for p in nash(ex5)} == expected_ex5
    assert {ex2.labels_of(p) for p in nash_bruteforce(ex2)} == expected_ex2
    assert {ex5.labels_of(p) for p in nash_bruteforce(ex5)} == expected_ex5
    announce(1, "equilibrium sets of both bundled games, oracle-confirmed")


def test_criterion_2_forward_direction(pd_dclosed, ex2_dclosed, ex5_dclosed):
    for cls in (pd_dclosed, ex2_dclosed, ex5_dclosed):
        report = verify_theorem1(cls)
        assert report.oracle_agreement
        for axiom in FOUR_AXIOMS:
            assert report.verdicts[axiom].passed
    announce(2, "nash passes iis/mc/isds/jo on all three d-closed classes")


def test_criterion_3_logical_independence(classes, ex2, pd):
    for concept, (cname, fails) in SIGNATURE.items():
        cls = classes[cname]
        for axiom in FOUR_AXIOMS:
            verdict = check_axiom(axiom, concept, cls)
            assert verdict.violated == (axiom in fails), (concept, axiom)

    # the specific witnesses each violation is known to produce
    v = check_axiom("jo", "empty", classes["pd_dclosed"])
    assert v.witness["game"] == pd.canonical_id
    assert v.witness["profile"] == ["D", "D"]

    v = check_axiom("mc", "strong_nash", classes["ex2_dclosed"])
    assert v.witness["profile"] == ["D", "R"]
    pair = {
        classes["ex2_dclosed"].get(v.witness["reduction_a"]).strategies,
        classes["ex2_dclosed"].get(v.witness["reduction_b"]).strategies,
    }
    assert pair == {(("U", "D"), ("R",)), (("D",), ("L", "R"))}

    v = check_axiom("iis", "ne_indifference_closure", classes["ex2_dclosed"])
    assert v.witness["profile"] == ["D", "L"]
    assert classes["ex2_dclosed"].get(v.witness["reduction"]).strategies == (
        ("U", "D"),
        ("L",),
    )
    announce(3, "independence signatures exact, known witnesses matched")


def test_criterion_4_literature_independence(classes):
    assert check_axiom("iis", "parity_ne", classes["ex3_cons"]).passed
    assert check_axiom("cons", "parity_ne", classes["ex3_cons"]).violated
    assert check_axiom("mc", "ex4_phi", classes["ex4"]).passed
    assert check_axiom("cocons", "ex4_phi", classes["ex4"]).violated
    assert check_axiom("cocons", "ex4_phi_prime", classes["ex4"]).passed
    assert check_axiom("mc", "ex4_phi_prime", classes["ex4"]).violated
    assert check_axiom("ciis", "ex5_phi", classes["ex5"]).passed
    assert check_axiom("mc", "ex5_phi", classes["ex5"]).violated
    announce(4, "cons/cocons/ciis independence signatures exact")


def test_criterion_5_mc_implies_ciis(classes):
    checked = 0
    for cls in classes.values():
        for concept in CONCEPT_IDS:
            try:
                mc = check_axiom("mc", concept, cls)
                ciis = check_axiom("ciis", concept, cls)
            except ConceptDomainError:
                continue
            checked += 1
            if mc.passed:
                assert ciis.passed
    assert checked >= 50
    announce(5, f"mc pass forces ciis pass ({checked} concept/class pairs)")


def test_criterion_6_reconstruction_total(pd_dclosed, ex2_dclosed, cube_dclosed):
    cases = 0
    for cls in (ex2_dclosed, pd_dclosed, cube_dclosed):
        for game in cls:
            for s in sorted(nash(game)):
                assert lemma1b_construct(game, s).all_passed
                cases += 1
    assert cases == 47
    announce(6, f"equilibrium reconstruction passes on all {cases} cases")


def test_criterion_7_gadget_matches_known_failures(classes):
    cases = 0
    for concept, (cname, fails) in SIGNATURE.items():
        expected = next(iter(fails))
        for game in classes[cname]:
            for s in sorted(eval_concept(concept, game) - nash(game)):
                report = lemma1a_witness(concept, game, s)
                assert report.all_passed
                assert expected in report.violated_axioms
                cases += 1
    assert cases >= 8
    announce(7, f"every non-equilibrium solution names its broken axiom ({cases} cases)")


def test_criterion_8_one_player_lemma(chain_strict):
    report = verify_one_player_lemma(chain_strict)
    assert report.all_consistent
    for res in report.results:
        if res.skipped:
            continue
        if res.agrees_with_nash:
            assert res.isds_pass and res.jo_pass
        else:
            assert not (res.isds_pass and res.jo_pass)
        for rep in res.replays:
            assert rep.all_passed
    announce(8, "one-player class: axiom compliance matches nash agreement")


def test_criterion_9_witness_replay(classes):
    axioms = ("iis", "mc", "isds", "jo", "cons", "cocons", "ciis")
    violated = 0
    for cls in classes.values():
        for concept in CONCEPT_IDS:
            for axiom in axioms:
                try:
                    verdict = check_axiom(axiom, concept, cls)
                except ConceptDomainError:
                    continue
                if verdict.violated:
                    assert replay_witness(verdict, cls), (axiom, concept)
                    violated += 1
    assert violated >= 20
    announce(9, f"100% of {violated} violated verdicts re-verify")


def test_criterion_10_determinism():
    outputs = [render(run_suite()) for _ in range(4)]
    assert all(o == outputs[0] for o in outputs)
    assert all(row.ok for row in run_suite())
    announce(10, "reproduce output identical across 4 runs")
