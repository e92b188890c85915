import pytest

from nashaxioms import (
    AxiomVerdict,
    ConceptDomainError,
    check_axiom,
    replay_witness,
)
from nashaxioms.concepts import CONCEPT_IDS

from naive_checks import naive_check


def strategy_sets(cls, cid):
    return cls.get(cid).strategies


# ----------------------------------------------------------------------
# contraction: solutions survive into reductions
# ----------------------------------------------------------------------


def test_iis_nash_passes(ex2_dclosed):
    assert check_axiom("iis", "nash", ex2_dclosed).passed


def test_iis_indifference_closure_witness(ex2_dclosed, ex2):
    verdict = check_axiom("iis", "ne_indifference_closure", ex2_dclosed)
    assert verdict.violated
    w = verdict.witness
    assert w["game"] == ex2.canonical_id
    assert w["profile"] == ["D", "L"]
    assert strategy_sets(ex2_dclosed, w["reduction"]) == (("U", "D"), ("L",))
    assert replay_witness(verdict, ex2_dclosed)


def test_iis_empty_passes(pd_dclosed):
    assert check_axiom("iis", "empty", pd_dclosed).passed


# ----------------------------------------------------------------------
# expansion: merges keep common solutions
# ----------------------------------------------------------------------


def test_mc_strong_nash_witness(ex2_dclosed, ex2):
    verdict = check_axiom("mc", "strong_nash", ex2_dclosed)
    assert verdict.violated
    w = verdict.witness
    assert w["game"] == ex2.canonical_id
    assert w["profile"] == ["D", "R"]
    pair = {
        strategy_sets(ex2_dclosed, w["reduction_a"]),
        strategy_sets(ex2_dclosed, w["reduction_b"]),
    }
    assert pair == {(("U", "D"), ("R",)), (("D",), ("L", "R"))}
    assert replay_witness(verdict, ex2_dclosed)


def test_mc_nash_passes(ex5_dclosed):
    assert check_axiom("mc", "nash", ex5_dclosed).passed


def test_mc_ex5_concept_fails_on_reduction_class(ex5_class):
    verdict = check_axiom("mc", "ex5_phi", ex5_class)
    assert verdict.violated
    assert replay_witness(verdict, ex5_class)


# ----------------------------------------------------------------------
# invariance across strict reductions
# ----------------------------------------------------------------------


def test_isds_all_profiles_fails(pd_dclosed):
    verdict = check_axiom("isds", "all_profiles", pd_dclosed)
    assert verdict.violated
    assert verdict.witness["only_in_game"]
    assert replay_witness(verdict, pd_dclosed)


def test_isds_nash_passes(pd_dclosed):
    assert check_axiom("isds", "nash", pd_dclosed).passed


def test_isds_empty_passes(pd_dclosed):
    assert check_axiom("isds", "empty", pd_dclosed).passed


# ----------------------------------------------------------------------
# joint optimality
# ----------------------------------------------------------------------


def test_jo_empty_witness(pd_dclosed, pd):
    verdict = check_axiom("jo", "empty", pd_dclosed)
    assert verdict.violated
    assert verdict.witness["game"] == pd.canonical_id
    assert verdict.witness["profile"] == ["D", "D"]
    assert replay_witness(verdict, pd_dclosed)


def test_jo_all_profiles_passes(pd_dclosed, ex2_dclosed):
    assert check_axiom("jo", "all_profiles", pd_dclosed).passed
    assert check_axiom("jo", "all_profiles", ex2_dclosed).passed


def test_jo_nash_passes(ex5_dclosed):
    assert check_axiom("jo", "nash", ex5_dclosed).passed


# ----------------------------------------------------------------------
# player-reduction and proper-reduction axioms
# ----------------------------------------------------------------------


def test_cons_parity_witness(ex3_cons, ex2):
    verdict = check_axiom("cons", "parity_ne", ex3_cons)
    assert verdict.violated
    w = verdict.witness
    assert w["game"] == ex2.canonical_id
    assert w["profile"] == ["U", "L"]
    assert w["players_kept"] == [0]
    assert verdict.coverage["checked"] >= 1
    assert replay_witness(verdict, ex3_cons)


def test_cocons_example4(ex4_class):
    bad = check_axiom("cocons", "ex4_phi", ex4_class)
    assert bad.violated
    assert replay_witness(bad, ex4_class)
    assert check_axiom("mc", "ex4_phi", ex4_class).passed
    good = check_axiom("cocons", "ex4_phi_prime", ex4_class)
    assert good.passed
    assert check_axiom("mc", "ex4_phi_prime", ex4_class).violated


def test_ciis_example5(ex5_class):
    assert check_axiom("ciis", "ex5_phi", ex5_class).passed


def test_cons_coverage_counts_skips(ex2_dclosed):
    # the d-closure holds no player-reduced games, so nothing is checkable
    verdict = check_axiom("cons", "nash", ex2_dclosed)
    assert verdict.passed
    assert verdict.coverage["checked"] == 0
    assert verdict.coverage["skipped"] > 0


def test_ciis_vacuous_profiles_are_flagged(ex3_cons):
    verdict = check_axiom("ciis", "empty", ex3_cons)
    assert verdict.passed
    assert verdict.coverage["vacuous"] > 0


@pytest.mark.parametrize(
    "axiom,concept,tamper",
    [
        pytest.param(
            "cons",
            "parity_ne",
            lambda w: {**w, "restricted_profile": ["nope"]},
            id="cons-restricted_profile",
        ),
        pytest.param(
            "cons",
            "parity_ne",
            lambda w: {**w, "players_kept": []},
            id="cons-no_players_kept",
        ),
        pytest.param(
            "cocons",
            "strong_nash",
            lambda w: {**w, "subgroups": w["subgroups"][:1]},
            id="cocons-subgroup_dropped",
        ),
    ],
)
def test_tampered_witness_does_not_replay(axiom, concept, tamper, ex3_cons):
    verdict = check_axiom(axiom, concept, ex3_cons)
    assert replay_witness(verdict, ex3_cons)
    tampered = tamper(verdict.witness)
    assert tampered != verdict.witness
    forged = AxiomVerdict(axiom, concept, "violated", witness=tampered)
    assert replay_witness(forged, ex3_cons) is False


def test_unknown_ids(ex2_dclosed):
    with pytest.raises(ValueError):
        check_axiom("nope", "nash", ex2_dclosed)


def test_domain_error_names_offending_game(ex4_class):
    with pytest.raises(ConceptDomainError) as err:
        check_axiom("mc", "ex5_phi", ex4_class)
    assert "[game " in str(err.value)


# ----------------------------------------------------------------------
# cross-checks against the naive double-loop scans
# ----------------------------------------------------------------------

SCAN_CASES = [
    ("iis", "nash"),
    ("iis", "ne_indifference_closure"),
    ("iis", "strong_nash"),
    ("mc", "nash"),
    ("mc", "strong_nash"),
    ("mc", "ne_indifference_closure"),
    ("isds", "nash"),
    ("isds", "all_profiles"),
    ("jo", "nash"),
    ("jo", "empty"),
    ("cons", "nash"),
    ("cons", "parity_ne"),
    ("cocons", "nash"),
    ("ciis", "nash"),
    ("ciis", "empty"),
]


@pytest.mark.parametrize("axiom,concept", SCAN_CASES)
def test_checkers_agree_with_naive_scans(
    axiom, concept, pd_dclosed, ex2_dclosed, ex3_cons, ex5_class, chain_strict
):
    for cls in (pd_dclosed, ex2_dclosed, ex3_cons, ex5_class, chain_strict):
        got = check_axiom(axiom, concept, cls).result
        want = naive_check(axiom, concept, list(cls))
        assert got == want, f"{axiom}/{concept} disagrees on a class"


def test_mc_implies_ciis_on_all_classes(
    pd_dclosed, ex2_dclosed, ex3_cons, ex4_class, ex5_class, cube_dclosed, chain_strict
):
    classes = (
        pd_dclosed,
        ex2_dclosed,
        ex3_cons,
        ex4_class,
        ex5_class,
        cube_dclosed,
        chain_strict,
    )
    for cls in classes:
        for concept in CONCEPT_IDS:
            try:
                mc = check_axiom("mc", concept, cls)
                ciis = check_axiom("ciis", concept, cls)
            except ConceptDomainError:
                continue
            if mc.passed:
                assert ciis.passed


def test_all_violated_verdicts_replay(
    pd_dclosed, ex2_dclosed, ex3_cons, ex4_class, ex5_class, chain_strict
):
    axioms = ("iis", "mc", "isds", "jo", "cons", "cocons", "ciis")
    classes = (pd_dclosed, ex2_dclosed, ex3_cons, ex4_class, ex5_class, chain_strict)
    replayed = 0
    for cls in classes:
        for concept in CONCEPT_IDS:
            for axiom in axioms:
                try:
                    verdict = check_axiom(axiom, concept, cls)
                except ConceptDomainError:
                    continue
                if verdict.violated:
                    assert replay_witness(verdict, cls), (
                        axiom,
                        concept,
                    )
                    replayed += 1
    assert replayed > 10
