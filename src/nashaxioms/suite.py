"""The full reproduction suite behind the ``reproduce`` CLI command.

Every expectation the bundled examples and classes are known to
satisfy is checked and rendered as one fixed-format line, so the
output is byte-stable across runs.  Exit status of the CLI command is
derived from the returned rows.
"""

from __future__ import annotations

from dataclasses import dataclass

from .axioms import AxiomVerdict, _record, check_axiom, replay_witness
from .closures import NAMED_CLASSES, GameClass, Provenance, build_named_class
from .concepts import CONCEPT_IDS, ConceptDomainError, eval_concept
from .fixtures import fixture_game
from .oracles import nash_bruteforce
from .theorems import lemma1a_witness, lemma1b_construct, verify_one_player_lemma, verify_theorem1

#: Logical independence of the four axioms: per concept other than Nash,
#: the class on which it breaks exactly one of them, and that axiom.
_INDEPENDENCE = (
    ("empty", "pd_dclosed", "jo"),
    ("all_profiles", "pd_dclosed", "isds"),
    ("strong_nash", "ex2_dclosed", "mc"),
    ("ne_indifference_closure", "ex2_dclosed", "iis"),
)

#: The examples of the literature: concept, class, axiom, whether the
#: concept passes it there, and the profile a failure's witness names, if
#: it is pinned.
_LITERATURE = (
    ("parity_ne", "ex3_cons", "iis", True, None),
    ("parity_ne", "ex3_cons", "cons", False, ("U", "L")),
    ("ex4_phi", "ex4", "mc", True, None),
    ("ex4_phi", "ex4", "cocons", False, None),
    ("ex4_phi_prime", "ex4", "cocons", True, None),
    ("ex4_phi_prime", "ex4", "mc", False, None),
    ("ex5_phi", "ex5", "ciis", True, None),
    ("ex5_phi", "ex5", "mc", False, None),
)


@dataclass
class Expectation:
    section: str
    name: str
    ok: bool
    detail: str = ""

    def to_record(self) -> dict:
        return _record(self)


def _seed_witness(verdict: AxiomVerdict, cls: GameClass, profile, *strategies) -> bool:
    """True when ``verdict``'s witness names a seed of ``cls`` and
    ``profile``, and the reductions it names are members with, between
    them, exactly these strategies (a non-member reads as None)."""
    w = verdict.witness or {}
    keys = ("reduction", "reduction_a", "reduction_b")
    named = {getattr(cls.get(w[k]), "strategies", None) for k in keys if k in w}
    return (
        cls.provenance.get(w.get("game")) == Provenance("seed")
        and w.get("profile") == list(profile)
        and named == set(strategies)
    )


def run_suite() -> list[Expectation]:
    rows: list[Expectation] = []
    recorded: list[tuple[AxiomVerdict, GameClass]] = []

    def expect(section: str, name: str, ok: bool, detail: str = "") -> None:
        rows.append(Expectation(section, name, bool(ok), detail))

    def checked(axiom: str, concept: str, cls: GameClass) -> AxiomVerdict:
        verdict = check_axiom(axiom, concept, cls)
        recorded.append((verdict, cls))
        return verdict

    ex2, ex5 = fixture_game("ex2"), fixture_game("ex5")
    classes = {name: build_named_class(name) for name in NAMED_CLASSES}

    # 1. equilibrium sets of the bundled games, against the oracle
    sec = "nash-sets"
    ne2, ne5 = eval_concept("nash", ex2), eval_concept("nash", ex5)
    expect(
        sec,
        "nash(ex2) == {(U,L),(D,R)}",
        ex2.label_set(ne2) == {("U", "L"), ("D", "R")},
    )
    expect(
        sec,
        "nash(ex5) == {(U,L),(C,R),(D,L)}",
        ex5.label_set(ne5) == {("U", "L"), ("C", "R"), ("D", "L")},
    )
    expect(sec, "oracle agrees on ex2", ne2 == nash_bruteforce(ex2))
    expect(sec, "oracle agrees on ex5", ne5 == nash_bruteforce(ex5))

    # 2. forward direction of the characterization on d-closed classes
    sec = "theorem1-forward"
    for cname in ("pd_dclosed", "ex2_dclosed", "ex5_dclosed"):
        report = verify_theorem1(classes[cname])
        for axiom, verdict in report.verdicts.items():
            recorded.append((verdict, classes[cname]))
            expect(sec, f"nash passes {axiom} on {cname}", verdict.passed)
        expect(sec, f"oracle agreement on {cname}", report.oracle_agreement)

    # 3. logical independence of the four axioms
    sec = "independence"
    verdicts: dict[tuple[str, str], AxiomVerdict] = {}
    for concept, cname, fails in _INDEPENDENCE:
        for axiom in ("iis", "mc", "isds", "jo"):
            verdict = checked(axiom, concept, classes[cname])
            verdicts[concept, axiom] = verdict
            want = "violated" if axiom == fails else "pass"
            expect(
                sec,
                f"{concept} {axiom} on {cname}: expect {want}",
                verdict.result == want,
            )
    expect(
        sec,
        "empty/jo witness is (D,D) in the dilemma seed",
        _seed_witness(verdicts["empty", "jo"], classes["pd_dclosed"], ("D", "D")),
    )
    expect(
        sec,
        "strong_nash/mc witness is (D,R) merged from {U,D}x{R} and {D}x{L,R}",
        _seed_witness(
            verdicts["strong_nash", "mc"],
            classes["ex2_dclosed"],
            ("D", "R"),
            (("U", "D"), ("R",)),
            (("D",), ("L", "R")),
        ),
    )
    expect(
        sec,
        "ne_indifference_closure/iis witness is (D,L) lost in {U,D}x{L}",
        _seed_witness(
            verdicts["ne_indifference_closure", "iis"],
            classes["ex2_dclosed"],
            ("D", "L"),
            (("U", "D"), ("L",)),
        ),
    )

    # 4. player-reduction and proper-reduction axioms
    sec = "literature-axioms"
    for concept, cname, axiom, passes, profile in _LITERATURE:
        v = checked(axiom, concept, classes[cname])
        verb = "passes" if passes else "fails"
        expect(
            sec,
            f"{concept} {verb} {axiom} on {cname}",
            v.passed if passes else v.violated,
        )
        if profile:
            expect(
                sec,
                f"{concept}/{axiom} witness profile is ({','.join(profile)})",
                bool(v.witness) and v.witness.get("profile") == list(profile),
            )

    # 5. the expansion axiom implies the proper-reduction axiom
    sec = "mc-implies-ciis"
    for cname, cls in classes.items():
        pairs = []
        for concept in CONCEPT_IDS:
            try:
                mc = checked("mc", concept, cls)
                pairs.append((mc, checked("ciis", concept, cls)))
            except ConceptDomainError:
                continue
        expect(
            sec,
            f"mc pass forces ciis pass on {cname}",
            all(ciis.passed for mc, ciis in pairs if mc.passed),
            detail=f"{len(pairs)} concepts",
        )

    # 6. equilibrium reconstruction gadget over whole classes
    sec = "construction-b"
    for cname in ("ex2_dclosed", "pd_dclosed", "cube_dclosed"):
        # only each report's outcome is kept: holding the reports themselves
        # until the end makes the garbage collector run more often
        passed = [
            lemma1b_construct(game, s).all_passed
            for game in classes[cname]
            for s in sorted(eval_concept("nash", game))
        ]
        expect(
            sec,
            f"all equilibria of {cname} reconstruct",
            all(passed),
            detail=f"{len(passed)} cases",
        )

    # 7. non-equilibrium solutions name their broken axiom
    sec = "construction-a"
    for concept, cname, axiom in _INDEPENDENCE:
        reports = [
            lemma1a_witness(concept, game, s)
            for game in classes[cname]
            for s in sorted(eval_concept(concept, game) - eval_concept("nash", game))
        ]
        expect(
            sec,
            f"{concept} on {cname}: every extra solution breaks {axiom}",
            all(r.all_passed and r.violated_axioms == [axiom] for r in reports),
            detail=f"{len(reports)} cases",
        )

    # 8. one-player strictly closed class
    sec = "one-player"
    report = verify_one_player_lemma(classes["chain_strict"])
    nash_res = next(r for r in report.results if r.concept == "nash")
    expect(
        sec,
        "nash passes isds and jo on the chain class",
        nash_res.isds_pass and nash_res.jo_pass,
    )
    disagreeing = [
        r for r in report.results if not r.skipped and not r.agrees_with_nash
    ]
    expect(
        sec,
        "every non-equilibrium concept fails isds or jo",
        all(not (r.isds_pass and r.jo_pass) for r in disagreeing),
        detail=f"{len(disagreeing)} concepts differ from nash",
    )
    expect(
        sec,
        "single-removal replays and inclusions are consistent",
        report.all_consistent,
    )

    # 9. every violated verdict re-verifies from its witness
    sec = "witness-replay"
    violated = [(v, cls) for v, cls in recorded if v.violated]
    expect(
        sec,
        "all violated verdicts replay",
        all(replay_witness(v, cls) for v, cls in violated),
        detail=f"{len(violated)} witnesses",
    )

    return rows


def render(rows: list[Expectation]) -> str:
    lines = []
    for row in rows:
        status = "ok  " if row.ok else "FAIL"
        detail = f"  [{row.detail}]" if row.detail else ""
        lines.append(f"{status}  {row.section:<18} {row.name}{detail}")
    failed = sum(1 for r in rows if not r.ok)
    lines.append(
        f"SUMMARY: {len(rows)} expectations, {len(rows) - failed} ok, "
        f"{failed} failed"
    )
    return "\n".join(lines) + "\n"
