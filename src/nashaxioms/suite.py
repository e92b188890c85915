"""The full reproduction suite behind the ``reproduce`` CLI command.

Every expectation the bundled examples and classes are known to
satisfy is checked and rendered as one fixed-format line, so the
output is byte-stable across runs.  Exit status of the CLI command is
derived from the returned rows.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import fixtures
from .axioms import AxiomVerdict, check_axiom, replay_witness
from .closures import GameClass, build_named_class, d_closure, strict_closure
from .concepts import CONCEPT_IDS, ConceptDomainError, eval_concept, nash
from .games import Game
from .oracles import nash_bruteforce
from .theorems import lemma1a_witness, lemma1b_construct, verify_one_player_lemma, verify_theorem1


@dataclass
class Expectation:
    section: str
    name: str
    ok: bool
    detail: str = ""

    def to_record(self) -> dict:
        return {
            "section": self.section,
            "name": self.name,
            "ok": self.ok,
            "detail": self.detail,
        }


def _labels(game: Game, profiles) -> set[tuple[str, ...]]:
    return {game.labels_of(p) for p in profiles}


def run_suite() -> list[Expectation]:
    rows: list[Expectation] = []
    recorded: list[tuple[AxiomVerdict, GameClass]] = []

    def expect(section: str, name: str, ok: bool, detail: str = "") -> None:
        rows.append(Expectation(section, name, bool(ok), detail))

    def checked(axiom: str, concept: str, cls: GameClass) -> AxiomVerdict:
        verdict = check_axiom(axiom, concept, cls)
        recorded.append((verdict, cls))
        return verdict

    # ------------------------------------------------------------------
    # bundled games and classes
    # ------------------------------------------------------------------
    ex2 = fixtures.safe_coordination()
    ex5 = fixtures.duplicate_row_game()
    pd = fixtures.prisoners_dilemma()
    cube = fixtures.three_player_cube()
    chain = fixtures.one_player_chain()

    classes: dict[str, GameClass] = {
        "pd_dclosed": build_named_class("pd_dclosed"),
        "ex2_dclosed": build_named_class("ex2_dclosed"),
        "ex5_dclosed": d_closure([ex5]),
        "ex3_cons": build_named_class("ex3_cons"),
        "ex4": build_named_class("ex4"),
        "ex5": build_named_class("ex5"),
        "cube_dclosed": d_closure([cube]),
        "chain_strict": strict_closure([chain]),
    }

    # ------------------------------------------------------------------
    # 1. equilibrium sets of the bundled games, against the oracle
    # ------------------------------------------------------------------
    sec = "nash-sets"
    expect(
        sec,
        "nash(ex2) == {(U,L),(D,R)}",
        _labels(ex2, nash(ex2)) == {("U", "L"), ("D", "R")},
    )
    expect(
        sec,
        "nash(ex5) == {(U,L),(C,R),(D,L)}",
        _labels(ex5, nash(ex5)) == {("U", "L"), ("C", "R"), ("D", "L")},
    )
    expect(sec, "oracle agrees on ex2", nash(ex2) == nash_bruteforce(ex2))
    expect(sec, "oracle agrees on ex5", nash(ex5) == nash_bruteforce(ex5))

    # ------------------------------------------------------------------
    # 2. forward direction of the characterization on d-closed classes
    # ------------------------------------------------------------------
    sec = "theorem1-forward"
    for cname in ("pd_dclosed", "ex2_dclosed", "ex5_dclosed"):
        report = verify_theorem1(classes[cname])
        for axiom, verdict in report.verdicts.items():
            recorded.append((verdict, classes[cname]))
            expect(sec, f"nash passes {axiom} on {cname}", verdict.passed)
        expect(sec, f"oracle agreement on {cname}", report.oracle_agreement)

    # ------------------------------------------------------------------
    # 3. logical independence of the four axioms
    # ------------------------------------------------------------------
    sec = "independence"
    signature = [
        ("empty", "pd_dclosed", {"jo"}),
        ("all_profiles", "pd_dclosed", {"isds"}),
        ("strong_nash", "ex2_dclosed", {"mc"}),
        ("ne_indifference_closure", "ex2_dclosed", {"iis"}),
    ]
    verdicts_by_key: dict[tuple[str, str], AxiomVerdict] = {}
    for concept, cname, fails in signature:
        for axiom in ("iis", "mc", "isds", "jo"):
            verdict = checked(axiom, concept, classes[cname])
            verdicts_by_key[(concept, axiom)] = verdict
            want = "violated" if axiom in fails else "pass"
            expect(
                sec,
                f"{concept} {axiom} on {cname}: expect {want}",
                verdict.result == want,
            )

    w = verdicts_by_key[("empty", "jo")].witness or {}
    expect(
        sec,
        "empty/jo witness is (D,D) in the dilemma seed",
        w.get("game") == pd.canonical_id and w.get("profile") == ["D", "D"],
    )

    w = verdicts_by_key[("strong_nash", "mc")].witness or {}
    cls2 = classes["ex2_dclosed"]
    pair_ok = False
    if w:
        ga, gb = cls2.get(w["reduction_a"]), cls2.get(w["reduction_b"])
        want_pair = {
            (("U", "D"), ("R",)),
            (("D",), ("L", "R")),
        }
        pair_ok = (
            w.get("game") == ex2.canonical_id
            and w.get("profile") == ["D", "R"]
            and ga is not None
            and gb is not None
            and {ga.strategies, gb.strategies} == want_pair
        )
    expect(
        sec,
        "strong_nash/mc witness is (D,R) merged from {U,D}x{R} and {D}x{L,R}",
        pair_ok,
    )

    w = verdicts_by_key[("ne_indifference_closure", "iis")].witness or {}
    red_ok = False
    if w:
        red = cls2.get(w["reduction"])
        red_ok = (
            w.get("game") == ex2.canonical_id
            and w.get("profile") == ["D", "L"]
            and red is not None
            and red.strategies == (("U", "D"), ("L",))
        )
    expect(
        sec,
        "ne_indifference_closure/iis witness is (D,L) lost in {U,D}x{L}",
        red_ok,
    )

    # ------------------------------------------------------------------
    # 4. player-reduction and proper-reduction axioms
    # ------------------------------------------------------------------
    sec = "literature-axioms"
    v = checked("iis", "parity_ne", classes["ex3_cons"])
    expect(sec, "parity_ne passes iis on ex3_cons", v.passed)
    v = checked("cons", "parity_ne", classes["ex3_cons"])
    expect(sec, "parity_ne fails cons on ex3_cons", v.violated)
    expect(
        sec,
        "parity_ne/cons witness profile is (U,L)",
        bool(v.witness) and v.witness.get("profile") == ["U", "L"],
    )
    v = checked("mc", "ex4_phi", classes["ex4"])
    expect(sec, "ex4_phi passes mc on ex4", v.passed)
    v = checked("cocons", "ex4_phi", classes["ex4"])
    expect(sec, "ex4_phi fails cocons on ex4", v.violated)
    v = checked("cocons", "ex4_phi_prime", classes["ex4"])
    expect(sec, "ex4_phi_prime passes cocons on ex4", v.passed)
    v = checked("mc", "ex4_phi_prime", classes["ex4"])
    expect(sec, "ex4_phi_prime fails mc on ex4", v.violated)
    v = checked("ciis", "ex5_phi", classes["ex5"])
    expect(sec, "ex5_phi passes ciis on ex5", v.passed)
    v = checked("mc", "ex5_phi", classes["ex5"])
    expect(sec, "ex5_phi fails mc on ex5", v.violated)

    # ------------------------------------------------------------------
    # 5. the expansion axiom implies the proper-reduction axiom
    # ------------------------------------------------------------------
    sec = "mc-implies-ciis"
    for cname, cls in classes.items():
        implication_ok = True
        tested = 0
        for concept in CONCEPT_IDS:
            try:
                mc_verdict = checked("mc", concept, cls)
                ciis_verdict = checked("ciis", concept, cls)
            except ConceptDomainError:
                continue
            tested += 1
            if mc_verdict.passed and not ciis_verdict.passed:
                implication_ok = False
        expect(
            sec,
            f"mc pass forces ciis pass on {cname}",
            implication_ok,
            detail=f"{tested} concepts",
        )

    # ------------------------------------------------------------------
    # 6. equilibrium reconstruction gadget over whole classes
    # ------------------------------------------------------------------
    sec = "construction-b"
    for cname in ("ex2_dclosed", "pd_dclosed", "cube_dclosed"):
        cases = 0
        all_ok = True
        for game in classes[cname]:
            for s in sorted(nash(game)):
                cases += 1
                if not lemma1b_construct(game, s).all_passed:
                    all_ok = False
        expect(
            sec,
            f"all equilibria of {cname} reconstruct",
            all_ok,
            detail=f"{cases} cases",
        )

    # ------------------------------------------------------------------
    # 7. non-equilibrium solutions name their broken axiom
    # ------------------------------------------------------------------
    sec = "construction-a"
    for concept, cname, fails in signature:
        expected_axiom = next(iter(fails))
        cases = 0
        all_ok = True
        for game in classes[cname]:
            extras = sorted(eval_concept(concept, game) - nash(game))
            for s in extras:
                cases += 1
                report = lemma1a_witness(concept, game, s)
                if not report.all_passed:
                    all_ok = False
                if report.violated_axioms != [expected_axiom]:
                    all_ok = False
        expect(
            sec,
            f"{concept} on {cname}: every extra solution breaks {expected_axiom}",
            all_ok,
            detail=f"{cases} cases",
        )

    # ------------------------------------------------------------------
    # 8. one-player strictly closed class
    # ------------------------------------------------------------------
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

    # ------------------------------------------------------------------
    # 9. every violated verdict re-verifies from its witness
    # ------------------------------------------------------------------
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
