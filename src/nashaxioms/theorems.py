"""Mechanized constructive arguments behind the characterization.

Two gadget builders turn a game and a profile into the short chains of
reductions that the characterization's proof manipulates, re-verifying
every structural claim on the concrete games.  Two verifiers audit a
class (d-closed, or one-player strictly closed) and confirm the
equivalence between axiom compliance and agreement with the Nash
correspondence on it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .axioms import AxiomVerdict, _record, check_axiom
from .closures import GameClass, _cut_plan
from .concepts import (
    CONCEPT_IDS,
    ConceptDomainError,
    eval_concept,
    jointly_optimal,
)
from .games import (
    DEFAULT_BUDGET,
    Game,
    Profile,
    _fact,
    is_cut,
    is_reduction,
    is_strict_reduction,
    merge,
    restrict,
)
from .oracles import nash_bruteforce


@dataclass
class Assertion:
    name: str
    passed: bool
    detail: str = ""


@dataclass
class ConstructionReport:
    """A gadget construction plus its re-verified proof obligations."""

    game: str
    profile: tuple[str, ...]
    constructed: list[tuple[str, Game]] = field(default_factory=list)
    assertions: list[Assertion] = field(default_factory=list)
    violated_axioms: list[str] = field(default_factory=list)

    @property
    def all_passed(self) -> bool:
        return all(a.passed for a in self.assertions)

    def check(self, name: str, passed: bool, detail: str = "") -> None:
        self.assertions.append(Assertion(name, bool(passed), detail))

    def lines(self) -> list[str]:
        out = [f"game {self.game[:12]} profile ({','.join(self.profile)})"]
        for role, g in self.constructed:
            dims = "x".join(str(k) for k in g.shape)
            out.append(f"  built {role}: {dims} game {g.canonical_id[:12]}")
        for a in self.assertions:
            status = "ok " if a.passed else "FAIL"
            detail = f"  [{a.detail}]" if a.detail else ""
            out.append(f"  {status} {a.name}{detail}")
        if self.violated_axioms:
            out.append(f"  violated axioms: {', '.join(self.violated_axioms)}")
        return out

    def to_record(self) -> dict:
        return {
            "kind": "construction",
            "game": self.game,
            "profile": list(self.profile),
            "constructed": [
                {"role": role, "game": g.canonical_id}
                for role, g in self.constructed
            ],
            "assertions": [_record(a) for a in self.assertions],
            "violated_axioms": list(self.violated_axioms),
            "result": "pass" if self.all_passed else "violated",
        }


def _coerce_profile(game: Game, profile) -> Profile:
    if isinstance(profile, Profile):
        profile.linear_index(game.shape)  # raises unless the profile fits
        return profile
    p = None
    if not isinstance(profile, str):  # a string is not split into labels
        try:
            p = game.profile_from_labels(tuple(profile))
        except TypeError:  # not a sequence of labels, such as an int
            pass
    if p is None:
        raise ValueError(f"profile {profile!r} does not fit the game")
    return p


def lemma1a_witness(concept: str, game: Game, profile) -> ConstructionReport:
    """Exhibit which contraction axiom a non-equilibrium solution breaks.

    Given a profile that the concept selects but that is not a Nash
    equilibrium, pick the order-minimal profitable deviation (j, t),
    build the two-strategy reduction keeping {s_j, t} against the
    pinned opponents and its one-profile strict reduction, then test
    the concept against joint optimality on the small game, invariance
    across the strict reduction, and solution survival into the
    two-strategy game.  At least one of the three must fail.
    """
    s = _coerce_profile(game, profile)
    phi_g = eval_concept(concept, game)
    if s not in phi_g:
        raise ValueError("profile is not selected by the concept on this game")
    if s in eval_concept("nash", game):
        raise ValueError(
            "profile is a Nash equilibrium; the construction needs a "
            "profitable unilateral deviation"
        )
    j = t = None
    for i in range(game.player_count):
        for cand in range(game.shape[i]):
            if game.rank(i, s.replace(i, cand)) < game.rank(i, s):
                j, t = i, cand
                break
        if j is not None:
            break
    assert j is not None  # guaranteed by the non-equilibrium precondition

    deviated = game.labels_of(s.replace(j, t))
    spec_single = [(lab,) for lab in deviated]
    spec_pair = list(zip(game.labels_of(s), deviated))
    g_pair = restrict(game, spec_pair)
    g_single = restrict(game, spec_single)

    report = ConstructionReport(game.canonical_id, game.labels_of(s))
    report.constructed.append(("G'", g_pair))
    report.constructed.append(("G''", g_single))

    report.check("G' is a reduction of G", is_reduction(g_pair, game))
    report.check(
        "G' has a dummy or quasi-dummy player",
        is_cut(game, spec_pair, 1) or is_cut(game, spec_pair, 2),
    )
    report.check("G'' is a reduction of G", is_reduction(g_single, game))
    report.check("G'' has a dummy player", is_cut(game, spec_single, 1))
    report.check(
        "G'' is a strict reduction of G'", is_strict_reduction(g_single, g_pair)
    )
    unique = next(iter(g_single.profiles()))
    report.check(
        "the single profile of G'' is jointly optimal",
        _fact("jointly_optimal", g_single, jointly_optimal) == frozenset({unique}),
    )

    jo_ok = unique in eval_concept(concept, g_single)
    phi_pair = g_pair.label_set(eval_concept(concept, g_pair))
    phi_single = g_single.label_set(eval_concept(concept, g_single))
    isds_ok = phi_pair == phi_single
    iis_ok = game.labels_of(s) in phi_pair
    report.violated_axioms = [
        name
        for name, ok in (("jo", jo_ok), ("isds", isds_ok), ("iis", iis_ok))
        if not ok
    ]
    report.check(
        "at least one of jo/isds/iis fails for the concept",
        bool(report.violated_axioms),
        detail=f"jo={jo_ok} isds={isds_ok} iis={iis_ok}",
    )
    return report


def lemma1b_construct(game: Game, profile) -> ConstructionReport:
    """Rebuild a Nash equilibrium through single-free-player reductions.

    For an equilibrium s of an n-player game (n at least 2), build the
    n reductions that free one player at a time while pinning everyone
    else to s, then merge them back step by step.  Verifies that every
    single-free-player game is a dummy reduction containing s as a
    jointly optimal profile, that intermediate merges are dummy
    reductions, that the merge algebra is the player-wise union, and
    that the final merge equals the original game.
    """
    s = _coerce_profile(game, profile)
    n = game.player_count
    if n < 2:
        raise ValueError(
            "construction needs at least two players; for one-player games "
            "membership follows from joint optimality alone"
        )
    if s not in eval_concept("nash", game):
        raise ValueError("profile is not a Nash equilibrium of the game")

    labels = game.labels_of(s)
    report = ConstructionReport(game.canonical_id, labels)

    free_specs = []
    for k in range(n):
        spec = [game.strategies[i] if i == k else (labels[i],) for i in range(n)]
        free_specs.append(spec)
        g_k = restrict(game, spec)
        role = f"G^{k + 1}"
        report.constructed.append((role, g_k))
        report.check(f"{role} is a reduction of G", is_reduction(g_k, game))
        report.check(f"{role} has a dummy player", is_cut(game, spec, 1))
        mapped = g_k.profile_from_labels(labels)
        report.check(f"s survives in {role}", mapped is not None)
        report.check(
            f"s is jointly optimal in {role}",
            mapped in _fact("jointly_optimal", g_k, jointly_optimal),
        )

    prev_spec = free_specs[0]
    for ell in range(1, n):
        union_spec = [a + b for a, b in zip(prev_spec, free_specs[ell])]
        h_ell = restrict(game, union_spec)
        role = f"H^{ell}"
        report.constructed.append((role, h_ell))
        report.check(
            f"{role} equals the merge of the previous stage with G^{ell + 1}",
            merge(game, prev_spec, free_specs[ell]) == h_ell,
        )
        report.check(
            f"s survives in {role}",
            h_ell.profile_from_labels(labels) is not None,
        )
        if ell <= n - 2:
            report.check(
                f"{role} is a reduction of G with a dummy player",
                is_reduction(h_ell, game) and is_cut(game, union_spec, 1),
            )
        prev_spec = h_ell.strategies
    report.check(f"H^{n - 1} equals G", h_ell == game)
    return report


@dataclass
class TheoremOneReport:
    """Forward-direction audit of the characterization on one class."""

    class_size: int
    verdicts: dict[str, AxiomVerdict]
    oracle_agreement: bool

    @property
    def all_passed(self) -> bool:
        return self.oracle_agreement and all(
            v.passed for v in self.verdicts.values()
        )

    def to_record(self, class_name: str = "") -> dict:
        return {
            "kind": "theorem1-forward",
            "class": class_name,
            "class_size": self.class_size,
            "checks": [
                v.to_record(class_name) for v in self.verdicts.values()
            ],
            "oracle_agreement": self.oracle_agreement,
            "result": "pass" if self.all_passed else "violated",
        }


def _audit_closed(cls: GameClass, flavor: str, closed: str, reduction: str) -> None:
    """Raise unless each spec of each member's ``flavor`` cut plan
    (``_cut_plan``) names one of its reductions (``reduction_bits``): the one
    with the spec's labels (``by_strategies``) is its restriction.  Each spec
    names a distinct member, so plans read at the class size or
    ``DEFAULT_BUDGET``, if larger, refuse no closed class; a refused plan
    raises ``BudgetExceededError`` and is not kept."""
    by_strategies = cls.by_strategies()
    for game in cls:
        within = cls.reduction_bits(game)
        for labels, _ in _cut_plan(game, flavor, max(DEFAULT_BUDGET, len(cls))):
            if not by_strategies.get(labels, 0) & within:
                raise ValueError(
                    f"class is not {closed}: game {game.canonical_id[:12]} "
                    f"is missing the {reduction} with subsets {labels}"
                )


def audit_d_closed(cls: GameClass) -> None:
    """Raise unless every dummy/quasi-dummy reduction of every member
    is itself a member."""
    _audit_closed(cls, "dummy-or-quasi", "d-closed", "reduction")


def audit_strictly_closed(cls: GameClass) -> None:
    """Raise unless every strict reduction of every member is a member."""
    _audit_closed(cls, "strict", "strictly closed", "strict reduction")


def verify_theorem1(cls: GameClass) -> TheoremOneReport:
    """Run the four axiom checkers on the Nash correspondence over a
    d-closed class and cross-check every equilibrium set against the
    brute-force oracle, whose equilibria are worked out once per game
    content (``_fact``)."""
    audit_d_closed(cls)
    verdicts = {
        axiom: check_axiom(axiom, "nash", cls)
        for axiom in ("iis", "mc", "isds", "jo")
    }
    oracle_ok = all(
        eval_concept("nash", g) == _fact("nash_bruteforce", g, nash_bruteforce)
        for g in cls
    )
    return TheoremOneReport(len(cls), verdicts, oracle_ok)


@dataclass
class ConceptOnePlayerResult:
    concept: str
    skipped: bool = False
    agrees_with_nash: bool = False
    isds_pass: bool = False
    jo_pass: bool = False
    refinement_holds: bool = True
    coarsening_holds: bool = True
    replays: list[ConstructionReport] = field(default_factory=list)

    @property
    def consistent(self) -> bool:
        """The class-level equivalence: both axioms hold iff the concept
        is the Nash correspondence on the class."""
        if self.skipped:
            return True
        if self.isds_pass and not self.refinement_holds:
            return False
        if self.jo_pass and not self.coarsening_holds:
            return False
        if (self.isds_pass and self.jo_pass) != self.agrees_with_nash:
            return False
        return all(r.all_passed for r in self.replays)


@dataclass
class OnePlayerLemmaReport:
    class_size: int
    results: list[ConceptOnePlayerResult]

    @property
    def all_consistent(self) -> bool:
        return all(r.consistent for r in self.results)

    def lines(self) -> list[str]:
        out = [f"one-player strictly closed class of {self.class_size} games"]
        for r in self.results:
            if r.skipped:
                out.append(f"  {r.concept}: skipped (domain)")
                continue
            status = "ok " if r.consistent else "FAIL"
            out.append(
                f"  {status} {r.concept}: isds={'pass' if r.isds_pass else 'fail'} "
                f"jo={'pass' if r.jo_pass else 'fail'} "
                f"nash-agreement={'yes' if r.agrees_with_nash else 'no'} "
                f"replays={len(r.replays)}"
            )
        return out

    def to_record(self, class_name: str = "") -> dict:
        return {
            "kind": "one-player-lemma",
            "class": class_name,
            "class_size": self.class_size,
            "concepts": [
                {
                    "concept": r.concept,
                    "skipped": r.skipped,
                    "isds": "pass" if r.isds_pass else "violated",
                    "jo": "pass" if r.jo_pass else "violated",
                    "agrees_with_nash": r.agrees_with_nash,
                    "replays": [rep.to_record() for rep in r.replays],
                }
                for r in self.results
            ],
            "result": "pass" if self.all_consistent else "violated",
        }


def verify_one_player_lemma(cls: GameClass) -> OnePlayerLemmaReport:
    """Audit the one-player simplification on a strictly closed class.

    For every registered concept: if the invariance checker passes, the
    concept must refine the Nash correspondence on every member; if the
    joint-optimality checker passes, it must contain it.  For every
    selected non-maximal strategy, the one-strategy-removal gadget is
    replayed and must exhibit the invariance violation.
    """
    for game in cls:
        if game.player_count != 1:
            raise ValueError(
                f"class contains a {game.player_count}-player game; the "
                "verifier is for one-player classes"
            )
    audit_strictly_closed(cls)

    ne = {g.canonical_id: eval_concept("nash", g) for g in cls}
    results = []
    for concept in CONCEPT_IDS:
        res = ConceptOnePlayerResult(concept)
        try:
            values = {g.canonical_id: eval_concept(concept, g) for g in cls}
        except ConceptDomainError:
            res.skipped = True
            results.append(res)
            continue
        res.isds_pass = check_axiom("isds", concept, cls).passed
        res.jo_pass = check_axiom("jo", concept, cls).passed
        res.refinement_holds = all(values[c] <= ne[c] for c in ne)
        res.coarsening_holds = all(ne[c] <= values[c] for c in ne)
        res.agrees_with_nash = res.refinement_holds and res.coarsening_holds
        for game in cls:
            for s in sorted(values[game.canonical_id] - ne[game.canonical_id]):
                res.replays.append(_replay_single_removal(concept, game, s))
        results.append(res)
    return OnePlayerLemmaReport(len(cls), results)


def _replay_single_removal(concept: str, game: Game, s: Profile) -> ConstructionReport:
    """One-player gadget: removing a selected non-maximal strategy is a
    strict reduction, and the concept's solution set changes across it."""
    report = ConstructionReport(game.canonical_id, game.labels_of(s))
    removed = game.strategies[0][s.indices[0]]
    keep = tuple(lab for lab in game.strategies[0] if lab != removed)
    report.check("a strategy remains after the removal", bool(keep))
    if not keep:
        return report
    reduced = restrict(game, (keep,))
    report.constructed.append(("G'", reduced))
    report.check(
        f"removing {removed!r} is a strict reduction",
        is_strict_reduction(reduced, game),
    )
    phi_parent = game.label_set(eval_concept(concept, game))
    phi_reduced = reduced.label_set(eval_concept(concept, reduced))
    report.check(
        "the solution set changes across the strict reduction",
        phi_parent != phi_reduced,
        detail=f"removed strategy {removed!r} was selected",
    )
    return report
