"""Exhaustive axiom checkers over finite game classes.

Each axiom is one scan: a generator that walks a class in its insertion
order (profiles in linear-index order, player subgroups in ascending
bitmask order) and yields a structured witness at every violation.
``check_axiom`` reports the first witness, or a pass; ``replay_witness``
reruns the same scan from the witness's game and looks for it again.

The contraction and expansion scans quantify only over games that are
present in the class; the player-reduction scans additionally count
how many quantifier instances were skipped because the reduced game is
absent.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Iterator

from .closures import GameClass
from .concepts import ConceptDomainError, eval_concept, jointly_optimal
from .games import (
    Game,
    Profile,
    is_reduction,
    is_strict_reduction,
    reduce_players,
)


@dataclass
class AxiomVerdict:
    """Outcome of one (axiom, concept, class) check.

    ``witness`` is present exactly when the result is ``violated`` and
    holds canonical game ids, profile labels, and the clause that
    failed.  ``coverage`` carries quantifier bookkeeping for the
    player-reduction and proper-reduction axioms.
    """

    axiom: str
    concept: str
    result: str
    witness: dict | None = None
    coverage: dict | None = None

    @property
    def violated(self) -> bool:
        return self.result == "violated"

    @property
    def passed(self) -> bool:
        return self.result == "pass"

    def to_record(self, class_name: str = "") -> dict:
        return {
            "axiom": self.axiom,
            "concept": self.concept,
            "class": class_name,
            "result": self.result,
            "witness": self.witness,
            "coverage": self.coverage,
        }


def _phi(concept: str, game: Game) -> frozenset[Profile]:
    try:
        return eval_concept(concept, game)
    except ConceptDomainError as exc:
        raise ConceptDomainError(
            f"{exc} [game {game.canonical_id[:12]}]"
        ) from exc


def _label_set(game: Game, profiles) -> frozenset[tuple[str, ...]]:
    return frozenset(game.labels_of(p) for p in profiles)


def _iis(
    concept: str, cls: GameClass, parents: Iterable[Game], tally: Counter
) -> Iterator[dict]:
    """Solutions survive into every reduction they belong to."""
    games = list(cls)
    for parent in parents:
        solutions = sorted(_phi(concept, parent))
        if not solutions:
            continue
        for cand in games:
            if not is_reduction(cand, parent):
                continue
            phi_cand = _phi(concept, cand)
            for s in solutions:
                labels = parent.labels_of(s)
                mapped = cand.profile_from_labels(labels)
                if mapped is None or mapped in phi_cand:
                    continue
                yield {
                    "game": parent.canonical_id,
                    "reduction": cand.canonical_id,
                    "profile": list(labels),
                    "clause": "solution of the game is lost in a "
                    "reduction containing it",
                }


def _union_is_full(parent: Game, a: Game, b: Game) -> bool:
    return all(
        set(a.strategies[i]) | set(b.strategies[i]) == set(parent.strategies[i])
        for i in range(parent.player_count)
    )


def _mc(
    concept: str, cls: GameClass, parents: Iterable[Game], tally: Counter
) -> Iterator[dict]:
    """Common solutions of two merging reductions solve the merge."""
    games = list(cls)
    for parent in parents:
        reductions = [g for g in games if is_reduction(g, parent)]
        if not reductions:
            continue
        phi_parent = _label_set(parent, _phi(concept, parent))
        for ga in reductions:
            phi_a = _label_set(ga, _phi(concept, ga))
            if not phi_a:
                continue
            for gb in reductions:
                if not _union_is_full(parent, ga, gb):
                    continue
                phi_b = _label_set(gb, _phi(concept, gb))
                common = sorted(phi_a & phi_b)
                for labels in common:
                    if labels not in phi_parent:
                        yield {
                            "game": parent.canonical_id,
                            "reduction_a": ga.canonical_id,
                            "reduction_b": gb.canonical_id,
                            "profile": list(labels),
                            "clause": "profile solves both merging "
                            "reductions but not the merged game",
                        }


def _isds(
    concept: str, cls: GameClass, parents: Iterable[Game], tally: Counter
) -> Iterator[dict]:
    """Strictly dominated removals leave the solution set unchanged."""
    games = list(cls)
    for parent in parents:
        for cand in games:
            if not is_strict_reduction(cand, parent):
                continue
            phi_parent = _label_set(parent, _phi(concept, parent))
            phi_cand = _label_set(cand, _phi(concept, cand))
            if phi_parent != phi_cand:
                yield {
                    "game": parent.canonical_id,
                    "reduction": cand.canonical_id,
                    "only_in_game": sorted(
                        list(x) for x in phi_parent - phi_cand
                    ),
                    "only_in_reduction": sorted(
                        list(x) for x in phi_cand - phi_parent
                    ),
                    "clause": "solution sets differ across a strict "
                    "reduction",
                }


def _jo(
    concept: str, cls: GameClass, parents: Iterable[Game], tally: Counter
) -> Iterator[dict]:
    """Profiles of weakly dominant strategies must be solutions."""
    for game in parents:
        phi_game = _phi(concept, game)
        for s in sorted(jointly_optimal(game)):
            if s not in phi_game:
                yield {
                    "game": game.canonical_id,
                    "profile": list(game.labels_of(s)),
                    "clause": "jointly optimal profile is not a solution",
                }


def _player_subgroups(n: int):
    """Non-empty proper player subsets, ascending bitmask order."""
    for mask in range(1, (1 << n) - 1):
        yield tuple(i for i in range(n) if mask >> i & 1)


def _cons(
    concept: str, cls: GameClass, parents: Iterable[Game], tally: Counter
) -> Iterator[dict]:
    """Restrictions of solutions solve the player-reduced games."""
    for game in parents:
        if game.player_count < 2:
            continue
        for s in sorted(_phi(concept, game)):
            for keep in _player_subgroups(game.player_count):
                reduced = reduce_players(game, keep, s)
                member = cls.get(reduced.canonical_id)
                if member is None:
                    tally["skipped"] += 1
                    continue
                tally["checked"] += 1
                restricted = Profile(tuple(s.indices[i] for i in keep))
                if restricted not in _phi(concept, member):
                    yield {
                        "game": game.canonical_id,
                        "player_reduced": member.canonical_id,
                        "profile": list(game.labels_of(s)),
                        "players_kept": list(keep),
                        "restricted_profile": list(
                            member.labels_of(restricted)
                        ),
                        "clause": "restriction of a solution is not a "
                        "solution of the player-reduced game",
                    }


def _cocons(
    concept: str, cls: GameClass, parents: Iterable[Game], tally: Counter
) -> Iterator[dict]:
    """A profile whose restrictions solve every available player-reduced
    game solves the game."""
    for game in parents:
        if game.player_count < 2:
            continue
        phi_game = _phi(concept, game)
        for s in game.profiles():
            if s in phi_game:
                continue
            available: list[tuple[tuple[int, ...], Game]] = []
            for keep in _player_subgroups(game.player_count):
                reduced = reduce_players(game, keep, s)
                member = cls.get(reduced.canonical_id)
                if member is not None:
                    available.append((keep, member))
            if not available:
                tally["vacuous"] += 1
                continue
            tally["checked"] += 1
            if all(
                Profile(tuple(s.indices[i] for i in keep))
                in _phi(concept, member)
                for keep, member in available
            ):
                yield {
                    "game": game.canonical_id,
                    "profile": list(game.labels_of(s)),
                    "subgroups": [
                        {
                            "players_kept": list(keep),
                            "game": member.canonical_id,
                        }
                        for keep, member in available
                    ],
                    "clause": "profile solves every available "
                    "player-reduced game yet not the game itself",
                }


def _ciis(
    concept: str, cls: GameClass, parents: Iterable[Game], tally: Counter
) -> Iterator[dict]:
    """A profile that solves every proper reduction containing it solves
    the game."""
    # The quantifier over proper reductions is read as non-vacuous: a
    # profile with no proper reduction present in the class cannot
    # trigger a violation, it is only counted in the coverage data.
    games = list(cls)
    for game in parents:
        if game.num_profiles < 3:
            continue
        phi_game = _phi(concept, game)
        proper = [
            g
            for g in games
            if g.canonical_id != game.canonical_id and is_reduction(g, game)
        ]
        for s in game.profiles():
            if s in phi_game:
                continue
            labels = game.labels_of(s)
            containing = [
                (g, g.profile_from_labels(labels))
                for g in proper
                if g.profile_from_labels(labels) is not None
            ]
            if not containing:
                tally["vacuous"] += 1
                continue
            tally["checked"] += 1
            if all(mapped in _phi(concept, g) for g, mapped in containing):
                yield {
                    "game": game.canonical_id,
                    "profile": list(labels),
                    "reductions": [g.canonical_id for g, _ in containing],
                    "clause": "profile solves every proper reduction "
                    "containing it yet not the game itself",
                }


#: Each axiom's scan and the names of the coverage counters it reports
#: (None: the verdict carries no coverage record).
_AXIOMS = {
    "iis": (_iis, None),
    "mc": (_mc, None),
    "isds": (_isds, None),
    "jo": (_jo, None),
    "cons": (_cons, ("checked", "skipped")),
    "cocons": (_cocons, ("checked", "vacuous")),
    "ciis": (_ciis, ("checked", "vacuous")),
}

#: Axiom ids in report order.
AXIOM_IDS = tuple(_AXIOMS)


def check_axiom(axiom: str, concept: str, cls: GameClass) -> AxiomVerdict:
    """Scan the whole class; the first witness found is the verdict's."""
    key = axiom.lower()
    try:
        scan, counters = _AXIOMS[key]
    except KeyError:
        raise ValueError(
            f"unknown axiom {axiom!r}; known: {', '.join(AXIOM_IDS)}"
        ) from None
    tally = Counter()
    witness = next(scan(concept, cls, cls, tally), None)
    return AxiomVerdict(
        key,
        concept,
        "pass" if witness is None else "violated",
        witness=witness,
        coverage=None if counters is None else {c: tally[c] for c in counters},
    )


def replay_witness(verdict: AxiomVerdict, cls: GameClass) -> bool:
    """True when a violated verdict's witness re-verifies: the axiom's
    own scan, started from the witness's game, yields it again."""
    entry = _AXIOMS.get(verdict.axiom)
    if entry is None or not verdict.violated or not verdict.witness:
        return False
    game = cls.get(verdict.witness.get("game"))
    if game is None:
        return False
    scan, _ = entry
    return any(
        found == verdict.witness
        for found in scan(verdict.concept, cls, [game], Counter())
    )
