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
from itertools import chain
from typing import Iterable, Iterator

from .closures import GameClass, _positions
from .concepts import ConceptDomainError, eval_concept, jointly_optimal
from .games import Game, Profile, _pinned_slice, _undominated, strict_dominators


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


def _solutions(concept: str, cls: GameClass, game: Game) -> frozenset:
    """The label set of the game's solutions, worked out once per class
    (``cls.derive``)."""
    return cls.derive(
        ("solutions", concept, game.canonical_id),
        lambda: game.label_set(_phi(concept, game)),
    )


def _reduced(concept: str, cls: GameClass, parent: Game) -> list[tuple]:
    """Per member of ``cls.reductions(parent)``, in order: the member,
    its mask (``cls.mask_of``) and its solutions' label set, worked out
    once per parent and concept (``cls.derive``).  A parent profile lies
    in a member when the profile's mask lies inside the member's."""
    return cls.derive(
        ("reduced", concept, parent.canonical_id),
        lambda: [
            (g, cls.mask_of(g), _solutions(concept, cls, g))
            for g in cls.reductions(parent)
        ],
    )


def _iis(
    concept: str, cls: GameClass, parents: Iterable[Game], tally: Counter
) -> Iterator[dict]:
    """Solutions survive into every reduction they belong to."""
    for parent in parents:
        solutions = [
            (labels, cls.label_mask(zip(labels)))
            for labels in map(parent.labels_of, sorted(_phi(concept, parent)))
        ]
        if not solutions:
            continue
        for cand, mask, phi_cand in _reduced(concept, cls, parent):
            for labels, inside in solutions:
                if not inside & ~mask and labels not in phi_cand:
                    yield {
                        "game": parent.canonical_id,
                        "reduction": cand.canonical_id,
                        "profile": list(labels),
                        "clause": "solution of the game is lost in a "
                        "reduction containing it",
                    }


def _mc(
    concept: str, cls: GameClass, parents: Iterable[Game], tally: Counter
) -> Iterator[dict]:
    """Common solutions of two merging reductions solve the merge."""
    for parent in parents:
        phi_parent = _solutions(concept, cls, parent)
        full = cls.mask_of(parent)
        reduced = _reduced(concept, cls, parent)
        # per solution of a reduction, the positions of the reductions it
        # solves as a bitset, so a pair is visited only if it shares one
        solvers: dict[tuple, int] = {}
        for j, (_, _, phi) in enumerate(reduced):
            for labels in phi:
                solvers[labels] = solvers.get(labels, 0) | 1 << j
        for ga, mask_a, phi_a in reduced:
            # only profiles that do not solve the parent can be witnesses
            extra = phi_a - phi_parent
            if not extra:
                continue
            # b merges with a when it keeps every label that a lacks
            need = full & ~mask_a
            shared = 0
            for labels in extra:
                shared |= solvers[labels]
            for j in _positions(shared):
                gb, mask_b, phi_b = reduced[j]
                if need & mask_b != need:
                    continue
                for labels in sorted(extra & phi_b):
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
    # A reduction removes only strictly dominated strategies when it
    # keeps every undominated one (``_undominated``) and is not the
    # parent.  Concepts are evaluated on those reductions alone, since a
    # concept may be undefined on the others.
    for parent in parents:
        full = cls.mask_of(parent)
        need = cls.label_mask(map(_undominated, strict_dominators(parent)))
        if need == full:
            continue
        reductions = cls.reductions(parent)
        strict = [
            g
            for g, mask in zip(reductions, map(cls.mask_of, reductions))
            if mask & need == need and mask != full
        ]
        if not strict:
            continue
        phi_parent = _solutions(concept, cls, parent)
        for cand in strict:
            phi_cand = _solutions(concept, cls, cand)
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


def _subgroups(cls: GameClass, game: Game) -> list[tuple[tuple[int, ...], dict | None]]:
    """``(keep, pinned)`` per non-empty proper player subgroup of
    ``game``, in ascending bitmask order, worked out once per game
    (``cls.derive``).  A game reduced to the players in ``keep`` has
    their strategies, so it can be a member only when some member has
    those strategies; otherwise ``pinned`` is None, and else it is the
    memo ``_player_reduced`` fills, one member or None per pinned
    column."""

    def compute():
        present = cls.derive(("strategies",), lambda: {g.strategies for g in cls})
        n = game.player_count
        out = []
        for mask in range(1, (1 << n) - 1):
            keep = tuple(i for i in range(n) if mask >> i & 1)
            available = tuple(game.strategies[i] for i in keep) in present
            out.append((keep, {} if available else None))
        return out

    return cls.derive(("subgroups", game.canonical_id), compute)


def _player_reduced(
    cls: GameClass, game: Game, subgroups: list, s: Profile
) -> Iterator[tuple[tuple[int, ...], Game | None]]:
    """``(keep, member or None)`` per entry of ``_subgroups(cls, game)``:
    the member of the class that is ``game`` reduced to the players in
    ``keep`` with the others fixed at ``s``.  It is looked for only when
    available, by the content of the pinned slice (``cls.with_content``),
    so no game is built, and once per pinned column: the others'
    components of ``s``."""
    for keep, pinned in subgroups:
        if pinned is None:
            yield keep, None
            continue
        column = tuple(x for i, x in enumerate(s.indices) if i not in keep)
        if column not in pinned:
            pinned[column] = cls.with_content(*_pinned_slice(game, keep, s))
        yield keep, pinned[column]


def _cons(
    concept: str, cls: GameClass, parents: Iterable[Game], tally: Counter
) -> Iterator[dict]:
    """Restrictions of solutions solve the player-reduced games."""
    for game in parents:
        if game.player_count < 2:
            continue
        phi_game = sorted(_phi(concept, game))
        subgroups = _subgroups(cls, game)
        if all(pinned is None for _, pinned in subgroups):
            tally["skipped"] += len(phi_game) * len(subgroups)
            continue
        for s in phi_game:
            for keep, member in _player_reduced(cls, game, subgroups, s):
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
        subgroups = _subgroups(cls, game)
        if all(pinned is None for _, pinned in subgroups):
            tally["vacuous"] += game.num_profiles - len(phi_game)
            continue
        for s in game.profiles():
            if s in phi_game:
                continue
            present = (
                (keep, member)
                for keep, member in _player_reduced(cls, game, subgroups, s)
                if member is not None
            )
            first = next(present, None)
            if first is None:
                tally["vacuous"] += 1
                continue
            tally["checked"] += 1
            # the first present game whose restricted profile is not a
            # solution settles it; the full list is rebuilt only for a witness
            if all(
                Profile(tuple(s.indices[i] for i in keep)) in _phi(concept, member)
                for keep, member in chain((first,), present)
            ):
                yield {
                    "game": game.canonical_id,
                    "profile": list(game.labels_of(s)),
                    "subgroups": [
                        {"players_kept": list(keep), "game": member.canonical_id}
                        for keep, member in _player_reduced(cls, game, subgroups, s)
                        if member is not None
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
    for game in parents:
        if game.num_profiles < 3:
            continue
        phi_game = _phi(concept, game)
        full = cls.mask_of(game)
        proper = [r for r in _reduced(concept, cls, game) if r[1] != full]
        for s in game.profiles():
            if s in phi_game:
                continue
            labels = game.labels_of(s)
            inside = cls.label_mask(zip(labels))
            containing = (r for r in proper if r[1] & inside == inside)
            first = next(containing, None)
            if first is None:
                tally["vacuous"] += 1
                continue
            tally["checked"] += 1
            # the first containing reduction the profile does not solve
            # settles it; the full list is rebuilt only for a witness
            if all(labels in r[2] for r in chain((first,), containing)):
                yield {
                    "game": game.canonical_id,
                    "profile": list(labels),
                    "reductions": [
                        g.canonical_id
                        for g, mask, _ in proper
                        if mask & inside == inside
                    ],
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
    try:
        scan, counters = _AXIOMS[axiom]
    except KeyError:
        raise ValueError(
            f"unknown axiom {axiom!r}; known: {', '.join(AXIOM_IDS)}"
        ) from None
    tally = Counter()
    witness = next(scan(concept, cls, cls, tally), None)
    return AxiomVerdict(
        axiom,
        concept,
        "pass" if witness is None else "violated",
        witness=witness,
        coverage=None if counters is None else {c: tally[c] for c in counters},
    )


def replay_witness(verdict: AxiomVerdict, cls: GameClass) -> bool:
    """True when a violated verdict's witness re-verifies: the axiom's
    own scan, started from the witness's game, yields it again."""
    entry = _AXIOMS.get(verdict.axiom)
    if entry is None or not verdict.violated or not isinstance(verdict.witness, dict):
        return False
    cid = verdict.witness.get("game")
    game = cls.get(cid) if isinstance(cid, str) else None
    if game is None:
        return False
    scan, _ = entry
    return any(
        found == verdict.witness
        for found in scan(verdict.concept, cls, [game], Counter())
    )
