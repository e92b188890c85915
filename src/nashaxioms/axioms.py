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
from dataclasses import asdict, dataclass
from functools import reduce
from itertools import product
from operator import or_
from typing import Iterable, Iterator

from .closures import GameClass, _positions
from .concepts import CONCEPTS, ConceptDomainError, eval_concept, jointly_optimal
from .games import (
    Game,
    _fact,
    _facts,
    _label_fact,
    _undominated,
    label_mask,
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
        return {**asdict(self), "class": class_name}


class _Table:
    """One concept's solutions on a class: per label tuple the members it
    solves as a bitset over insertion order, for the members ``fill`` has
    entered.  Filled one game at a time as the scans ask, so the concept
    is evaluated on the same games in the same order as if each scan
    called ``eval_concept`` itself."""

    def __init__(self, concept: str, cls: GameClass):
        self.concept = concept
        # the key of the label sets in ``_facts``: a tuple is never a concept id
        self.name = ("labels", concept)
        self.members = cls.members()
        self.solvers: dict[tuple, int] = {}
        self.filled = 0

    def of(self, game: Game) -> frozenset:
        """The label set of the game's solutions, worked out once per game
        content (``_fact``); an error names the game."""
        # the scans' hottest lookup: a hit reads the memo without a call
        labels = _facts.get((self.name, game.canonical_id))
        if labels is None:
            try:
                labels = _fact(self.name, game, self._labels)
            except ConceptDomainError as exc:
                raise ConceptDomainError(
                    f"{exc} [game {game.canonical_id[:12]}]"
                ) from exc
        return labels

    def _labels(self, game: Game) -> frozenset:
        return game.label_set(eval_concept(self.concept, game))

    def fill(self, bits: int) -> None:
        """Enter the members of the bitset ``bits`` into ``solvers``, in order."""
        solvers = self.solvers
        for j in _positions(bits & ~self.filled):
            for labels in self.of(self.members[j]):
                solvers[labels] = solvers.get(labels, 0) | 1 << j
            self.filled |= 1 << j


def _table(concept: str, cls: GameClass) -> _Table:
    """The concept's ``_Table`` on the class, one per class (``cls.derive``)."""
    return cls.derive(("table", concept), lambda: _Table(concept, cls))


def _cells(game: Game) -> tuple[tuple[tuple, int], ...]:
    """Per profile of ``game``, in linear-index order: its labels and their
    mask, worked out once per strategy tuple (``_label_fact``).  A member
    holds the profile when its mask holds the profile's."""
    return _label_fact("cells", game, _profile_cells)


def _profile_cells(game: Game) -> tuple[tuple[tuple, int], ...]:
    # the product of the players' labels and of their bits runs in
    # linear-index order, like the profiles
    bits = [
        [label_mask([()] * i + [(lab,)]) for lab in labels]
        for i, labels in enumerate(game.strategies)
    ]
    return tuple(zip(product(*game.strategies), map(sum, product(*bits))))


def _iis(
    concept: str, cls: GameClass, parents: Iterable[Game], tally: Counter
) -> Iterator[dict]:
    """Solutions survive into every reduction they belong to."""
    table, members = _table(concept, cls), cls.members()
    for parent in parents:
        phi = table.of(parent)
        if not phi:
            continue
        within = cls.reduction_bits(parent)
        table.fill(within)
        # per solution, the reductions that hold it but do not solve it
        lost = [
            (labels, cls.having(inside, within) & ~table.solvers.get(labels, 0))
            for labels, inside in _cells(parent)
            if labels in phi
        ]
        for j in _positions(reduce(or_, (bits for _, bits in lost))):
            for labels, bits in lost:
                if bits >> j & 1:
                    yield {
                        "game": parent.canonical_id,
                        "reduction": members[j].canonical_id,
                        "profile": list(labels),
                        "clause": "solution of the game is lost in a "
                        "reduction containing it",
                    }


def _mc(
    concept: str, cls: GameClass, parents: Iterable[Game], tally: Counter
) -> Iterator[dict]:
    """Common solutions of two merging reductions solve the merge."""
    table, members = _table(concept, cls), cls.members()
    for parent in parents:
        phi_parent = table.of(parent)
        full = cls.mask_of(parent)
        within = cls.reduction_bits(parent)
        table.fill(within)
        # only a profile x that does not solve the parent can be a witness,
        # and only when two reductions that solve x together hold every
        # label of the parent, so only the solvers of an x whose solvers
        # cover the parent's mask are visited
        solvers = table.solvers
        visit = 0
        for x, _ in _cells(parent):
            if x not in phi_parent:
                solve_x = solvers.get(x, 0) & within
                if solve_x & ~visit and cls.covers(full, solve_x):
                    visit |= solve_x
        for j in _positions(visit):
            ga = members[j]
            extra = table.of(ga) - phi_parent
            shared = reduce(or_, map(solvers.__getitem__, extra))
            # b merges with a when it keeps every label that a lacks
            for k in _positions(cls.having(full & ~cls.mask_of(ga), shared & within)):
                gb = members[k]
                for labels in sorted(extra & table.of(gb)):
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
    table, members = _table(concept, cls), cls.members()
    for parent in parents:
        full = cls.mask_of(parent)
        need = _fact("undominated mask", parent, lambda g: label_mask(_undominated(g)))
        if need == full:
            continue
        within = cls.reduction_bits(parent)
        strict = cls.having(need, within) & ~cls.having(full, within)
        if not strict:
            continue
        phi_parent = table.of(parent)
        for j in _positions(strict):
            cand = members[j]
            phi_cand = table.of(cand)
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
    table = _table(concept, cls)
    for game in parents:
        phi_game = table.of(game)
        optimal = _fact("jointly_optimal", game, jointly_optimal)
        for labels in map(game.labels_of, sorted(optimal)):
            if labels not in phi_game:
                yield {
                    "game": game.canonical_id,
                    "profile": list(labels),
                    "clause": "jointly optimal profile is not a solution",
                }


def _cons(
    concept: str, cls: GameClass, parents: Iterable[Game], tally: Counter
) -> Iterator[dict]:
    """Restrictions of solutions solve the player-reduced games."""
    table = _table(concept, cls)
    for game in parents:
        if game.player_count < 2:
            continue
        phi_game = table.of(game)
        subgroups = cls.player_reduced(game)
        if all(members is None for _, members, _ in subgroups):
            tally["skipped"] += len(phi_game) * len(subgroups)
            continue
        for p, (labels, _) in enumerate(_cells(game)):
            if labels not in phi_game:
                continue
            for keep, members, column_of in subgroups:
                member = None if members is None else members[column_of[p]]
                if member is None:
                    tally["skipped"] += 1
                    continue
                tally["checked"] += 1
                restricted = tuple(labels[i] for i in keep)
                if restricted not in table.of(member):
                    yield {
                        "game": game.canonical_id,
                        "player_reduced": member.canonical_id,
                        "profile": list(labels),
                        "players_kept": list(keep),
                        "restricted_profile": list(restricted),
                        "clause": "restriction of a solution is not a "
                        "solution of the player-reduced game",
                    }


def _cocons(
    concept: str, cls: GameClass, parents: Iterable[Game], tally: Counter
) -> Iterator[dict]:
    """A profile whose restrictions solve every available player-reduced
    game solves the game."""
    table = _table(concept, cls)
    for game in parents:
        if game.player_count < 2:
            continue
        phi_game = table.of(game)
        subgroups = cls.player_reduced(game)
        if all(members is None for _, members, _ in subgroups):
            tally["vacuous"] += game.num_profiles - len(phi_game)
            continue
        for p, (labels, _) in enumerate(_cells(game)):
            if labels in phi_game:
                continue
            present = [
                (keep, member)
                for keep, members, column_of in subgroups
                if members is not None
                and (member := members[column_of[p]]) is not None
            ]
            if not present:
                tally["vacuous"] += 1
                continue
            tally["checked"] += 1
            if all(
                tuple(labels[i] for i in keep) in table.of(member)
                for keep, member in present
            ):
                yield {
                    "game": game.canonical_id,
                    "profile": list(labels),
                    "subgroups": [
                        {"players_kept": list(keep), "game": member.canonical_id}
                        for keep, member in present
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
    table, members = _table(concept, cls), cls.members()
    for game in parents:
        if game.num_profiles < 3:
            continue
        phi_game = table.of(game)
        within = cls.reduction_bits(game)
        table.fill(within)
        # all but the game itself, the one reduction with all its labels
        proper = within & ~cls.having(cls.mask_of(game), within)
        for labels, inside in _cells(game):
            if labels in phi_game:
                continue
            containing = cls.having(inside, proper)
            if not containing:
                tally["vacuous"] += 1
                continue
            tally["checked"] += 1
            if not containing & ~table.solvers.get(labels, 0):
                yield {
                    "game": game.canonical_id,
                    "profile": list(labels),
                    "reductions": [
                        members[j].canonical_id for j in _positions(containing)
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
    if concept not in CONCEPTS:
        raise ValueError(f"unknown solution concept id: {concept!r}")
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
    if entry is None or verdict.concept not in CONCEPTS or not verdict.violated:
        return False
    cid = verdict.witness.get("game") if isinstance(verdict.witness, dict) else None
    game = cls.get(cid) if isinstance(cid, str) else None
    if game is None:
        return False
    scan, _ = entry
    return any(
        found == verdict.witness
        for found in scan(verdict.concept, cls, [game], Counter())
    )
