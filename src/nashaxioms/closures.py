"""Finite game classes and their closure constructions.

A ``GameClass`` is a deduplicated, insertion-ordered set of games with
a provenance record per member saying how it entered.  Closures run a
breadth-first worklist with the frontier sorted by canonical id, so
class contents, insertion order, and provenance are reproducible.  The
d- and reduction closures are one pass over the seeds' specs, since
those reductions compose; strict closures expand every new member.
Each member is cut (``games._cut``) from its parent's cut plan, which
the d- and reduction closures share per label structure.
"""

from __future__ import annotations

import hashlib
import os
import weakref
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Iterator

from .fixtures import fixture_game
from .games import (
    DEFAULT_BUDGET,
    BudgetExceededError,
    Game,
    GameFormatError,
    _cells,
    _column_of,
    _columns,
    _cut,
    _fact,
    _label_fact,
    _slice_ranks,
    enumerate_reductions,
    is_reduction,
    label_mask,
    reduce_players,
)
from .gamefiles import check_fields, decode_json, dump_game, dump_json, load_game

#: Per provenance kind a class member can carry: the fields its record
#: holds besides ``kind``.
_KIND_FIELDS = {
    "seed": (),
    "dummy-reduction-of": ("parent", "subsets"),
    "strict-reduction-of": ("parent", "subsets"),
    "player-reduction-of": ("parent", "keep", "fixed"),
    "reduction-of": ("parent", "subsets"),
}
PROVENANCE_KINDS = tuple(_KIND_FIELDS)


def _strings(value) -> bool:
    return isinstance(value, (list, tuple)) and all(isinstance(v, str) for v in value)


def _fields_of(kind) -> tuple[str, ...]:
    """The fields a record of this kind holds besides ``kind``, or
    ``GameFormatError`` for an unknown kind."""
    if kind not in PROVENANCE_KINDS:
        raise GameFormatError(f"unknown provenance kind: {kind!r}")
    return _KIND_FIELDS[kind]


#: Per optional provenance field: its type test (a list or a tuple where
#: it holds several values), its description, and how it is stored.
_PAYLOAD_TYPES = {
    "parent": (lambda v: isinstance(v, str), "a string", str),
    "subsets": (
        lambda v: isinstance(v, (list, tuple)) and all(map(_strings, v)),
        "a list of lists of strings",
        lambda v: tuple(map(tuple, v)),
    ),
    "keep": (
        lambda v: isinstance(v, (list, tuple)) and all(type(i) is int for i in v),
        "a list of integers",
        tuple,
    ),
    "fixed": (_strings, "a list of strings", tuple),
}


@dataclass(frozen=True)
class Provenance:
    """How a game entered its class.

    For reduction kinds, ``subsets`` holds the per-player label subsets
    applied to the parent.  For player reductions, ``keep`` holds the
    retained player indices and ``fixed`` the pinned profile labels.
    Replaying the record against the parent regenerates the member;
    ``GameClass.replay_provenance`` checks that by content.
    """

    kind: str
    parent: str | None = None
    subsets: tuple[tuple[str, ...], ...] | None = None
    keep: tuple[int, ...] | None = None
    fixed: tuple[str, ...] | None = None

    def __post_init__(self):
        """``GameFormatError`` unless the kind is known and the record
        holds the fields of its kind, each of its type, and no others;
        lists are stored as tuples.  Whether a parent fits is for
        ``GameClass.add``."""
        fields, record = _fields_of(self.kind), vars(self)
        for key, (fits, what, store) in _PAYLOAD_TYPES.items():
            value, needed = record[key], key in fields
            if (value is None) == needed:
                verb = "needs" if needed else "has no"
                raise GameFormatError(
                    f"provenance of kind {self.kind!r} {verb} {key!r}"
                )
            if value is not None:
                if not fits(value):
                    raise GameFormatError(f"provenance {key!r} must be {what}")
                record[key] = store(value)

    def to_payload(self) -> dict:
        out: dict = {"kind": self.kind}
        if self.parent is not None:
            out["parent"] = self.parent
        if self.subsets is not None:
            out["subsets"] = [list(s) for s in self.subsets]
        if self.keep is not None:
            out["keep"] = list(self.keep)
        if self.fixed is not None:
            out["fixed"] = list(self.fixed)
        return out

    @classmethod
    def from_payload(cls, data: dict) -> "Provenance":
        """Read a manifest record: exactly the fields of its kind, each of
        its type, or ``GameFormatError`` instead of a reshaped record."""
        kind = data["kind"]
        check_fields(data, ("kind", *_fields_of(kind)), f"provenance of kind {kind!r}")
        return cls(**data)

    @classmethod
    def _of_cut(cls, kind: str, parent: str, subsets: tuple) -> "Provenance":
        """A reduction record ``_closure`` made, built without ``__post_init__``:
        ``kind`` is a reduction kind, whose fields are ``parent`` and
        ``subsets``, and ``keep`` and ``fixed`` read their defaults, None."""
        record = object.__new__(cls)
        vars(record).update(kind=kind, parent=parent, subsets=subsets)
        return record


#: Every class, so that ``clear_reductions`` reaches the facts each one's
#: ``GameClass.derive`` worked out.
_classes: weakref.WeakSet = weakref.WeakSet()


def clear_reductions() -> None:
    """Forget the derived facts of every class."""
    for cls in _classes:
        cls._derived.clear()


def _positions(bits: int) -> Iterator[int]:
    """The positions of the set bits of ``bits``, lowest first."""
    while bits:
        low = bits & -bits
        bits ^= low
        yield low.bit_length() - 1


class GameClass:
    """A finite, deduplicated set of games with provenance."""

    def __init__(self, params: dict | None = None):
        self._games: dict[str, Game] = {}
        self.provenance: dict[str, Provenance] = {}
        self.params: dict = dict(params or {})
        # each member's ``label_mask``
        self._masks: dict[str, int] = {}
        # ``derive``'s memo: the members per label, per player count and per
        # strategy tuple, the reduction relation of the members and of each
        # other parent, the member per content, each game's player-reduced
        # members, and the scans' solver bitsets (``axioms``)
        self._derived: dict[tuple, object] = {}
        _classes.add(self)

    def add(self, game: Game, provenance: Provenance) -> bool:
        """Insert a game; returns False when it was already present."""
        if game.canonical_id not in self._games:
            self._check_record(game, provenance)
        return self._insert(game, provenance)

    def _insert(self, game: Game, provenance: Provenance) -> bool:
        """``add`` without ``_check_record``, for the records ``_closure`` cuts,
        which name a member as parent and the game's strategies as subsets."""
        cid = game.canonical_id
        if cid in self._games:
            return False
        self._games[cid] = game
        self.provenance[cid] = provenance
        self._masks[cid] = label_mask(game.strategies)
        self._derived.clear()
        return True

    def _check_record(self, game: Game, provenance: Provenance) -> None:
        """``ValueError`` unless a record other than a seed's names an
        earlier member as its parent and fits ``game`` in shape: a
        reduction's ``subsets`` are its strategies; a player reduction
        keeps a proper, sorted set of the parent's players, whose strategies
        are the game's, and ``fixed`` names a profile of the parent.  These
        are O(players) tests; whether the ranks replay is not checked.  The
        record's fields and their types, a seed's lack of a parent among
        them, were checked when it was made."""
        kind = provenance.kind
        if kind == "seed":
            return
        parent = self._games.get(provenance.parent)
        if parent is None:
            raise ValueError("provenance parent is not in the class")
        if kind != "player-reduction-of":
            if provenance.subsets != game.strategies:
                raise ValueError("provenance subsets are not the game's strategies")
            return
        keep, n = provenance.keep, parent.player_count
        if not (
            0 < len(keep) < n
            and list(keep) == sorted(set(keep))
            and 0 <= keep[0] <= keep[-1] < n
        ):
            raise ValueError(
                "provenance keep is not a proper, sorted set of the parent's players"
            )
        if tuple(parent.strategies[i] for i in keep) != game.strategies:
            raise ValueError("provenance keep does not give the game's strategies")
        if parent.profile_from_labels(provenance.fixed) is None:
            raise ValueError("provenance fixed is not a profile of the parent")

    def get(self, canonical_id: str) -> Game | None:
        return self._games.get(canonical_id)

    def with_content(self, strategies, ranks) -> Game | None:
        """The member with these label tuples and dense rank tables, or
        None.  Content equality is canonical-id equality, so this finds a
        game without building it or hashing an id; the table is worked out
        once (``derive``)."""
        members = self.derive(
            ("content",), lambda: {(g.strategies, g.ranks): g for g in self}
        )
        return members.get((strategies, ranks))

    def mask_of(self, game: Game) -> int:
        """``label_mask(game.strategies)``: the mask ``add`` recorded for a
        member, worked out afresh for any other game."""
        mask = self._masks.get(game.canonical_id)
        return label_mask(game.strategies) if mask is None else mask

    def derive(self, key: tuple, compute: Callable[[], object]):
        """``compute()``, worked out once per ``key`` and kept until the
        next ``add`` or ``clear_reductions``: the class's memo of facts
        derived from its members."""
        memo = self._derived
        if key not in memo:
            memo[key] = compute()
        return memo[key]

    def _index(self) -> tuple[list[Game], dict[int, int], dict[int, int], dict]:
        """The members in insertion order, and as bitsets over that order
        (bit j: the j-th member) the members of each label bit, of each
        player count and of each strategy tuple."""
        by_label: dict[int, int] = {}
        by_count: dict[int, int] = {}
        by_strategies: dict[tuple, int] = {}
        for j, (cid, game) in enumerate(self._games.items()):
            member = 1 << j
            n, labels = game.player_count, game.strategies
            by_count[n] = by_count.get(n, 0) | member
            by_strategies[labels] = by_strategies.get(labels, 0) | member
            for b in _positions(self._masks[cid]):
                by_label[1 << b] = by_label.get(1 << b, 0) | member
        return list(self._games.values()), by_label, by_count, by_strategies

    def by_strategies(self) -> dict[tuple, int]:
        """Per strategy tuple, the members that carry it, as a bitset over
        insertion order (``_index``)."""
        return self.derive(("index",), self._index)[3]

    def _candidates(self, parent: Game) -> int:
        """The members that may be reductions of ``parent``, as a bitset
        over insertion order: a reduction keeps a subset of the parent's
        labels, so they are the members of the parent's player count less
        those with a label bit outside the parent's mask (``_index``)."""
        _, by_label, by_count, _ = self.derive(("index",), self._index)
        outer = self.mask_of(parent)
        candidates = by_count.get(parent.player_count, 0)
        for bit, having in by_label.items():
            if not bit & outer:
                candidates &= ~having
        return candidates

    def covers(self, mask: int, among: int) -> bool:
        """True when the members of the bitset ``among`` together hold every
        bit of ``mask``: one ``and`` per bit with the per-label member
        bitsets (``_index``), stopping at the first bit that none holds."""
        by_label = self.derive(("index",), self._index)[1]
        while mask:
            low = mask & -mask
            if not among & by_label.get(low, 0):
                return False
            mask ^= low
        return True

    def having(self, mask: int, among: int) -> int:
        """The members of the bitset ``among`` whose masks hold every bit of
        ``mask``: an ``and`` of the per-label member bitsets (``_index``)."""
        by_label = self.derive(("index",), self._index)[1]
        while mask and among:
            low = mask & -mask
            among &= by_label.get(low, 0)
            mask ^= low
        return among

    def _checked(self, parent: Game) -> int:
        """The candidates that ``is_reduction`` confirms are reductions of
        ``parent``, as a bitset over insertion order."""
        members = self.members()
        found = self._candidates(parent)
        for j in _positions(found):
            if not is_reduction(members[j], parent):
                found ^= 1 << j
        return found

    def _tops(self) -> dict[str, int]:
        """Per member, the reductions of its top as a bitset over insertion
        order.  Members are visited largest first (``num_profiles``); one
        that is not a reduction of an earlier top becomes a top, whose
        reductions ``_checked`` finds, and every other member takes the
        first top it is a reduction of.  The tops are the members that
        restrict no larger member, so they and the ``is_reduction`` calls
        depend on the members' content alone."""
        members = self.members()
        within: dict[str, int] = {}
        for top in sorted(members, key=lambda g: -g.num_profiles):
            if top.canonical_id not in within:
                found = self._checked(top)
                for j in _positions(found):
                    within.setdefault(members[j].canonical_id, found)
        return within

    def members(self) -> list[Game]:
        """The members in insertion order, bit j of a bitset the j-th."""
        return self.derive(("index",), self._index)[0]

    def reductions(self, parent: Game) -> tuple[Game, ...]:
        """The members that are reductions of ``parent``, in insertion order;
        ``parent`` itself is one when it is a member (``reduction_bits``)."""
        members = self.members()
        return tuple(members[j] for j in _positions(self.reduction_bits(parent)))

    def reduction_bits(self, parent: Game) -> int:
        """The members that are reductions of ``parent``, as a bitset over
        insertion order: a member's entry of the class's one table
        (``_relation``), or for any other parent its candidates that
        ``_checked`` confirms, worked out once per parent (``derive``)."""
        cid = parent.canonical_id
        bits = self.derive(("relation",), self._relation).get(cid)
        if bits is None:
            bits = self.derive(("reductions", cid), lambda: self._checked(parent))
        return bits

    def _relation(self) -> dict[str, int]:
        """Per member, its reductions as a bitset over insertion order, in
        one pass.  Restriction composes: a member restricts its top
        (``_tops``), so its reductions are its candidates (``_candidates``)
        among the top's reductions, with no ``is_reduction`` call."""
        within = self._tops()
        return {c: self._candidates(g) & within[c] for c, g in self._games.items()}

    def player_reduced(
        self, game: Game
    ) -> list[tuple[tuple[int, ...], tuple | None, tuple[int, ...]]]:
        """``(keep, members, column_of)`` per non-empty proper subgroup of
        ``game``'s players, in ascending bitmask order, worked out once per
        game (``derive``).  ``column_of`` gives each profile's pinned
        column by linear index (``_column_of``), and ``members`` per column
        of ``_columns(shape, keep)`` the member that is ``game`` reduced to
        the players in ``keep`` with the others pinned there, or None,
        found by content (``with_content``), so no game is built.  Such a
        game has the kept players' strategies, so ``members`` is None when
        no member has them."""

        def compute():
            present = self.by_strategies()
            n, shape = game.player_count, game.shape
            out = []
            for mask in range(1, (1 << n) - 1):
                keep = tuple(i for i in range(n) if mask >> i & 1)
                strategies = tuple(game.strategies[i] for i in keep)
                members = None
                if strategies in present:
                    members = tuple(
                        self.with_content(strategies, _slice_ranks(game, cells, keep))
                        for cells in _columns(shape, keep)
                    )
                out.append((keep, members, _column_of(shape, keep)))
            return out

        return self.derive(("player reduced", game.canonical_id), compute)

    def ids(self) -> list[str]:
        return list(self._games)

    def __iter__(self) -> Iterator[Game]:
        return iter(self._games.values())

    def __len__(self) -> int:
        return len(self._games)

    def __contains__(self, item) -> bool:
        if isinstance(item, Game):
            return item.canonical_id in self._games
        return item in self._games

    def content_id(self) -> str:
        joined = ",".join(sorted(self._games))
        return hashlib.sha256(joined.encode("ascii")).hexdigest()

    def replay_provenance(self, canonical_id: str) -> Game:
        """The member itself, once its provenance record is confirmed to
        regenerate it from its parent: a seed's always does, a reduction's
        when ``is_reduction(member, parent)``, a player reduction's when
        ``reduce_players`` on the parent with the record's ``keep`` and
        ``fixed`` gives the member.  ``ValueError`` when the record gives
        a different game or the id names no member."""
        member = self._games.get(canonical_id)
        if member is None:
            raise ValueError(f"{canonical_id!r} is not a member of the class")
        prov = self.provenance[canonical_id]
        parent = self._games.get(prov.parent)  # None for a seed
        if prov.kind == "player-reduction-of":
            fixed = parent.profile_from_labels(prov.fixed)
            replays = reduce_players(parent, prov.keep, fixed) == member
        else:
            replays = prov.kind == "seed" or is_reduction(member, parent)
        if not replays:
            raise ValueError(
                f"provenance replay for {canonical_id[:12]} produced a different game"
            )
        return member

    # ------------------------------------------------------------------
    # directory serialization: one game file per member plus a manifest
    # ------------------------------------------------------------------

    def write_dir(self, path: str | Path) -> Path:
        path = Path(path)
        path.mkdir(parents=True, exist_ok=True)
        entries = []
        for cid, game in self._games.items():
            fname = f"{cid[:16]}.game"
            (path / fname).write_text(dump_game(game), encoding="utf-8")
            entries.append(
                {
                    "id": cid,
                    "file": fname,
                    "provenance": self.provenance[cid].to_payload(),
                }
            )
        manifest = {"params": self.params, "games": entries}
        (path / "manifest.json").write_text(dump_json(manifest), encoding="utf-8")
        return path

    @classmethod
    def read_dir(cls, path: str | Path) -> "GameClass":
        path = Path(path)
        manifest_file = path / "manifest.json"
        if not manifest_file.is_file():
            raise GameFormatError(f"{path} has no manifest.json")

        def malformed(why: object) -> GameFormatError:
            return GameFormatError(f"{manifest_file}: {why}")

        try:
            text = manifest_file.read_text(encoding="utf-8")
            manifest = decode_json(text)
        except (ValueError, RecursionError) as exc:  # bad bytes, syntax, nesting, keys
            raise malformed(exc) from None
        if not (isinstance(manifest, dict) and isinstance(manifest.get("games"), list)):
            raise malformed("expected an object with a 'games' list")
        if not isinstance(manifest.get("params", {}), dict):
            raise malformed("'params' must be an object")
        try:
            check_fields(manifest, ("params", "games"), "the manifest")
        except GameFormatError as exc:
            raise malformed(exc) from None
        if not manifest["games"]:
            raise malformed("the class has no games")
        out = cls(params=manifest.get("params", {}))
        # the members' paths as ``path / fname`` would name them
        folder = "" if str(path) == "." else str(path)
        for k, entry in enumerate(manifest["games"]):
            try:
                cid, fname = entry["id"], entry["file"]
                provenance = Provenance.from_payload(entry["provenance"])
                check_fields(entry, ("id", "file", "provenance"), "the entry")
            except (AttributeError, KeyError, TypeError):
                raise malformed(
                    f"game entry {k} needs an 'id', a 'file' and a 'provenance'"
                ) from None
            except GameFormatError as exc:
                raise malformed(f"game entry {k}: {exc}") from None
            plain = isinstance(fname, str) and "\0" not in fname
            if not plain or os.path.basename(fname) != fname:
                raise malformed(f"game entry {k}: {fname!r} is not a plain file name")
            game = load_game(os.path.join(folder, fname))
            if game.canonical_id != cid:
                raise malformed(f"game file {fname} does not match its id")
            try:
                added = out.add(game, provenance)
            except ValueError as exc:  # a parent that is not an earlier member
                raise malformed(f"game entry {k}: {exc}") from None
            if not added:
                raise malformed(f"game entry {k} repeats the id of an earlier entry")
        return out


def _cut_plan(
    game: Game, flavor_filter: str, budget: int
) -> tuple[tuple[tuple[tuple[str, ...], ...], tuple[int, ...]], ...]:
    """Per spec of ``enumerate_reductions(game, flavor_filter, budget=budget)``,
    in its order: the label tuples, which are the cut's strategies, and
    the cut's cells (``_cells``).  The plan is worked out once per flavor
    and budget and shared by the closures and the closedness audits: for
    ``all`` and ``dummy-or-quasi`` the specs depend on the labels alone,
    so once per strategy tuple (``_label_fact``); strict specs depend on
    dominance, so once per game content (``_fact``).  A refused budget
    raises ``BudgetExceededError`` and stores no plan."""

    def plan(g: Game):
        out = []
        for labels in enumerate_reductions(g, flavor_filter, budget=budget):
            axes = [[pos[lab] for lab in s] for pos, s in zip(g.positions, labels)]
            out.append((labels, tuple(_cells(g.shape, axes))))
        return tuple(out)

    memo = _fact if flavor_filter == "strict" else _label_fact
    return memo(("cut plan", flavor_filter, budget), game, plan)


def _closure(
    seeds: Iterable[Game],
    flavor_filter: str,
    kind: str,
    mode: str,
    budget: int,
) -> GameClass:
    seed_list = sorted(
        {g.canonical_id: g for g in seeds}.values(),
        key=lambda g: g.canonical_id,
    )
    if not seed_list:
        raise ValueError("closure needs at least one seed game")
    cls = GameClass(params={"mode": mode, "budget": budget})
    for g in seed_list:
        cls.add(g, Provenance("seed"))
    if len(cls) > budget:
        raise BudgetExceededError(
            f"seeds alone exceed the budget of {budget} games"
        )
    # Every member is its seed restricted to its labels, and restriction
    # composes, so (seed number, labels) names one game: a key seen before
    # names a game already in the class, and is not cut again.
    seen = {(k, g.strategies) for k, g in enumerate(seed_list)}
    frontier = list(enumerate(seed_list))
    while frontier:
        next_frontier: list[tuple[int, Game]] = []
        for seed, parent in sorted(frontier, key=lambda p: p[1].canonical_id):
            try:
                plan = _cut_plan(parent, flavor_filter, budget)
            except BudgetExceededError as exc:
                raise BudgetExceededError(
                    f"{exc}; frontier size {len(frontier)}"
                ) from None
            for labels, cells in plan:
                if (seed, labels) in seen:
                    continue
                seen.add((seed, labels))
                child = _cut(parent, labels, cells)
                record = Provenance._of_cut(kind, parent.canonical_id, labels)
                if cls._insert(child, record):
                    next_frontier.append((seed, child))
                    if len(cls) > budget:
                        raise BudgetExceededError(
                            f"closure exceeded the budget of {budget} games; "
                            f"frontier size {len(next_frontier)}"
                        )
        # Reductions compose, and so do dummy-or-quasi ones; strict reductions do not
        frontier = next_frontier if flavor_filter == "strict" else []
    return cls


def d_closure(seeds: Iterable[Game], budget: int = DEFAULT_BUDGET) -> GameClass:
    """Least class containing the seeds and closed under reductions
    with a dummy or quasi-dummy player."""
    return _closure(seeds, "dummy-or-quasi", "dummy-reduction-of", "d", budget)


def strict_closure(seeds: Iterable[Game], budget: int = DEFAULT_BUDGET) -> GameClass:
    """Least class containing the seeds and all strict reductions of
    every member."""
    return _closure(seeds, "strict", "strict-reduction-of", "strict", budget)


def reduction_closure(seed: Game, budget: int = DEFAULT_BUDGET) -> GameClass:
    """The seed plus every one of its reductions.  The budget caps the
    specs, hence the members."""
    return _closure([seed], "all", "reduction-of", "reductions", budget)


def _with_player_reductions(cls: GameClass, seed: Game, name: str) -> GameClass:
    """``cls`` renamed ``name``, with ``seed``, if it is not a member yet,
    and every one-player reduction of ``seed``."""
    cls.params = {"mode": "named", "name": name}
    cls.add(seed, Provenance("seed"))
    for i in range(seed.player_count):
        for s in seed.profiles():
            cls.add(
                reduce_players(seed, (i,), s),
                Provenance(
                    "player-reduction-of",
                    parent=seed.canonical_id,
                    keep=(i,),
                    fixed=seed.labels_of(s),
                ),
            )
    return cls


#: The bundled classes, in the order ``reproduce`` reports them: per name,
#: the bundled game that seeds it and how the class is built from that game.
#: Each builder looks the closure up by name when it runs, so a wrapper put
#: on the module's function (such as a tracer's) sees every call.
_NAMED = {
    "pd_dclosed": ("pd", lambda g: d_closure([g])),
    "ex2_dclosed": ("ex2", lambda g: d_closure([g])),
    "ex5_dclosed": ("ex5", lambda g: d_closure([g])),
    "ex3_cons": ("ex2", lambda g: _with_player_reductions(GameClass(), g, "ex3_cons")),
    "ex4": ("ex2", lambda g: _with_player_reductions(reduction_closure(g), g, "ex4")),
    "ex5": ("ex5", lambda g: reduction_closure(g)),
    "cube_dclosed": ("cube222", lambda g: d_closure([g])),
    "chain_strict": ("chain4", lambda g: strict_closure([g])),
}

#: Names accepted by build_named_class and the CLI --class flag.
NAMED_CLASSES = tuple(_NAMED)


def build_named_class(name: str) -> GameClass:
    """Construct one of the bundled classes by name, reading its seed's
    game file once."""
    if name not in _NAMED:
        raise ValueError(
            f"unknown class name {name!r}; known names: {', '.join(NAMED_CLASSES)}"
        )
    fixture, build = _NAMED[name]
    return build(fixture_game(fixture))
