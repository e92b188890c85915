"""Finite game classes and their closure constructions.

A ``GameClass`` is a deduplicated, insertion-ordered set of games with
a provenance record per member saying how it entered.  Closures run a
breadth-first worklist with the frontier sorted by canonical id, so
class contents, insertion order, and provenance are reproducible.
"""

from __future__ import annotations

import hashlib
import json
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
    _pinned_slice,
    enumerate_reductions,
    is_reduction,
    reduce_players,
    restrict,
)
from .gamefiles import check_fields, dump_game, load_game

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
    return isinstance(value, list) and all(isinstance(v, str) for v in value)


def _fields_of(kind) -> tuple[str, ...]:
    """The fields a record of this kind holds besides ``kind``, or
    ``GameFormatError`` for an unknown kind."""
    if kind not in PROVENANCE_KINDS:
        raise GameFormatError(f"unknown provenance kind: {kind!r}")
    return _KIND_FIELDS[kind]


#: Per optional provenance field: its type test and its description.
_PAYLOAD_TYPES = {
    "parent": (lambda v: isinstance(v, str), "a string"),
    "subsets": (
        lambda v: isinstance(v, list) and all(map(_strings, v)),
        "a list of lists of strings",
    ),
    "keep": (
        lambda v: isinstance(v, list) and all(type(i) is int for i in v),
        "a list of integers",
    ),
    "fixed": (_strings, "a list of strings"),
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
        holds the fields of its kind and no others.  Whether a parent
        fits is for ``GameClass.add``."""
        fields = _fields_of(self.kind)
        for key in _PAYLOAD_TYPES:
            needed = key in fields
            if (getattr(self, key) is None) == needed:
                verb = "needs" if needed else "has no"
                raise GameFormatError(
                    f"provenance of kind {self.kind!r} {verb} {key!r}"
                )

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
        fields = _fields_of(kind)
        for key, (fits, what) in _PAYLOAD_TYPES.items():
            if key in data and not fits(data[key]):
                raise GameFormatError(f"provenance {key!r} must be {what}")
        check_fields(data, ("kind", *fields), f"provenance of kind {kind!r}")
        return cls(
            kind=kind,
            parent=data.get("parent"),
            subsets=tuple(tuple(s) for s in data["subsets"])
            if "subsets" in data
            else None,
            keep=tuple(data["keep"]) if "keep" in data else None,
            fixed=tuple(data["fixed"]) if "fixed" in data else None,
        )


#: Per class: the facts ``GameClass.derive`` worked out from its members
#: (member roots, the members per label and per player count, the
#: reduction relation per parent, the member per content, each member's
#: solution labels per concept); kept here so that ``clear_reductions``
#: reaches every class.
_reductions: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def clear_reductions() -> None:
    """Forget the derived facts of every class."""
    _reductions.clear()


class GameClass:
    """A finite, deduplicated set of games with provenance."""

    def __init__(self, params: dict | None = None):
        self._games: dict[str, Game] = {}
        self.provenance: dict[str, Provenance] = {}
        self.params: dict = dict(params or {})
        # ``label_mask``'s bit per (player index, label), and each member's mask
        self._bits: dict[tuple[int, str], int] = {}
        self._masks: dict[str, int] = {}

    def add(self, game: Game, provenance: Provenance) -> bool:
        """Insert a game; returns False when it was already present."""
        cid = game.canonical_id
        if cid in self._games:
            return False
        self._check_record(game, provenance)
        self._games[cid] = game
        self.provenance[cid] = provenance
        self._masks[cid] = self.label_mask(game.strategies)
        _reductions.pop(self, None)
        return True

    def _check_record(self, game: Game, provenance: Provenance) -> None:
        """``ValueError`` unless a record other than a seed's names an
        earlier member as its parent and fits ``game`` in shape: a
        reduction's ``subsets`` are its strategies; a player reduction
        keeps a proper, sorted set of the parent's players, whose strategies
        are the game's, and ``fixed`` names a profile of the parent.  These
        are O(players) tests; whether the ranks replay is not checked.  The
        record's fields, a seed's lack of a parent among them, were checked
        when it was made."""
        kind = provenance.kind
        if kind == "seed":
            return
        parent = self._games.get(provenance.parent)
        if parent is None:
            raise ValueError("provenance parent is not in the class")
        if kind != "player-reduction-of":
            if tuple(map(tuple, provenance.subsets)) != game.strategies:
                raise ValueError("provenance subsets are not the game's strategies")
            return
        keep, n = tuple(provenance.keep), parent.player_count
        if not (
            0 < len(keep) < n
            and all(type(i) is int for i in keep)
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

    def label_mask(self, strategies: Iterable[Iterable[str]]) -> int:
        """Per-player labels (``zip(labels)`` for a profile's) as one int:
        the sum of the class's bits for each (player index, label), a new
        pair taking the next free bit.  One registry serves every mask of
        the class, so a subset of a game's labels has a mask inside the
        game's, whichever member or parent the masks were taken for."""
        bits = self._bits
        mask = 0
        for i, labels in enumerate(strategies):
            for lab in labels:
                bit = bits.get((i, lab))
                if bit is None:
                    bit = bits[i, lab] = 1 << len(bits)
                mask |= bit
        return mask

    def mask_of(self, game: Game) -> int:
        """``label_mask(game.strategies)``: the mask ``add`` recorded for a
        member, worked out afresh for any other game."""
        mask = self._masks.get(game.canonical_id)
        return self.label_mask(game.strategies) if mask is None else mask

    def derive(self, key: tuple, compute: Callable[[], object]):
        """``compute()``, worked out once per ``key`` and kept until the
        next ``add`` or ``clear_reductions``: the class's memo of facts
        derived from its members."""
        memo = _reductions.get(self)
        if memo is None:
            memo = _reductions[self] = {}
        if key not in memo:
            memo[key] = compute()
        return memo[key]

    def _replays(self, cid: str) -> bool:
        """Whether a member's record regenerates it, read by content with no
        game built: a seed's always does, a reduction's when
        ``is_reduction(member, parent)``, a player reduction's when the
        parent's ``_pinned_slice`` has the member's labels and rank tables."""
        prov = self.provenance[cid]
        if prov.kind == "seed":
            return True
        member, parent = self._games[cid], self._games[prov.parent]
        if prov.kind != "player-reduction-of":
            return is_reduction(member, parent)
        keep, fixed = tuple(prov.keep), parent.profile_from_labels(prov.fixed)
        content = (member.strategies, member.ranks)
        return _pinned_slice(parent, keep, fixed) == content

    def _roots(self) -> dict[str, int]:
        """Per member, the number of its root, a game it restricts.  A seed
        is its own root, and so is a member whose record does not replay
        (``_replays``).  A reduction that replays shares its parent's root,
        and a player reduction that replays has the root (parent's root,
        kept players, pinned labels of the others)."""
        numbers: dict = {}
        roots: dict[str, int] = {}
        for cid in self._games:
            prov = self.provenance[cid]
            if prov.kind == "seed" or not self._replays(cid):
                key = cid
            elif prov.kind == "player-reduction-of":
                pinned = tuple(
                    lab for i, lab in enumerate(prov.fixed) if i not in prov.keep
                )
                key = (roots[prov.parent], tuple(prov.keep), pinned)
            else:
                roots[cid] = roots[prov.parent]
                continue
            roots[cid] = numbers.setdefault(key, len(numbers))
        return roots

    def _index(self) -> tuple[list[Game], dict[int, int], dict[int, int]]:
        """The members in insertion order, and as bitsets over that order
        (bit j: the j-th member) the members that have each label bit and
        the members of each player count."""
        by_label: dict[int, int] = {}
        by_count: dict[int, int] = {}
        for j, (cid, game) in enumerate(self._games.items()):
            member = 1 << j
            n = game.player_count
            by_count[n] = by_count.get(n, 0) | member
            mask = self._masks[cid]
            while mask:
                bit = mask & -mask
                by_label[bit] = by_label.get(bit, 0) | member
                mask ^= bit
        return list(self._games.values()), by_label, by_count

    def reductions(self, parent: Game) -> tuple[Game, ...]:
        """The members that are reductions of ``parent``, in insertion order;
        ``parent`` itself is one when it is a member.  Worked out once per
        parent (``derive``).  A reduction keeps a subset of the parent's
        labels, so the candidates are the members of the parent's player
        count less those with a label bit outside the parent's mask, read
        from per-label member bitsets (``_index``).  A candidate with the
        parent's root (``_roots``) restricts the same game to fewer labels,
        so it is a reduction.  Every parent of one root that holds a
        candidate's labels restricts that root to the same game there, so
        ``is_reduction`` decides a candidate of another root once per
        (parent root, candidate).  A parent that is not a member is its own
        root, named by its canonical id."""
        return self.derive(
            ("reductions", parent.canonical_id), lambda: self._reductions_of(parent)
        )

    def _reductions_of(self, parent: Game) -> tuple[Game, ...]:
        roots = self.derive(("roots",), self._roots)
        members, by_label, by_count = self.derive(("index",), self._index)
        across = self.derive(("cross-root",), dict)
        root = roots.get(parent.canonical_id, parent.canonical_id)
        outer = self.mask_of(parent)
        candidates = by_count.get(parent.player_count, 0)
        for bit, having in by_label.items():
            if not bit & outer:
                candidates &= ~having
        out = []
        while candidates:
            low = candidates & -candidates
            candidates ^= low
            j = low.bit_length() - 1
            g = members[j]
            if roots[g.canonical_id] == root:
                found = True
            else:
                found = across.get((root, j))
                if found is None:
                    found = across[root, j] = is_reduction(g, parent)
            if found:
                out.append(g)
        return tuple(out)

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
        regenerate it from its parent (``_replays``); ``ValueError`` when
        the record gives a different game."""
        if not self._replays(canonical_id):
            raise ValueError(
                f"provenance replay for {canonical_id[:12]} produced a "
                f"different game"
            )
        return self._games[canonical_id]

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
        (path / "manifest.json").write_text(
            json.dumps(manifest, indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
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
            manifest = json.loads(manifest_file.read_text(encoding="utf-8"))
        except (ValueError, RecursionError) as exc:  # bad bytes, syntax or nesting
            raise malformed(exc) from None
        if not (
            isinstance(manifest, dict)
            and isinstance(manifest.get("games"), list)
            and isinstance(manifest.get("params", {}), dict)
        ):
            raise malformed("expected an object with a 'games' list")
        try:
            check_fields(manifest, ("params", "games"), "the manifest")
        except GameFormatError as exc:
            raise malformed(exc) from None
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
            if not isinstance(fname, str) or os.path.basename(fname) != fname:
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
    # names a game already in the class, and is not restricted again.
    seed_of = {g.canonical_id: k for k, g in enumerate(seed_list)}
    seen = {(k, g.strategies) for k, g in enumerate(seed_list)}
    frontier = seed_list
    while frontier:
        next_frontier: list[Game] = []
        for parent in sorted(frontier, key=lambda g: g.canonical_id):
            seed = seed_of[parent.canonical_id]
            try:
                specs = enumerate_reductions(parent, flavor_filter, budget=budget)
            except BudgetExceededError as exc:
                raise BudgetExceededError(
                    f"{exc}; frontier size {len(frontier)}"
                ) from None
            for labels in specs:
                if (seed, labels) in seen:
                    continue
                seen.add((seed, labels))
                child = restrict(parent, labels)
                added = cls.add(
                    child,
                    Provenance(kind, parent=parent.canonical_id, subsets=labels),
                )
                if added:
                    seed_of[child.canonical_id] = seed
                    next_frontier.append(child)
                    if len(cls) > budget:
                        raise BudgetExceededError(
                            f"closure exceeded the budget of {budget} games; "
                            f"frontier size {len(next_frontier)}"
                        )
        frontier = next_frontier
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
    """The seed plus every one of its reductions.

    Reductions of reductions are reductions of the seed, so one pass
    is the fixpoint.  The budget caps the specs, hence the members.
    """
    cls = GameClass(params={"mode": "reductions", "budget": budget})
    cls.add(seed, Provenance("seed"))
    for labels in enumerate_reductions(seed, "all", budget=budget):
        cls.add(
            restrict(seed, labels),
            Provenance("reduction-of", parent=seed.canonical_id, subsets=labels),
        )
    return cls


#: Names accepted by build_named_class and the CLI --class flag.
NAMED_CLASSES = ("pd_dclosed", "ex2_dclosed", "ex3_cons", "ex4", "ex5")


def _player_reduced_members(cls: GameClass, seed: Game) -> None:
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


def build_named_class(name: str) -> GameClass:
    """Construct one of the bundled benchmark classes by name."""
    if name == "pd_dclosed":
        return d_closure([fixture_game("pd")])
    if name == "ex2_dclosed":
        return d_closure([fixture_game("ex2")])
    if name in ("ex3_cons", "ex4"):
        seed = fixture_game("ex2")
        if name == "ex4":
            cls = reduction_closure(seed)
        else:
            cls = GameClass()
            cls.add(seed, Provenance("seed"))
        cls.params = {"mode": "named", "name": name}
        _player_reduced_members(cls, seed)
        return cls
    if name == "ex5":
        return reduction_closure(fixture_game("ex5"))
    raise ValueError(
        f"unknown class name {name!r}; known names: {', '.join(NAMED_CLASSES)}"
    )
