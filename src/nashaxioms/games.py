"""Finite normal-form games with ordinal preferences.

A game stores one integer rank table per player over the full profile
space.  Lower rank means strictly preferred, equal rank means
indifferent, so every table is a complete and transitive preference
relation by construction.  Rank tables are kept dense (the values used
are exactly 0..k), which turns preference-order equality into plain
tuple equality and gives every game a canonical content hash.

All operations here are pure functions over immutable games: they
return fresh objects, or, for ``Game.columns`` and ``Game.profiles``,
tuples and profiles shared by every game of a shape, and for the facts
in ``_facts``, values shared by every game of the same content, or of
the same labels.  One is the best-response table (``_best_responses``),
from which Nash equilibria, jointly optimal profiles and undominated
strategies (``_undominated``) are all read.  Another is a closure's cut
plan (``closures._cut_plan``): per spec, its label tuples and cells,
worked out once per flavor, budget and label structure (game content for
strict specs), from which ``_cut`` builds each member and which the
closedness audits walk.  ``label_mask`` packs labels into one int under
a process-wide bit registry, so masks taken anywhere compare.

The registry and the memos are plain dicts filled without a lock, so
they assume one thread: two threads calling ``label_mask`` at once can
give two labels one bit, which corrupts masks and every verdict read
from them.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import numbers
import operator
import sys
from dataclasses import dataclass
from functools import cache, cached_property, reduce
from typing import Callable, Hashable, Iterable, Iterator, Sequence, TypeVar


class GameFormatError(ValueError):
    """Malformed game data: bad shapes, duplicate labels, bad tables."""


class BudgetExceededError(RuntimeError):
    """An enumeration or closure would exceed its configured game budget."""


#: Default cap used by closures and subset enumeration.
DEFAULT_BUDGET = 100_000


@dataclass(frozen=True, order=True)
class Profile:
    """One strategy index per player, player 1 first.

    Profiles sort lexicographically, which coincides with their
    mixed-radix linear index (player 1 most significant).
    """

    indices: tuple[int, ...]

    def __post_init__(self):
        try:
            indices = tuple(self.indices)
        except TypeError:  # not iterable
            raise GameFormatError(
                f"profile indices must be a sequence of integers, got {self.indices!r}"
            ) from None
        if not all(type(i) is int for i in indices):
            raise GameFormatError(f"profile indices must be integers, got {indices!r}")
        object.__setattr__(self, "indices", indices)

    def linear_index(self, shape: Sequence[int]) -> int:
        """The profile's position in a profile space of this shape, or
        ``GameFormatError`` when the profile does not fit the shape."""
        if len(self.indices) != len(shape) or not all(
            0 <= i < size for i, size in zip(self.indices, shape)
        ):
            raise GameFormatError(
                f"profile {self.indices} does not fit the shape {tuple(shape)}"
            )
        k = 0
        for i, size in zip(self.indices, shape):
            k = k * size + i
        return k

    @classmethod
    def from_linear(cls, shape: Sequence[int], linear: int) -> "Profile":
        if type(linear) is not int or not 0 <= linear < math.prod(shape):
            raise GameFormatError(
                f"linear index {linear!r} is outside a profile space of shape "
                f"{tuple(shape)}"
            )
        out = [0] * len(shape)
        for pos in reversed(range(len(shape))):
            out[pos] = linear % shape[pos]
            linear //= shape[pos]
        return cls(tuple(out))

    def replace(self, player: int, value: int) -> "Profile":
        """The profile with ``player``'s index set to ``value``.  The
        player must be one of the profile's; whether the value fits a
        shape is checked where the profile meets a game."""
        if type(player) is not int or not 0 <= player < len(self.indices):
            raise GameFormatError(
                f"player index must be an integer in range({len(self.indices)}), "
                f"got {player!r}"
            )
        idx = list(self.indices)
        idx[player] = value
        return Profile(tuple(idx))

    def __repr__(self):
        return f"Profile{self.indices}"


def _normalize_ranks(values: Sequence, reverse: bool) -> tuple[int, ...]:
    """Remap values to dense ranks 0..k: ascending values keep their
    order, and ``reverse`` maps higher values (payoffs) to lower ranks.
    Ascending values must be non-negative integers; when they already
    are exactly 0..k, they are returned as they are."""
    used = set(values)
    if not reverse and max(used) == len(used) - 1:
        return tuple(values)
    order = {v: r for r, v in enumerate(sorted(used, reverse=reverse))}
    return tuple(map(order.__getitem__, values))


#: ``json.dumps`` with compact separators, for ``Game.canonical_id``.
_json = json.JSONEncoder(separators=(",", ":")).encode

#: Each canonical id by the content it hashes, (player count, strategies,
#: rank tables): one entry per distinct content, shared by every game of
#: it and kept until ``concepts.clear_cache`` empties it.
_ids: dict[tuple, str] = {}


@dataclass(frozen=True)
class Game:
    """An n-player normal-form game with dense ordinal rank tables.

    Fields:
        player_count: number of players, at least 1.
        strategies: per player, an ordered tuple of distinct labels.
        ranks: per player, a flat rank table in linear-index order
            (player 1 most significant).  Lower rank is preferred.

    ``shape`` (the number of strategies per player) and
    ``num_profiles`` are set once, with the fields.  Equality is
    structural equality of the canonical form, so two games compare
    equal exactly when their canonical ids coincide.
    """

    player_count: int
    strategies: tuple[tuple[str, ...], ...]
    ranks: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        strategies, ranks = _checked_fields(
            self.player_count, self.strategies, self.ranks, ranked=True
        )
        for i, table in enumerate(ranks):
            if max(table) != len(set(table)) - 1:
                raise GameFormatError(
                    f"rank table for player {i + 1} is not dense-normalized"
                )
        _assemble(self.player_count, strategies, ranks, self)

    #: The canonical ids of the games this one restricts.  ``_cut`` sets
    #: it on the games ``restrict`` and the closures build, and
    #: ``is_reduction`` reads it; every other game, one read from a file
    #: among them, has none.
    _restricts = frozenset()

    @cached_property
    def canonical_id(self) -> str:
        """SHA-256 of the canonical JSON of the fields, keys sorted, worked
        out once per content (``_ids``)."""
        key = (self.player_count, self.strategies, self.ranks)
        cid = _ids.get(key)
        if cid is None:
            payload = (
                f'{{"players":{self.player_count},"ranks":{_json(self.ranks)},'
                f'"strategies":{_json(self.strategies)}}}'
            )
            cid = _ids[key] = hashlib.sha256(payload.encode("utf-8")).hexdigest()
        return cid

    def profiles(self) -> Iterator[Profile]:
        """All profiles in linear-index order, shared by every game of the
        shape (``_profiles``)."""
        return iter(_profiles(self.shape))

    def profile_at(self, linear: int) -> Profile:
        """The profile at this linear index, shared like ``profiles``."""
        if type(linear) is int and 0 <= linear < self.num_profiles:
            return _profiles(self.shape)[linear]
        return Profile.from_linear(self.shape, linear)  # raises GameFormatError

    def rank(self, player: int, profile: Profile) -> int:
        self._check_players((player,))
        return self.ranks[player][profile.linear_index(self.shape)]

    def prefers(self, player: int, a: Profile, b: Profile) -> bool:
        """Strict preference of player for profile a over profile b."""
        return self.rank(player, a) < self.rank(player, b)

    def subgrid(self, axes: Sequence[Sequence[int]]) -> list[int]:
        """Linear indices of the sub-grid ``axes[0] x ... x axes[n-1]``
        (each axis strictly ascending, inside the shape), in
        linear-index order."""
        axes = [list(axis) for axis in axes]
        if len(axes) != self.player_count or not all(
            a < b for size, axis in zip(self.shape, axes)
            for a, b in zip([-1] + axis, axis + [size])
        ):
            raise GameFormatError(f"axes {axes} do not fit the shape {self.shape}")
        return _cells(self.shape, axes)

    def columns(self, *players: int) -> tuple[tuple[int, ...], ...]:
        """One sub-grid per assignment of the other players, in
        linear-index order, over which ``players`` range freely: a
        player's columns (entry ``a`` is strategy ``a``), or a
        coalition's joint deviations.  Worked out once per shape and
        players (``_columns``)."""
        self._check_players(players)
        return _columns(self.shape, players)

    def _check_players(self, players: Sequence[int]) -> None:
        if not all(type(i) is int and 0 <= i < self.player_count for i in players):
            raise GameFormatError(
                f"player indices must be integers in range({self.player_count}), "
                f"got {players!r}"
            )

    def labels_of(self, profile: Profile) -> tuple[str, ...]:
        """The profile's strategy labels, or ``GameFormatError`` when the
        profile does not fit the game."""
        indices = profile.indices
        if len(indices) == self.player_count and min(indices) >= 0:
            try:
                return tuple(map(tuple.__getitem__, self.strategies, indices))
            except IndexError:
                pass
        raise GameFormatError(f"profile {indices} does not fit the shape {self.shape}")

    def label_set(self, profiles: Iterable[Profile]) -> frozenset:
        """The profiles' label tuples, comparable across games."""
        return frozenset(self.labels_of(p) for p in profiles)

    @cached_property
    def positions(self) -> tuple[dict[str, int], ...]:
        """Per player, each strategy label mapped to its index."""
        return tuple({lab: k for k, lab in enumerate(s)} for s in self.strategies)

    def profile_from_labels(self, labels: Sequence[str]) -> Profile | None:
        """The profile carrying these labels, or None if any is absent."""
        if len(labels) != self.player_count:
            return None
        try:
            return Profile(tuple(pos[lab] for pos, lab in zip(self.positions, labels)))
        except (KeyError, TypeError):  # absent or unhashable label
            return None

    def __repr__(self):
        dims = "x".join(str(k) for k in self.shape)
        return f"Game({self.player_count}p, {dims}, {self.canonical_id[:8]})"


def _assemble(player_count: int, strategies, ranks, game: Game | None = None) -> Game:
    """A game from checked parts, without checking them again: label
    tuples, and dense rank tuples that fit them.  ``build_game`` passes
    the tables it checked and ranked, ``restrict`` and ``reduce_players``
    slices of a checked game, and ``Game`` itself once its checks pass.
    Sets ``shape`` and ``num_profiles`` beside the fields."""
    game = object.__new__(Game) if game is None else game
    shape = tuple(map(len, strategies))
    vars(game).update(
        player_count=player_count,
        strategies=strategies,
        ranks=ranks,
        shape=shape,
        num_profiles=math.prod(shape),
    )
    return game


def _cells(shape: Sequence[int], axes: Sequence[Sequence[int]]) -> list[int]:
    """``Game.subgrid`` without its check, for the axes this module
    builds from a game's own shape and labels."""
    out = [0]
    for size, axis in zip(shape, axes):
        out = [k * size + i for k in out for i in axis]
    return out


@cache
def _profiles(shape: tuple[int, ...]) -> tuple[Profile, ...]:
    """``Game.profiles`` for every game of this shape.  Like ``_columns``,
    kept across calls until ``concepts.clear_cache`` empties it."""
    return tuple(map(Profile, itertools.product(*map(range, shape))))


@cache
def _columns(shape: tuple[int, ...], players: tuple[int, ...]):
    """``Game.columns`` for every game of this shape.  Kept across calls,
    like ``_profiles``; ``concepts.clear_cache`` empties it."""
    choices = [
        [range(k)] if i in players else [(v,) for v in range(k)]
        for i, k in enumerate(shape)
    ]
    return tuple(tuple(_cells(shape, axes)) for axes in itertools.product(*choices))


@cache
def _column_of(shape: tuple[int, ...], players: tuple[int, ...]) -> tuple[int, ...]:
    """Per profile of a game of this shape, in linear-index order, the
    number of its column in ``_columns(shape, players)``.  Kept like
    ``_columns``; ``concepts.clear_cache`` empties it."""
    out = [0] * math.prod(shape)
    for c, cells in enumerate(_columns(shape, players)):
        for k in cells:
            out[k] = c
    return tuple(out)


#: The bit of each (player index, strategy label), handed out in the order
#: the pairs are first met (``label_mask``).  An interning table, not a
#: memo: it only grows, and ``concepts.clear_cache`` leaves it, so every
#: mask handed out stays valid and means the same labels everywhere.
_label_bits: dict[tuple[int, str], int] = {}


def label_mask(strategies: Iterable[Iterable[str]]) -> int:
    """Per-player labels (``zip(labels)`` for a profile's) as one int: the
    sum of the bits of each (player index, label), a new pair taking the
    next free bit (``_label_bits``).  One registry serves every mask, so a
    subset of a game's labels has a mask inside the game's, whichever
    class, member or parent the masks were taken for.  Masks are read only
    as sets: no bit position reaches any output."""
    bits = _label_bits
    mask = 0
    for i, labels in enumerate(strategies):
        for lab in labels:
            bit = bits.get((i, lab))
            if bit is None:
                bit = bits[i, lab] = 1 << len(bits)
            mask |= bit
    return mask


_T = TypeVar("_T")

#: The facts that depend on a game's content alone, by (fact name,
#: canonical id), and those that depend on its labels alone, by (fact
#: name, strategies).  Content facts: concept values under their registry
#: ids (``concepts.eval_concept``), each concept's solution label sets
#: (``axioms._Table``), the best-response table (``_best_responses``),
#: ``jointly_optimal`` as the ``jo`` scan and the lemma gadgets read it,
#: ``_undominated`` and its mask (``axioms.isds``), the oracle's
#: equilibria (``theorems.verify_theorem1``) and, per budget, the strict
#: cut plan (``closures._cut_plan``).  Label facts: each game's profile
#: cells (``axioms._cells``) and, per flavor and budget, the cut plan of
#: the d- and reduction closures.  The closures and the closedness audits
#: read the same plans.  A canonical id is
#: a string and strategies a tuple, so the two kinds never share a key.
#: Every value is immutable, shared by every class and kept until
#: ``concepts.clear_cache`` empties the memo.
_facts: dict[tuple[Hashable, str | tuple], object] = {}


def _fact(name: Hashable, game: Game, compute: Callable[[Game], _T]) -> _T:
    """``compute(game)``, worked out once per game content (``_facts``).
    The key is the fact's name, not ``compute``, so a function that is
    swapped for a wrapper still finds the values computed before."""
    key = (name, game.canonical_id)
    value = _facts.get(key, _facts)  # the memo itself is never a value
    if value is _facts:
        value = _facts[key] = compute(game)
    return value


def _label_fact(name: Hashable, game: Game, compute: Callable[[Game], _T]) -> _T:
    """``compute(game)`` for a fact of the game's labels alone, worked out
    once per strategy tuple (``_facts``) and shared by every game that
    carries those labels, whatever its rank tables."""
    key = (name, game.strategies)
    value = _facts.get(key, _facts)
    if value is _facts:
        value = _facts[key] = compute(game)
    return value


def build_game(
    player_count: int,
    strategies: Sequence[Sequence[str]],
    payoffs: Sequence | None = None,
    ranks: Sequence | None = None,
) -> Game:
    """Build a game from payoff tables or explicit rank tables.

    Exactly one of ``payoffs`` / ``ranks`` must be given, one table per
    player.  Each table is a flat list in linear-index order (player 1
    most significant); a nested table is rejected.
    Finite real payoffs become dense ordinal ranks per player (higher
    payoff, lower rank) and the numeric values are discarded.  Rank
    input may use any non-negative integers; it is dense-normalized.
    """
    if (payoffs is None) == (ranks is None):
        raise GameFormatError("give exactly one of payoffs or ranks")
    strategies, tables = _checked_fields(
        player_count, strategies, payoffs if ranks is None else ranks,
        ranked=ranks is not None,
    )
    rank_tables = tuple(_normalize_ranks(t, reverse=ranks is None) for t in tables)
    return _assemble(player_count, strategies, rank_tables)


def _checked_fields(player_count, strategies, tables, ranked: bool):
    """A game's fields checked as ``build_game`` and ``Game`` both read
    them, in this order: an integer count of at least one player, one
    label list per player, one flat table per player covering every
    profile, the tables' values (non-negative integers when ``ranked``,
    finite reals otherwise), and per player a non-empty list of distinct
    strings.  Returns the label tuples and the tables as tuples, each
    input read once; ``GameFormatError`` names the first fault."""
    # bool subclasses int, and True would make a game equal to, but with
    # another canonical id than, the same game built with 1
    if type(player_count) is not int:
        raise GameFormatError(
            f"player count must be an integer, got {player_count!r}"
        )
    if player_count < 1:
        raise GameFormatError("a game needs at least one player")
    strategies = _strategy_lists(strategies)
    if len(strategies) != player_count:
        raise GameFormatError(
            f"expected {player_count} strategy lists, got {len(strategies)}"
        )
    total = math.prod(map(len, strategies))
    try:
        tables = list(tables)
    except TypeError:  # not iterable
        raise GameFormatError(
            f"tables must be one sequence per player, got {tables!r}"
        ) from None
    if len(tables) != player_count:
        raise GameFormatError(f"expected {player_count} tables, got {len(tables)}")
    tables = tuple(_flat_table(t, total) for t in tables)
    values = [v for t in tables for v in t]
    # Ranks take one test on the set of value types, which bool fails.
    # For payoffs, bool subclasses int, and ``abs(v) < inf`` fails NaN and
    # infinities but, unlike ``isfinite``, passes ints too large for a float.
    if ranked:
        if not set(map(type, values)) <= {int} or min(values, default=0) < 0:
            raise GameFormatError("ranks must be non-negative integers")
    elif not all(
        isinstance(v, numbers.Real) and not isinstance(v, bool) and abs(v) < math.inf
        for v in values
    ):
        raise GameFormatError("payoffs must be finite numbers")
    for i, labels in enumerate(strategies):
        if not labels:
            raise GameFormatError(f"player {i + 1} has an empty strategy list")
        if not all(isinstance(lab, str) for lab in labels):
            raise GameFormatError(f"player {i + 1} has non-string labels")
        if len(set(labels)) != len(labels):
            raise GameFormatError(f"player {i + 1} has duplicate strategy labels")
    return strategies, tables


def _strategy_lists(strategies) -> tuple[tuple, ...]:
    """The per-player label lists as tuples.  A string is not read as a
    list of its characters."""
    try:
        lists = tuple(strategies)
        out = tuple(tuple(s) for s in lists)
    except TypeError:  # not an iterable of iterables
        out = None
    if out is None or any(isinstance(s, str) for s in lists):
        raise GameFormatError(
            f"strategies must be one list of labels per player, got {strategies!r}"
        )
    return out


def _flat_table(table, total: int) -> tuple:
    try:
        items = tuple(table)
    except TypeError:
        raise GameFormatError("table is not a sequence") from None
    if any(issubclass(t, (list, tuple)) for t in set(map(type, items))):
        raise GameFormatError("tables must be flat lists")
    if len(items) != total:
        raise GameFormatError(f"flat table has {len(items)} entries, expected {total}")
    return items


def _kept_indices(game: Game, label_subsets) -> list[list[int]]:
    """Per player, the ascending indices of the labels kept.  Each
    player's labels may come in any order and with repeats; anything
    else, index tuples included, is a ``GameFormatError``.  A string is
    not read as a subset of its characters."""
    try:
        subsets = list(label_subsets)
        idx = [
            sorted({pos[lab] for lab in s}) for pos, s in zip(game.positions, subsets)
        ]
    except (TypeError, KeyError):  # not nested, unhashable or absent label
        idx = None
    if (
        idx is None
        or len(subsets) != game.player_count
        or not all(idx)
        or any(isinstance(s, str) for s in subsets)
    ):
        raise GameFormatError(
            f"expected one non-empty list of the game's labels per player, "
            f"got {label_subsets!r}"
        )
    return idx


def restrict(parent: Game, subsets) -> Game:
    """The reduction of ``parent`` to the given per-player label subsets.

    Strategy lists keep the parent's order; rank tables are the
    parent's tables on the surviving profiles, dense-normalized per
    player.  Restricting to the full subsets returns a game equal to
    the parent.  The game records that it restricts the parent and,
    since restriction composes, every game the parent restricts
    (``Game._restricts``); ``_cut`` builds it once the subsets pass.
    """
    idx = _kept_indices(parent, subsets)
    strategies = tuple(
        tuple(labels[k] for k in ks) for labels, ks in zip(parent.strategies, idx)
    )
    return _cut(parent, strategies, _cells(parent.shape, idx))


def _cut(parent: Game, strategies, cells: Sequence[int]) -> Game:
    """``restrict`` without its checks: ``parent`` cut to these label
    tuples, in the parent's order, whose profiles are ``cells`` (``_cells``
    of their indices).  Sets the restriction record.  ``restrict`` calls
    it once its checks pass, and a closure once per member, from its plan
    (``closures._cut_plan``)."""
    ranks = _slice_ranks(parent, cells, range(parent.player_count))
    child = _assemble(parent.player_count, strategies, ranks)
    vars(child)["_restricts"] = parent._restricts | {parent.canonical_id}
    return child


def _slice_ranks(
    game: Game, cells: Sequence[int], players: Iterable[int]
) -> tuple[tuple[int, ...], ...]:
    """The players' rank tables on these cells, dense-normalized; a
    one-cell slice, which ``itemgetter`` returns bare, is ``(0,)``."""
    if len(cells) == 1:
        return tuple((0,) for _ in players)
    take = operator.itemgetter(*cells)
    return tuple(_normalize_ranks(take(game.ranks[i]), reverse=False) for i in players)


def is_reduction(candidate: Game, parent: Game) -> bool:
    """True when candidate is the parent restricted to a label subset.

    Requires identical player counts, label-wise order-preserving
    strategy subsets, and agreement of the preference order on every
    surviving profile pair.  Because both games carry dense rank
    tables, order agreement is exactly equality with the normalized
    restriction.  A candidate that ``restrict`` cut from the parent, or
    from a game cut from it, says so in its record (``Game._restricts``).
    """
    record = candidate._restricts
    if record and parent.canonical_id in record:
        return True
    if candidate.player_count != parent.player_count:
        return False
    idx = []
    for pos, labels in zip(parent.positions, candidate.strategies):
        try:
            ids = [pos[lab] for lab in labels]
        except KeyError:
            return False
        if any(b <= a for a, b in zip(ids, ids[1:])):
            return False
        idx.append(ids)
    cells = _cells(parent.shape, idx)
    return _slice_ranks(parent, cells, range(parent.player_count)) == candidate.ranks


def is_cut(parent: Game, subsets, m: int) -> bool:
    """Some player keeps exactly ``m`` strategies, and every other player
    keeps their full set or at most ``m``: with ``m = 1`` a dummy player,
    with ``m = 2`` a quasi-dummy player."""
    sizes = [len(s) for s in _kept_indices(parent, subsets)]
    return m in sizes and all(
        size == k or size <= m for size, k in zip(sizes, parent.shape)
    )


def _best_responses(game: Game) -> tuple[tuple[int, ...], ...]:
    """Per player i and per column of ``_columns(game.shape, (i,))``, the
    bitmask of the strategies at the column's minimal rank (bit ``a`` for
    strategy ``a``), worked out once per game content (``_fact``, under a
    tuple name, which no concept id is).  ``concepts.nash`` and
    ``concepts.jointly_optimal`` read it, and so does ``_undominated``."""
    return _fact(("best responses",), game, _best_response_scan)


def _best_response_scan(game: Game) -> tuple[tuple[int, ...], ...]:
    # Player i's column that starts at cell r is the strided slice
    # table[r : r + block : stride]: stride is the product of the later
    # players' strategy counts, block is player i's count times stride.
    # The columns come in ``_columns(shape, (i,))`` order, earlier
    # players outermost, which ``concepts.nash`` and ``_column_of`` rely on.
    out = []
    stride = game.num_profiles
    for size, table in zip(game.shape, game.ranks):
        block, stride = stride, stride // size
        out.append(tuple([
            _low_mask(table[r : r + block : stride])
            for start in range(0, len(table), block)
            for r in range(start, start + stride)
        ]))
    return tuple(out)


@cache
def _low_mask(column: tuple[int, ...]) -> int:
    """The bitmask of the positions of a rank column's minimum.  The same
    columns recur across games, so each is worked out once; kept like
    ``_columns``, and ``concepts.clear_cache`` empties it."""
    low = min(column)
    return sum(1 << a for a, v in enumerate(column) if v == low)


def _undominated(game: Game) -> tuple[tuple[str, ...], ...]:
    """Per player, the strategies no strategy strictly dominates (beats
    at every column of the full opponent profile space), worked out once
    per game content (``_fact``).  A best response somewhere
    (``_best_responses``) is kept without a test; every other strategy
    is tested, stopping at the first dominator and at the first column
    that refutes one.  The one dominance routine: strict dominance is
    transitive and the game finite, so a reduction removes only
    dominated strategies, each with a kept dominator, exactly when it
    keeps all of these.  ``is_strict_reduction`` tests that on labels,
    ``axioms.isds`` on class masks, and ``enumerate_reductions(game,
    "strict")`` builds the subsets that keep them."""
    return _fact("undominated", game, _dominance_scan)


def _dominance_scan(game: Game) -> tuple[tuple[str, ...], ...]:
    out = []
    for i, masks in enumerate(_best_responses(game)):
        labels, responders = game.strategies[i], reduce(operator.or_, masks)
        t, cols = game.ranks[i], _columns(game.shape, (i,))
        out.append(tuple(
            lab for b, lab in enumerate(labels) if responders >> b & 1 or not any(
                all(t[c[a]] < t[c[b]] for c in cols) for a in range(len(labels))
            )
        ))
    return tuple(out)


def is_strict_reduction(candidate: Game, parent: Game) -> bool:
    """True when candidate is a reduction of parent that removes only
    strictly dominated strategies, at least one, each with a retained
    dominator: it removes some and keeps all of ``_undominated(parent)``."""
    kept = candidate.strategies
    return (
        is_reduction(candidate, parent)
        and kept != parent.strategies
        and all(set(u) <= set(k) for u, k in zip(_undominated(parent), kept))
    )


def merge(parent: Game, a, b) -> Game:
    """Restrict the parent to the player-wise union of two label subsets.

    This is the smallest profile space containing both reductions'
    profiles; profiles outside either input can appear, which is why
    the operation needs the parent.  Commutative and idempotent, and
    merging anything with the full subsets returns the parent.
    """
    union = zip(parent.strategies, _kept_indices(parent, a), _kept_indices(parent, b))
    return restrict(parent, [[labels[k] for k in x + y] for labels, x, y in union])


def reduce_players(game: Game, keep: Iterable[int], fixed: Profile) -> Game:
    """Project onto a proper subset of players, pinning the rest.

    Kept players (reindexed in original order) retain their full
    strategy sets; departed players are committed to their components
    of ``fixed``.  Rank tables are the original ranks on the pinned
    slice, dense-normalized.
    """
    try:
        keep = tuple(keep)
    except TypeError:
        raise GameFormatError(f"keep must be a sequence: {keep!r}") from None
    if not all(type(i) is int for i in keep):
        raise GameFormatError(f"player indices must be integers, got {keep!r}")
    keep = tuple(sorted(set(keep)))
    n = game.player_count
    if not keep:
        raise GameFormatError("keep must name at least one player")
    if len(keep) >= n:
        raise GameFormatError("keep must be a proper subset of the players")
    if keep[0] < 0 or keep[-1] >= n:
        raise GameFormatError("keep contains an invalid player index")
    if not isinstance(fixed, Profile):
        raise GameFormatError(f"fixed must be a Profile, got {fixed!r}")
    k = fixed.linear_index(game.shape)  # raises unless fixed fits the game
    cells = _columns(game.shape, keep)[_column_of(game.shape, keep)[k]]
    strategies = tuple(game.strategies[i] for i in keep)
    return _assemble(len(keep), strategies, _slice_ranks(game, cells, keep))


def _supersets(
    labels: tuple[str, ...], must: Sequence[str] = ()
) -> Iterator[tuple[str, ...]]:
    """The non-empty subsets of ``labels`` that contain ``must``, in
    ascending bitmask order (bit j selects ``labels[j]``)."""
    low = sum(1 << j for j, label in enumerate(labels) if label in must)
    mask = low or 1
    while not mask >> len(labels):
        yield tuple(label for j, label in enumerate(labels) if mask >> j & 1)
        mask = (mask + 1) | low


def _small_or_full(labels: tuple[str, ...]) -> Iterator[tuple[str, ...]]:
    """The subsets of ``labels`` with one or two members, then all of
    them, in ascending bitmask order: the dummy-or-quasi candidates of
    one player."""
    for hi, top in enumerate(labels):
        yield (top,)
        for low in labels[:hi]:
            yield low, top
    if len(labels) > 2:
        yield labels


def enumerate_reductions(
    game: Game,
    flavor_filter: str = "all",
    budget: int | None = None,
) -> Iterator[tuple[tuple[str, ...], ...]]:
    """Stream the game's reductions that pass ``flavor_filter``, each
    named by its per-player label subsets in the game's order.

    Each spec is drawn from a product of per-player candidate lists, in
    player-wise subset bitmask ascending order with player 1 most
    significant (bit k of a mask selects strategy index k), so
    witnesses and golden tests are reproducible.  ``flavor_filter`` is
    one of:

    - ``all``: every player keeps any non-empty subset;
    - ``dummy-or-quasi``: every player keeps their full set or at most
      two strategies, and some player keeps at most two (a dummy or
      quasi-dummy player, see ``is_cut``);
    - ``strict``: every player keeps the strategies that no strategy
      strictly dominates, so each one removed has a kept strict
      dominator, and some strategy is removed (see
      ``is_strict_reduction``).

    The full spec is last in the product; it is dropped when it does
    not pass the filter.  A budget caps the specs considered, the
    product of the list lengths, and raises ``BudgetExceededError``
    when the game is too large.  No list is read past the budget, so
    a refused count can be lower than the full product.
    """
    cap = None if budget is None else min(max(budget + 1, 0), sys.maxsize)
    if flavor_filter == "all":
        lists = map(_supersets, game.strategies)
    elif flavor_filter == "dummy-or-quasi":
        lists = map(_small_or_full, game.strategies)
    elif flavor_filter == "strict":
        lists = map(_supersets, game.strategies, _undominated(game))
    else:
        raise ValueError(f"unknown flavor filter: {flavor_filter!r}")
    lists = [list(itertools.islice(c, cap)) for c in lists]
    total = math.prod(map(len, lists))
    if budget is not None and total > budget:
        raise BudgetExceededError(
            f"{total} subset specs exceed the budget of {budget}"
        )
    keep_full = flavor_filter == "all" or (
        flavor_filter == "dummy-or-quasi" and min(game.shape) <= 2
    )
    return itertools.islice(itertools.product(*lists), total - (not keep_full))
