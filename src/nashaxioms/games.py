"""Finite normal-form games with ordinal preferences.

A game stores one integer rank table per player over the full profile
space.  Lower rank means strictly preferred, equal rank means
indifferent, so every table is a complete and transitive preference
relation by construction.  Rank tables are kept dense (the values used
are exactly 0..k), which turns preference-order equality into plain
tuple equality and gives every game a canonical content hash.

All operations here are pure functions over immutable games: they can
be called concurrently from any number of threads and return fresh
objects, or, for ``Game.columns``, tuples shared by every game of a
shape.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import numbers
from dataclasses import dataclass
from functools import cache, cached_property
from typing import Iterable, Iterator, Sequence


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
        strategies = _strategy_lists(self.strategies)
        try:
            ranks = tuple(map(tuple, self.ranks))
        except TypeError:  # not an iterable of iterables
            raise GameFormatError(
                f"rank tables must be one sequence per player, got {self.ranks!r}"
            ) from None
        _check_player_count(self.player_count)
        _check_labels(self.player_count, strategies)
        if len(ranks) != self.player_count:
            raise GameFormatError(
                f"expected {self.player_count} rank tables, got {len(ranks)}"
            )
        total = math.prod(map(len, strategies))
        for i, table in enumerate(ranks):
            if len(table) != total:
                raise GameFormatError(
                    f"rank table for player {i + 1} covers {len(table)} profiles, "
                    f"expected {total}"
                )
            # the types first: ``set`` would fail on an unhashable value
            used = set(table) if set(map(type, table)) == {int} else None
            if used is None or min(used) < 0:
                raise GameFormatError(
                    f"rank table for player {i + 1} must hold non-negative integers"
                )
            if max(used) != len(used) - 1:
                raise GameFormatError(
                    f"rank table for player {i + 1} is not dense-normalized"
                )
        _assemble(self.player_count, strategies, ranks, self)

    @cached_property
    def canonical_id(self) -> str:
        payload = json.dumps(
            {
                "players": self.player_count,
                "strategies": [list(s) for s in self.strategies],
                "ranks": [list(r) for r in self.ranks],
            },
            separators=(",", ":"),
            sort_keys=True,
        )
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()

    def profiles(self) -> Iterator[Profile]:
        """All profiles in linear-index order."""
        for combo in itertools.product(*(range(k) for k in self.shape)):
            yield Profile(combo)

    def profile_at(self, linear: int) -> Profile:
        return Profile.from_linear(self.shape, linear)

    def rank(self, player: int, profile: Profile) -> int:
        self._check_players((player,))
        return self.ranks[player][profile.linear_index(self.shape)]

    def prefers(self, player: int, a: Profile, b: Profile) -> bool:
        """Strict preference of player for profile a over profile b."""
        return self.rank(player, a) < self.rank(player, b)

    def subgrid(self, axes: Sequence[Sequence[int]]) -> list[int]:
        """Linear indices of the sub-grid ``axes[0] x ... x axes[n-1]``
        (each axis ascending), in linear-index order.  Besides
        ``Profile.linear_index``/``from_linear``, the only code that
        knows the flat-table layout."""
        axes = [list(axis) for axis in axes]
        if len(axes) != self.player_count or not all(
            0 <= i < size for size, axis in zip(self.shape, axes) for i in axis
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
def _columns(shape: tuple[int, ...], players: tuple[int, ...]):
    """``Game.columns`` for every game of this shape.  The only table
    kept across calls; ``concepts.clear_cache`` empties it."""
    choices = [
        [range(k)] if i in players else [(v,) for v in range(k)]
        for i, k in enumerate(shape)
    ]
    return tuple(tuple(_cells(shape, axes)) for axes in itertools.product(*choices))


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
    _check_player_count(player_count)
    strategies = _strategy_lists(strategies)
    if len(strategies) != player_count:
        raise GameFormatError(
            f"expected {player_count} strategy lists, got {len(strategies)}"
        )
    total = math.prod(map(len, strategies))
    tables = payoffs if payoffs is not None else ranks
    try:
        count = len(tables)
    except TypeError:  # not a sequence
        raise GameFormatError(
            f"tables must be one sequence per player, got {tables!r}"
        ) from None
    if count != player_count:
        raise GameFormatError(f"expected {player_count} tables, got {count}")
    flat_tables = [_flat_table(t, total) for t in tables]
    values = [v for t in flat_tables for v in t]
    # Ranks take one test on the set of value types, which bool fails.
    # For payoffs, bool subclasses int, and ``abs(v) < inf`` fails NaN and
    # infinities but, unlike ``isfinite``, passes ints too large for a float.
    if ranks is not None:
        if not set(map(type, values)) <= {int} or min(values, default=0) < 0:
            raise GameFormatError("ranks must be non-negative integers")
    elif not all(
        isinstance(v, numbers.Real) and not isinstance(v, bool) and abs(v) < math.inf
        for v in values
    ):
        raise GameFormatError("payoffs must be finite numbers")
    _check_labels(player_count, strategies)
    rank_tables = tuple(
        _normalize_ranks(t, reverse=payoffs is not None) for t in flat_tables
    )
    return _assemble(player_count, strategies, rank_tables)


def _check_player_count(player_count) -> None:
    # bool subclasses int, and True would make a game equal to, but with
    # another canonical id than, the same game built with 1
    if type(player_count) is not int:
        raise GameFormatError(
            f"player count must be an integer, got {player_count!r}"
        )


def _check_labels(player_count: int, strategies: tuple[tuple, ...]) -> None:
    """The label checks ``Game`` and ``build_game`` share, in this order:
    at least one player, one label list each, and per player a non-empty
    list of distinct strings."""
    if player_count < 1:
        raise GameFormatError("a game needs at least one player")
    if len(strategies) != player_count:
        raise GameFormatError(
            f"expected {player_count} strategy lists, got {len(strategies)}"
        )
    for i, labels in enumerate(strategies):
        if not labels:
            raise GameFormatError(f"player {i + 1} has an empty strategy list")
        if not all(isinstance(lab, str) for lab in labels):
            raise GameFormatError(f"player {i + 1} has non-string labels")
        if len(set(labels)) != len(labels):
            raise GameFormatError(f"player {i + 1} has duplicate strategy labels")


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


def _flat_table(table, total: int) -> list:
    try:
        items = list(table)
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
    the parent.
    """
    idx = _kept_indices(parent, subsets)
    strategies = tuple(
        tuple(labels[k] for k in ks) for labels, ks in zip(parent.strategies, idx)
    )
    cells = _cells(parent.shape, idx)
    ranks = _slice_ranks(parent, cells, range(parent.player_count))
    return _assemble(parent.player_count, strategies, ranks)


def _slice_ranks(
    game: Game, cells: Sequence[int], players: Iterable[int]
) -> tuple[tuple[int, ...], ...]:
    """The players' rank tables on these cells, dense-normalized."""
    return tuple(
        _normalize_ranks([game.ranks[i][k] for k in cells], reverse=False)
        for i in players
    )


def is_reduction(candidate: Game, parent: Game) -> bool:
    """True when candidate is the parent restricted to a label subset.

    Requires identical player counts, label-wise order-preserving
    strategy subsets, and agreement of the preference order on every
    surviving profile pair.  Because both games carry dense rank
    tables, order agreement is exactly equality with the normalized
    restriction.
    """
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


def strict_dominators(game: Game) -> tuple[dict[str, frozenset[str]], ...]:
    """Per player, each strategy label mapped to the labels that beat it
    at every column of the game's full opponent profile space (with one
    player, a plain pairwise comparison).  No label maps to itself."""
    out = []
    for i, labels in enumerate(game.strategies):
        cols = [[game.ranks[i][k] for k in col] for col in game.columns(i)]
        out.append({
            lab: frozenset(
                by for a, by in enumerate(labels) if all(c[a] < c[b] for c in cols)
            )
            for b, lab in enumerate(labels)
        })
    return tuple(out)


def _undominated(by_label: dict[str, frozenset[str]]) -> list[str]:
    """One player's strategies that no strategy strictly dominates, given
    the player's ``strict_dominators`` entry.  Strict dominance is
    transitive, so each other strategy has one of these as a dominator:
    a subset keeps a dominator of every strategy it drops exactly when
    it keeps all of them."""
    return [label for label, by in by_label.items() if not by]


def removes_only_dominated(dominators, kept) -> bool:
    """Some strategy is removed, and each removed one has a kept strict
    dominator, given a parent's ``strict_dominators`` table and the
    labels each player keeps."""
    pairs = list(zip(dominators, kept, strict=True))
    return all(
        label in keep for by_label, keep in pairs for label in _undominated(by_label)
    ) and any(label not in keep for by_label, keep in pairs for label in by_label)


def is_strict_reduction(candidate: Game, parent: Game) -> bool:
    """True when candidate is a reduction of parent that removes only
    strictly dominated strategies: at least one, each with a retained
    dominator against the parent's full opponent sets."""
    return is_reduction(candidate, parent) and removes_only_dominated(
        strict_dominators(parent), candidate.strategies
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
    fixed.linear_index(game.shape)  # raises unless fixed fits the game
    return _assemble(len(keep), *_pinned_slice(game, keep, fixed))


def _pinned_slice(
    game: Game, keep: tuple[int, ...], fixed: Profile
) -> tuple[tuple[tuple[str, ...], ...], tuple[tuple[int, ...], ...]]:
    """``reduce_players`` without its checks: the kept players' labels and
    their dense rank tables on the column of ``_columns(shape, keep)``
    where the other players play their components of ``fixed``.  ``keep``
    is a sorted tuple of players, a proper subset, and ``fixed`` fits the
    game."""
    k = 0
    for i, size in enumerate(game.shape):
        if i not in keep:
            k = k * size + fixed.indices[i]
    strategies = tuple(game.strategies[i] for i in keep)
    return strategies, _slice_ranks(game, _columns(game.shape, keep)[k], keep)


def _supersets(k: int, must: Sequence[int]) -> Iterator[tuple[int, ...]]:
    """The non-empty subsets of ``range(k)`` that contain ``must``, in
    ascending bitmask order (bit j selects strategy j)."""
    free = [j for j in range(k) if j not in must]
    for bits in range(1 << len(free)):
        chosen = {j for b, j in enumerate(free) if bits >> b & 1}
        subset = tuple(j for j in range(k) if j in must or j in chosen)
        if subset:
            yield subset


def _small_or_full(k: int) -> Iterator[tuple[int, ...]]:
    """The subsets of ``range(k)`` with one or two members, then the full
    set, in ascending bitmask order."""
    for hi in range(k):
        yield (hi,)
        yield from ((lo, hi) for lo in range(hi))
    if k > 2:
        yield tuple(range(k))


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
      ``removes_only_dominated``).

    The full spec is last in the product; it is dropped when it does
    not pass the filter.  A budget caps the specs considered, the
    product of the list lengths, and raises ``BudgetExceededError``
    when the game is too large.  No list is read past the budget, so
    a refused count can be lower than the full product.
    """
    if flavor_filter == "all":
        lists = [_supersets(k, ()) for k in game.shape]
    elif flavor_filter == "dummy-or-quasi":
        lists = [_small_or_full(k) for k in game.shape]
    elif flavor_filter == "strict":
        lists = [
            _supersets(len(pos), [pos[label] for label in _undominated(by_label)])
            for pos, by_label in zip(game.positions, strict_dominators(game))
        ]
    else:
        raise ValueError(f"unknown flavor filter: {flavor_filter!r}")
    cap = None if budget is None else budget + 1
    lists = [
        [tuple(labels[k] for k in subset) for subset in itertools.islice(c, cap)]
        for labels, c in zip(game.strategies, lists)
    ]
    total = math.prod(map(len, lists))
    if budget is not None and total > budget:
        raise BudgetExceededError(
            f"{total} subset specs exceed the budget of {budget}"
        )
    keep_full = flavor_filter == "all" or (
        flavor_filter == "dummy-or-quasi" and min(game.shape) <= 2
    )
    return itertools.islice(itertools.product(*lists), total - (not keep_full))
