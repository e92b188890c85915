"""Solution concepts: mappings from a game to a set of its profiles.

The registry holds every concept the engine can evaluate by id.  All
concepts are deterministic functions of a game's canonical form, and
``eval_concept`` memoizes results per game content (``games._fact``).
"""

from __future__ import annotations

from functools import reduce
from operator import and_
from typing import Callable

from .closures import clear_reductions
from .games import (
    Game,
    Profile,
    _best_responses,
    _column_of,
    _columns,
    _fact,
    _facts,
    _ids,
    _low_mask,
    _profiles,
)


class ConceptDomainError(ValueError):
    """A concept was applied to a game shape it is not defined on."""


def nash(game: Game) -> frozenset[Profile]:
    """The Nash equilibrium correspondence, read from the best-response
    table (``games._best_responses``).

    A profile is kept when every player's strategy attains the minimal
    rank in its opponent column: player 1's best responses are the
    candidates, and each later player keeps those where it best responds.
    """
    shape, best = game.shape, _best_responses(game)
    profiles = _profiles(shape)
    found = [
        k for col, mask in zip(_columns(shape, (0,)), best[0])
        for a, k in enumerate(col) if mask >> a & 1
    ]
    for i in range(1, game.player_count):
        column, masks = _column_of(shape, (i,)), best[i]
        found = [k for k in found if masks[column[k]] >> profiles[k].indices[i] & 1]
    return frozenset(map(profiles.__getitem__, found))


def _coalition_blocks(game: Game, coalition: tuple[int, ...], among) -> set[int]:
    """The linear indices in ``among`` of the profiles that a joint
    deviation of the coalition improves strictly for every member."""
    tables = [game.ranks[i] for i in coalition]
    return {
        k
        for deviations in game.columns(*coalition)
        for k in deviations
        if k in among and any(all(t[d] < t[k] for t in tables) for d in deviations)
    }


def strong_nash(game: Game) -> frozenset[Profile]:
    """Profiles no coalition can profitably deviate from.

    A deviation blocks only when every coalition member strictly
    improves.  Singleton coalitions block exactly the profiles that are
    not Nash equilibria, so the larger coalitions are tested on the
    equilibria alone.
    """
    n = game.player_count
    left = {s.linear_index(game.shape): s for s in eval_concept("nash", game)}
    for mask in range(3, 1 << n):
        if mask & mask - 1:  # two players or more
            for k in _coalition_blocks(
                game, tuple(i for i in range(n) if mask >> i & 1), left
            ):
                del left[k]
    return frozenset(left.values())


def jointly_optimal(game: Game) -> frozenset[Profile]:
    """Profiles made up entirely of weakly dominant strategies.

    A strategy is weakly dominant when it attains the column-minimal
    rank at every opponent column: its bit is in every one of the
    player's best-response masks (``games._best_responses``).  Always a
    subset of ``nash``; for one-player games the two coincide.
    """
    dominant: list[list[int]] = []
    for size, masks in zip(game.shape, _best_responses(game)):
        always = reduce(and_, masks)
        if not always:
            return frozenset()
        dominant.append([a for a in range(size) if always >> a & 1])
    return frozenset(game.profile_at(k) for k in game.subgrid(dominant))


def empty_set(game: Game) -> frozenset[Profile]:
    return frozenset()


def all_profiles(game: Game) -> frozenset[Profile]:
    return frozenset(game.profiles())


def ne_indifference_closure(game: Game) -> frozenset[Profile]:
    """Nash equilibria plus every profile all players are indifferent
    to some equilibrium about."""
    rank_vectors = list(zip(*game.ranks))
    tied = {
        rank_vectors[t.linear_index(game.shape)] for t in eval_concept("nash", game)
    }
    return frozenset(
        game.profile_at(k) for k, v in enumerate(rank_vectors) if v in tied
    )


def parity_ne(game: Game) -> frozenset[Profile]:
    """Nash equilibria on even player counts, empty otherwise."""
    return eval_concept("nash", game) if game.player_count % 2 == 0 else frozenset()


def ex4_phi(game: Game) -> frozenset[Profile]:
    """All profiles on one-player games, Nash on two-player games."""
    if game.player_count == 1:
        return all_profiles(game)
    if game.player_count == 2:
        return eval_concept("nash", game)
    raise ConceptDomainError(
        f"ex4_phi is defined on 1- and 2-player games only, "
        f"got {game.player_count} players"
    )


def ex4_phi_prime(game: Game) -> frozenset[Profile]:
    """Empty on one-player games, strong Nash on two-player games."""
    if game.player_count == 1:
        return frozenset()
    if game.player_count == 2:
        return eval_concept("strong_nash", game)
    raise ConceptDomainError(
        f"ex4_phi_prime is defined on 1- and 2-player games only, "
        f"got {game.player_count} players"
    )


def ex5_phi(game: Game) -> frozenset[Profile]:
    """Player-1-undominated Nash equilibria, with one carve-out.

    Two-player games whose second player is pinned to the single
    strategy R and which have exactly two profiles map to the empty
    set; every other game maps to the Nash equilibria not strictly
    beaten (for player 1) by another equilibrium.
    """
    if game.player_count != 2:
        raise ConceptDomainError(
            f"ex5_phi is defined on 2-player games only, "
            f"got {game.player_count} players"
        )
    if game.strategies[1] == ("R",) and game.num_profiles == 2:
        return frozenset()
    ne = eval_concept("nash", game)
    return frozenset(
        s for s in ne if not any(game.rank(0, t) < game.rank(0, s) for t in ne)
    )


CONCEPTS: dict[str, Callable[[Game], frozenset[Profile]]] = {
    "nash": nash,
    "strong_nash": strong_nash,
    "empty": empty_set,
    "all_profiles": all_profiles,
    "ne_indifference_closure": ne_indifference_closure,
    "parity_ne": parity_ne,
    "ex4_phi": ex4_phi,
    "ex4_phi_prime": ex4_phi_prime,
    "ex5_phi": ex5_phi,
}

#: Registry ids in a fixed, report-stable order.
CONCEPT_IDS = tuple(CONCEPTS)


def eval_concept(concept: str, game: Game) -> frozenset[Profile]:
    """Evaluate a registered concept on a game, memoized per game content
    under the concept's id; a miss calls the registry's function."""
    try:
        fn = CONCEPTS[concept]
    except KeyError:
        raise ValueError(f"unknown solution concept id: {concept!r}") from None
    return _fact(concept, game, fn)


def clear_cache() -> None:
    """Forget every memoized result: the per-content and per-label facts
    (concept values, solution label sets, cells and specs among them) and
    canonical ids, the per-shape tables behind ``Game.columns``,
    ``Game.profiles`` and each profile's column (``games._column_of``),
    each rank column's minimum mask (``games._low_mask``), and the facts
    that game classes have worked out.  The label-bit registry
    (``games._label_bits``) stays: it only interns labels, and the masks
    handed out under it stay valid."""
    _facts.clear()
    _ids.clear()
    _columns.cache_clear()
    _column_of.cache_clear()
    _low_mask.cache_clear()
    _profiles.cache_clear()
    clear_reductions()
