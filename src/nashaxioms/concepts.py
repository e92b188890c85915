"""Solution concepts: mappings from a game to a set of its profiles.

The registry holds every concept the engine can evaluate by id.  All
concepts are deterministic functions of a game's canonical form, and
``eval_concept`` memoizes results.
"""

from __future__ import annotations

import itertools
from typing import Callable

from .games import Game, Profile


class ConceptDomainError(ValueError):
    """A concept was applied to a game shape it is not defined on."""


def nash(game: Game) -> frozenset[Profile]:
    """The Nash equilibrium correspondence, by exhaustive best response.

    A profile is kept when every player's strategy attains the minimal
    rank in its opponent column.
    """
    colmin: list[dict[tuple[int, ...], int]] = []
    for player in range(game.player_count):
        best: dict[tuple[int, ...], int] = {}
        for p in game.profiles():
            col = p.drop(player)
            r = game.rank(player, p)
            if r < best.get(col, r + 1):
                best[col] = r
        colmin.append(best)
    return frozenset(
        p
        for p in game.profiles()
        if all(
            game.rank(i, p) == colmin[i][p.drop(i)]
            for i in range(game.player_count)
        )
    )


def _coalition_blocks(
    game: Game, profile: Profile, coalition: tuple[int, ...]
) -> bool:
    base = {i: game.rank(i, profile) for i in coalition}
    for move in itertools.product(*(range(game.shape[i]) for i in coalition)):
        target = list(profile.indices)
        for i, v in zip(coalition, move):
            target[i] = v
        deviated = Profile(tuple(target))
        if deviated == profile:
            continue
        if all(game.rank(i, deviated) < base[i] for i in coalition):
            return True
    return False


def strong_nash(game: Game) -> frozenset[Profile]:
    """Profiles no coalition can profitably deviate from.

    A deviation blocks only when every coalition member strictly
    improves.  Singleton coalitions make this a subset of ``nash``.
    """
    n = game.player_count
    coalitions = [
        tuple(i for i in range(n) if mask >> i & 1)
        for mask in range(1, 1 << n)
    ]
    return frozenset(
        p
        for p in game.profiles()
        if not any(
            _coalition_blocks(game, p, c) for c in coalitions
        )
    )


def jointly_optimal(game: Game) -> frozenset[Profile]:
    """Profiles made up entirely of weakly dominant strategies.

    A strategy is weakly dominant when it attains the column-minimal
    rank at every opponent column.  Always a subset of ``nash``; for
    one-player games the two coincide.
    """
    dominant: list[list[int]] = []
    for player in range(game.player_count):
        options = set(range(game.shape[player]))
        others = [k for i, k in enumerate(game.shape) if i != player]
        for col in itertools.product(*(range(k) for k in others)):
            ranks = {
                a: game.rank(player, Profile(col[:player] + (a,) + col[player:]))
                for a in range(game.shape[player])
            }
            best = min(ranks.values())
            options &= {a for a, r in ranks.items() if r == best}
            if not options:
                return frozenset()
        dominant.append(sorted(options))
    return frozenset(Profile(c) for c in itertools.product(*dominant))


def empty_set(game: Game) -> frozenset[Profile]:
    return frozenset()


def all_profiles(game: Game) -> frozenset[Profile]:
    return frozenset(game.profiles())


def ne_indifference_closure(game: Game) -> frozenset[Profile]:
    """Nash equilibria plus every profile all players are indifferent
    to some equilibrium about."""
    ne = nash(game)
    if not ne:
        return ne
    return frozenset(
        s
        for s in game.profiles()
        if s in ne
        or any(
            all(
                game.rank(i, s) == game.rank(i, t)
                for i in range(game.player_count)
            )
            for t in ne
        )
    )


def parity_ne(game: Game) -> frozenset[Profile]:
    """Nash equilibria on even player counts, empty otherwise."""
    return nash(game) if game.player_count % 2 == 0 else frozenset()


def ex4_phi(game: Game) -> frozenset[Profile]:
    """All profiles on one-player games, Nash on two-player games."""
    if game.player_count == 1:
        return all_profiles(game)
    if game.player_count == 2:
        return nash(game)
    raise ConceptDomainError(
        f"ex4_phi is defined on 1- and 2-player games only, "
        f"got {game.player_count} players"
    )


def ex4_phi_prime(game: Game) -> frozenset[Profile]:
    """Empty on one-player games, strong Nash on two-player games."""
    if game.player_count == 1:
        return frozenset()
    if game.player_count == 2:
        return strong_nash(game)
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
    ne = nash(game)
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

_cache: dict[tuple[str, str], frozenset[Profile]] = {}


def eval_concept(concept: str, game: Game) -> frozenset[Profile]:
    """Evaluate a registered concept on a game, memoized."""
    try:
        fn = CONCEPTS[concept]
    except KeyError:
        raise ValueError(f"unknown solution concept id: {concept!r}") from None
    key = (concept, game.canonical_id)
    hit = _cache.get(key)
    if hit is not None:
        return hit
    value = fn(game)
    _cache[key] = value
    return value


def clear_cache() -> None:
    _cache.clear()
