"""Brute-force reference implementations.

These are deliberately naive: plain loops over profiles and unilateral
deviations, sharing no logic with the optimized engine paths they
cross-check.  They exist so that every reported equilibrium set can be
confirmed by an independent route.
"""

from __future__ import annotations

from .games import Game, Profile


def nash_bruteforce(game: Game) -> frozenset[Profile]:
    """All Nash equilibria, by checking every unilateral deviation.

    A deviation of player i from the profile at linear index k to
    strategy ``alt`` lands at ``k + (alt - s_i) * stride_i``, where
    ``stride_i`` is the product of the later players' strategy counts
    (player 1 most significant), so no profile is built for it."""
    shape = game.shape
    strides = [1] * game.player_count
    for i in reversed(range(game.player_count - 1)):
        strides[i] = strides[i + 1] * shape[i + 1]
    found = []
    for k, profile in enumerate(game.profiles()):
        stable = True
        for player, table in enumerate(game.ranks):
            stride = strides[player]
            start = k - profile.indices[player] * stride
            for alt in range(shape[player]):
                if table[start + alt * stride] < table[k]:
                    stable = False
                    break
            if not stable:
                break
        if stable:
            found.append(profile)
    return frozenset(found)
