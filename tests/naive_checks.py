"""Independent re-derivations of the structural predicates and axiom
scans, written as plain first-principles loops.

Nothing here reuses the optimized scan logic from the package: the
reduction tests compare rank orders pairwise, dominance is re-derived
from raw tables, and player reductions are rebuilt by extracting rank
slices by hand.  These functions exist only to cross-check verdicts.
"""

import itertools
import math

from nashaxioms import build_game
from nashaxioms.concepts import eval_concept
from nashaxioms.games import Game, Profile, restrict
from nashaxioms.oracles import nash_bruteforce


def _embedding(cand: Game, parent: Game):
    if cand.player_count != parent.player_count:
        return None
    maps = []
    for i in range(parent.player_count):
        positions = []
        for lab in cand.strategies[i]:
            if lab not in parent.strategies[i]:
                return None
            positions.append(parent.strategies[i].index(lab))
        if positions != sorted(positions) or len(set(positions)) != len(positions):
            return None
        maps.append(positions)
    return maps


def _map_profile(profile, maps):
    return Profile(tuple(maps[i][k] for i, k in enumerate(profile.indices)))


def naive_is_reduction(cand: Game, parent: Game) -> bool:
    maps = _embedding(cand, parent)
    if maps is None:
        return False
    profiles = list(cand.profiles())
    for s, t in itertools.product(profiles, profiles):
        ps, pt = _map_profile(s, maps), _map_profile(t, maps)
        for i in range(parent.player_count):
            a, b = cand.rank(i, s), cand.rank(i, t)
            pa, pb = parent.rank(i, ps), parent.rank(i, pt)
            if (a < b) != (pa < pb) or (a == b) != (pa == pb):
                return False
    return True


def _naive_dominates(game: Game, player: int, a: int, b: int) -> bool:
    if a == b:
        return False
    for profile in game.profiles():
        if profile.indices[player] != b:
            continue
        other = profile.replace(player, a)
        if game.rank(player, other) >= game.rank(player, profile):
            return False
    return True


def naive_is_strict_reduction(cand: Game, parent: Game) -> bool:
    if not naive_is_reduction(cand, parent):
        return False
    removed_total = 0
    for i in range(parent.player_count):
        kept_labels = set(cand.strategies[i])
        kept_idx = [
            k for k, lab in enumerate(parent.strategies[i]) if lab in kept_labels
        ]
        for k, lab in enumerate(parent.strategies[i]):
            if lab in kept_labels:
                continue
            removed_total += 1
            if not any(_naive_dominates(parent, i, r, k) for r in kept_idx):
                return False
    return removed_total > 0


def textbook_nash(game: Game) -> frozenset[Profile]:
    """All Nash equilibria, by building every unilateral deviation as a
    profile and comparing the deviator's ranks: the textbook definition
    that ``oracles.nash_bruteforce`` computes with stride arithmetic."""
    found = []
    for profile in game.profiles():
        stable = True
        for player in range(game.player_count):
            for alt in range(game.shape[player]):
                if alt == profile.indices[player]:
                    continue
                deviated = profile.replace(player, alt)
                if game.rank(player, deviated) < game.rank(player, profile):
                    stable = False
                    break
            if not stable:
                break
        if stable:
            found.append(profile)
    return frozenset(found)


def _naive_jointly_optimal(game: Game):
    out = []
    for s in game.profiles():
        good = True
        for i in range(game.player_count):
            for t in range(game.shape[i]):
                for col in game.profiles():
                    if col.indices[i] != s.indices[i]:
                        continue
                    if game.rank(i, col) > game.rank(i, col.replace(i, t)):
                        good = False
                        break
                if not good:
                    break
            if not good:
                break
        if good:
            out.append(s)
    return out


def _naive_reduce_players(game: Game, keep, fixed: Profile) -> Game:
    keep = sorted(keep)
    labels = [list(game.strategies[i]) for i in keep]
    shape = [game.shape[i] for i in keep]
    tables = []
    for i in keep:
        table = []
        for combo in itertools.product(*(range(k) for k in shape)):
            full = list(fixed.indices)
            for pos, player in enumerate(keep):
                full[player] = combo[pos]
            table.append(game.rank(i, Profile(tuple(full))))
        tables.append(table)
    return build_game(len(keep), labels, ranks=tables)


def _label_sets(game: Game, profiles):
    return {game.labels_of(p) for p in profiles}


def naive_check(axiom: str, concept: str, games) -> str:
    """Re-derive an axiom verdict result over a list of games."""
    games = list(games)
    by_id = {g.canonical_id: g for g in games}

    if axiom == "iis":
        for parent in games:
            for cand in games:
                if not naive_is_reduction(cand, parent):
                    continue
                for s in eval_concept(concept, parent):
                    mapped = cand.profile_from_labels(parent.labels_of(s))
                    if mapped is None:
                        continue
                    if mapped not in eval_concept(concept, cand):
                        return "violated"
        return "pass"

    if axiom == "mc":
        for parent in games:
            for ga in games:
                if not naive_is_reduction(ga, parent):
                    continue
                for gb in games:
                    if not naive_is_reduction(gb, parent):
                        continue
                    union_full = all(
                        set(ga.strategies[i]) | set(gb.strategies[i])
                        == set(parent.strategies[i])
                        for i in range(parent.player_count)
                    )
                    if not union_full:
                        continue
                    common = _label_sets(
                        ga, eval_concept(concept, ga)
                    ) & _label_sets(gb, eval_concept(concept, gb))
                    target = _label_sets(parent, eval_concept(concept, parent))
                    if any(lab not in target for lab in common):
                        return "violated"
        return "pass"

    if axiom == "isds":
        for parent in games:
            for cand in games:
                if not naive_is_strict_reduction(cand, parent):
                    continue
                if _label_sets(parent, eval_concept(concept, parent)) != _label_sets(
                    cand, eval_concept(concept, cand)
                ):
                    return "violated"
        return "pass"

    if axiom == "jo":
        for game in games:
            selected = eval_concept(concept, game)
            for s in _naive_jointly_optimal(game):
                if s not in selected:
                    return "violated"
        return "pass"

    if axiom == "cons":
        for game in games:
            if game.player_count < 2:
                continue
            for s in eval_concept(concept, game):
                for size in range(1, game.player_count):
                    for keep in itertools.combinations(
                        range(game.player_count), size
                    ):
                        reduced = _naive_reduce_players(game, keep, s)
                        member = by_id.get(reduced.canonical_id)
                        if member is None:
                            continue
                        part = Profile(tuple(s.indices[i] for i in keep))
                        if part not in eval_concept(concept, member):
                            return "violated"
        return "pass"

    if axiom == "cocons":
        for game in games:
            if game.player_count < 2:
                continue
            for s in game.profiles():
                if s in eval_concept(concept, game):
                    continue
                hits = []
                for size in range(1, game.player_count):
                    for keep in itertools.combinations(
                        range(game.player_count), size
                    ):
                        reduced = _naive_reduce_players(game, keep, s)
                        member = by_id.get(reduced.canonical_id)
                        if member is None:
                            continue
                        part = Profile(tuple(s.indices[i] for i in keep))
                        hits.append(part in eval_concept(concept, member))
                if hits and all(hits):
                    return "violated"
        return "pass"

    if axiom == "ciis":
        for game in games:
            if game.num_profiles < 3:
                continue
            for s in game.profiles():
                if s in eval_concept(concept, game):
                    continue
                hits = []
                for cand in games:
                    if cand.canonical_id == game.canonical_id:
                        continue
                    if not naive_is_reduction(cand, game):
                        continue
                    mapped = cand.profile_from_labels(game.labels_of(s))
                    if mapped is None:
                        continue
                    hits.append(mapped in eval_concept(concept, cand))
                if hits and all(hits):
                    return "violated"
        return "pass"

    raise ValueError(f"unknown axiom {axiom!r}")


def naive_mc(concept: str, games) -> str:
    """The mc verdict result: violated at the first of
    ``naive_mc_witnesses``."""
    first = next(naive_mc_witnesses(concept, games), None)
    return "pass" if first is None else "violated"


def naive_mc_witnesses(concept: str, games):
    """Every mc witness as (parent id, reduction a id, reduction b id,
    profile labels), with each parent's reductions derived once by
    ``naive_is_reduction`` and the merging pairs walked with plain sets."""
    games = list(games)
    solved = {g.canonical_id: _label_sets(g, eval_concept(concept, g)) for g in games}
    for parent in games:
        below = [
            (g.canonical_id, [set(labels) for labels in g.strategies])
            for g in games
            if naive_is_reduction(g, parent)
        ]
        whole = [set(labels) for labels in parent.strategies]
        target = solved[parent.canonical_id]
        for a, sets_a in below:
            for b, sets_b in below:
                merged = [x | y for x, y in zip(sets_a, sets_b)]
                if merged == whole:
                    for labels in (solved[a] & solved[b]) - target:
                        yield parent.canonical_id, a, b, labels


def naive_coverage(axiom: str, concept: str, games) -> tuple[str, dict, dict | None]:
    """The cons or cocons result with its coverage counts, tallied in
    scan order (games in class order, profiles ascending, player
    subgroups in ascending bitmask order) up to the first violation, and
    that violation's witness without its clause (None on a pass).  Every
    player-reduced game is rebuilt by hand and looked up by id."""
    games = list(games)
    by_id = {g.canonical_id: g for g in games}
    counts = {"checked": 0, "skipped" if axiom == "cons" else "vacuous": 0}
    for game in games:
        n = game.player_count
        if n < 2:
            continue
        selected = eval_concept(concept, game)
        profiles = sorted(selected) if axiom == "cons" else game.profiles()
        for s in profiles:
            if axiom == "cocons" and s in selected:
                continue
            hits = []
            for subgroup in range(1, (1 << n) - 1):
                keep = [i for i in range(n) if subgroup >> i & 1]
                reduced = _naive_reduce_players(game, keep, s)
                member = by_id.get(reduced.canonical_id)
                if member is None:
                    if axiom == "cons":
                        counts["skipped"] += 1
                    continue
                part = Profile(tuple(s.indices[i] for i in keep))
                hits.append((keep, member, part in eval_concept(concept, member)))
                if axiom == "cons":
                    counts["checked"] += 1
                    if not hits[-1][2]:
                        return "violated", counts, {
                            "game": game.canonical_id,
                            "player_reduced": member.canonical_id,
                            "profile": list(game.labels_of(s)),
                            "players_kept": keep,
                            "restricted_profile": [
                                game.strategies[i][s.indices[i]] for i in keep
                            ],
                        }
            if axiom == "cocons":
                if not hits:
                    counts["vacuous"] += 1
                    continue
                counts["checked"] += 1
                if all(solves for _, _, solves in hits):
                    return "violated", counts, {
                        "game": game.canonical_id,
                        "profile": list(game.labels_of(s)),
                        "subgroups": [
                            {"players_kept": keep, "game": member.canonical_id}
                            for keep, member, _ in hits
                        ],
                    }
    return "pass", counts, None


def _naive_blocked(game: Game, s: Profile) -> bool:
    n = game.player_count
    for size in range(1, n + 1):
        for coalition in itertools.combinations(range(n), size):
            for t in game.profiles():
                if any(
                    t.indices[j] != s.indices[j]
                    for j in range(n)
                    if j not in coalition
                ):
                    continue
                if all(game.prefers(i, t, s) for i in coalition):
                    return True
    return False


def naive_strong_nash(game: Game):
    """Profiles from which no coalition has a joint deviation, with the
    other players held fixed, that every member strictly prefers."""
    return [s for s in game.profiles() if not _naive_blocked(game, s)]


def naive_ne_indifference_closure(game: Game):
    """Profiles every player ranks exactly as some Nash equilibrium."""
    ne = nash_bruteforce(game)
    return [
        s
        for s in game.profiles()
        if any(
            all(
                game.rank(i, s) == game.rank(i, t)
                for i in range(game.player_count)
            )
            for t in ne
        )
    ]


def naive_reductions(game: Game, mode: str):
    """The reductions that pass ``mode``, one of ``all``,
    ``dummy-or-quasi`` and ``strict``, each as per-player label tuples in
    the game's order, found by walking every product of non-empty index
    subsets, player 1 most significant, each player's subsets in
    ascending bitmask order."""
    n = game.player_count
    per_player = [
        [tuple(j for j in range(k) if mask >> j & 1) for mask in range(1, 1 << k)]
        for k in game.shape
    ]
    dominates = {
        (i, a, b): _naive_dominates(game, i, a, b)
        for i, k in enumerate(game.shape)
        for a in range(k)
        for b in range(k)
        if mode == "strict"
    }
    out = []
    for spec in itertools.product(*per_player):
        if mode == "dummy-or-quasi":
            # a player cut to m strategies, every other one keeping its
            # full set or at most m: m = 1 is a dummy, m = 2 a quasi-dummy
            keep = False
            for m in (1, 2):
                for j in range(n):
                    if len(spec[j]) != m:
                        continue
                    if all(
                        i == j or len(spec[i]) == game.shape[i] or len(spec[i]) <= m
                        for i in range(n)
                    ):
                        keep = True
        elif mode == "strict":
            removed = 0
            keep = True
            for i, kept in enumerate(spec):
                for b in range(game.shape[i]):
                    if b in kept:
                        continue
                    removed += 1
                    if not any(dominates[i, a, b] for a in kept):
                        keep = False
            keep = keep and removed > 0
        else:
            keep = True
        if keep:
            out.append(
                tuple(
                    tuple(game.strategies[i][k] for k in subset)
                    for i, subset in enumerate(spec)
                )
            )
    return out


def naive_candidate_counts(game: Game, mode: str) -> list[int]:
    """Per player, how many label subsets ``enumerate_reductions`` draws
    its specs from under ``mode``, counted from first principles:
    every non-empty subset for ``all``; the singletons, the pairs and,
    with more than two strategies, the full set for ``dummy-or-quasi``;
    the subsets that keep every strategy no strategy strictly dominates
    for ``strict``."""
    counts = []
    for i, k in enumerate(game.shape):
        if mode == "all":
            counts.append(2**k - 1)
        elif mode == "dummy-or-quasi":
            counts.append(k * (k + 1) // 2 + (k > 2))
        else:
            undominated = [
                b
                for b in range(k)
                if not any(_naive_dominates(game, i, a, b) for a in range(k))
            ]
            counts.append(2 ** (k - len(undominated)))
    return counts


_AUDITS = {
    "d": ("dummy-or-quasi", "d-closed", "reduction"),
    "strict": ("strict", "strictly closed", "strict reduction"),
}


def naive_audit_message(games, mode: str):
    """The closedness audit by building every filtered reduction and
    looking it up: the message naming the first missing one, or None
    when the games are closed (``mode`` is ``d`` or ``strict``)."""
    flavor_filter, closed, reduction = _AUDITS[mode]
    games = list(games)
    ids = {g.canonical_id for g in games}
    for game in games:
        for labels in naive_reductions(game, flavor_filter):
            if restrict(game, labels).canonical_id not in ids:
                return (
                    f"class is not {closed}: game {game.canonical_id[:12]} "
                    f"is missing the {reduction} with subsets {labels}"
                )
    return None


_CLOSURES = {
    "d": ("dummy-or-quasi", "dummy-reduction-of"),
    "strict": ("strict", "strict-reduction-of"),
    "reductions": ("all", "reduction-of"),
}


def naive_closure(seeds, mode: str):
    """The d-, strict or reduction closure (``mode`` is ``d``, ``strict``
    or ``reductions``) as ``(canonical id, provenance payload)`` pairs in
    insertion order: a breadth-first search over frontiers sorted by
    canonical id that restricts each member to every ``naive_reductions``
    entry and keeps the games whose canonical id is new, until a frontier
    adds nothing."""
    flavor_filter, kind = _CLOSURES[mode]
    members = {}
    frontier = []
    for game in sorted(seeds, key=lambda g: g.canonical_id):
        if game.canonical_id not in members:
            members[game.canonical_id] = {"kind": "seed"}
            frontier.append(game)
    while frontier:
        next_frontier = []
        for parent in sorted(frontier, key=lambda g: g.canonical_id):
            for labels in naive_reductions(parent, flavor_filter):
                child = restrict(parent, labels)
                if child.canonical_id in members:
                    continue
                members[child.canonical_id] = {
                    "kind": kind,
                    "parent": parent.canonical_id,
                    "subsets": [list(s) for s in labels],
                }
                next_frontier.append(child)
        frontier = next_frontier
    return list(members.items())


def _naive_finite_number(v) -> bool:
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        return False
    return v == v and -math.inf < v < math.inf


def _naive_labels_error(players: int, strategies):
    """What ``Game`` says about the player count and the label lists,
    once their number matches the player count, or None."""
    if players < 1:
        return "a game needs at least one player"
    for i, labels in enumerate(strategies):
        if len(labels) == 0:
            return f"player {i + 1} has an empty strategy list"
        for label in labels:
            if not isinstance(label, str):
                return f"player {i + 1} has non-string labels"
        for a in range(len(labels)):
            for b in range(a):
                if labels[a] == labels[b]:
                    return f"player {i + 1} has duplicate strategy labels"
    return None


def naive_build_error(players, strategies, payoffs=None, ranks=None):
    """The ``GameFormatError`` message of ``build_game`` for these
    arguments, or None when it builds a game, checked value by value in
    the order the arguments are read.  Domain: ``strategies`` is a list
    of label lists, and the tables are a list of lists."""
    if (payoffs is None) == (ranks is None):
        return "give exactly one of payoffs or ranks"
    if type(players) is not int:
        return f"player count must be an integer, got {players!r}"
    if len(strategies) != players:
        return f"expected {players} strategy lists, got {len(strategies)}"
    total = 1
    for labels in strategies:
        total *= len(labels)
    tables = payoffs if ranks is None else ranks
    if len(tables) != players:
        return f"expected {players} tables, got {len(tables)}"
    for table in tables:
        for v in table:
            if isinstance(v, (list, tuple)):
                return "tables must be flat lists"
        if len(table) != total:
            return f"flat table has {len(table)} entries, expected {total}"
    for table in tables:
        for v in table:
            if ranks is not None and (type(v) is not int or v < 0):
                return "ranks must be non-negative integers"
            if not _naive_finite_number(v):
                return "payoffs must be finite numbers"
    return _naive_labels_error(players, strategies)


def naive_game_error(players, strategies, ranks):
    """The ``GameFormatError`` message of ``Game(players, strategies,
    ranks)``, or None when the game is built, on the domain of
    ``naive_build_error``."""
    if type(players) is not int:
        return f"player count must be an integer, got {players!r}"
    if players < 1:
        return "a game needs at least one player"
    if len(strategies) != players:
        return f"expected {players} strategy lists, got {len(strategies)}"
    error = _naive_labels_error(players, strategies)
    if error is not None:
        return error
    if len(ranks) != players:
        return f"expected {players} rank tables, got {len(ranks)}"
    total = 1
    for labels in strategies:
        total *= len(labels)
    for i, table in enumerate(ranks):
        if len(table) != total:
            return (
                f"rank table for player {i + 1} covers {len(table)} profiles, "
                f"expected {total}"
            )
        for v in table:
            if type(v) is not int or v < 0:
                return f"rank table for player {i + 1} must hold non-negative integers"
        used = []
        for v in table:
            if v not in used:
                used.append(v)
        for v in used:
            if v >= len(used):
                return f"rank table for player {i + 1} is not dense-normalized"
    return None


def naive_dense(values, higher_first: bool):
    """Each value's dense rank: the number of distinct values better than
    it, where better is higher with ``higher_first`` and lower without."""
    out = []
    for v in values:
        better = []
        for u in values:
            if (u > v if higher_first else u < v) and u not in better:
                better.append(u)
        out.append(len(better))
    return out


def naive_columns(game: Game, players):
    """``Game.columns`` from its definition: per assignment of the other
    players, in ascending order, the linear indices of the profiles that
    agree with it, in linear-index order."""
    shape = [len(labels) for labels in game.strategies]
    profiles = list(itertools.product(*(range(k) for k in shape)))
    others = [i for i in range(len(shape)) if i not in players]
    out = []
    for fixed in itertools.product(*(range(shape[i]) for i in others)):
        out.append([
            k
            for k, s in enumerate(profiles)
            if all(s[i] == v for i, v in zip(others, fixed))
        ])
    return out
