"""A fixed pure-Python kernel, timed now and then, that tracks host speed.

On a shared virtual machine the same work can run 2x slower for seconds
to minutes, in CPU time as well as wall time, because of other tenants.
The benchmark therefore times this kernel between items throughout a run
and scales each timed stretch (an item, a pass, a set-up) by
``REFERENCE_KERNEL_S / median(kernel times next to it)``: a time metric
reads as seconds on a host where the kernel takes ``REFERENCE_KERNEL_S``.
The kernel uses only the standard library and nothing of the program, so a
change to the program moves the scaled metrics in the same proportion as
the raw ones.

Other tenants slow different kinds of code by different amounts, and
which kind suffers most changes from minute to minute.  So the kernel has
five parts of a few milliseconds each, every one leaning on another part
of the machine: scattered dict lookups, a tight arithmetic loop, object
allocation, a spread of library calls (json, sorting, formatting,
itertools, exceptions), and game code like the program's own (best
responses and dominance on small random games).  On a 2-vCPU virtual
machine their sum tracked the program over 20 s windows better than the
lookup or the arithmetic part alone (log-log correlation 0.96 against
0.91 and 0.88).
"""

from __future__ import annotations

import itertools
import json
import random
import statistics
import time

#: Typical kernel time on a 2-vCPU Intel Xeon virtual machine with Python
#: 3.11.  Only a unit: any fixed value gives the same regression ratios.
REFERENCE_KERNEL_S = 0.02


class _Node:
    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self.a = a
        self.b = b

    def key(self):
        return (self.b, self.a)


class _Boxed:
    def __init__(self, a):
        self.a = a
        self.d = {"x": a}


class _Kernel:
    """Data built once per process, so each timing covers only the kernel."""

    DOCUMENT = {
        "players": 3,
        "strategies": [["a1", "a2", "a3"]] * 3,
        "payoffs": [[i % 5 for i in range(27)] for _ in range(3)],
    }

    def __init__(self):
        size, probes = 8_000, 2_500
        rng = random.Random(20)
        self.table = {(i, i * 7 % 1013, i & 31): _Node(i, -i) for i in range(size)}
        keys = list(self.table)
        self.probes = [keys[rng.randrange(size)] for _ in range(probes)]
        nodes = list(self.table.values())
        self.nodes = [nodes[rng.randrange(size)] for _ in range(probes)]
        self.games = []
        shape = (3, 3, 2)
        profiles = list(itertools.product(*(range(k) for k in shape)))
        for _ in range(6):
            payoffs = {p: tuple(rng.randrange(5) for _ in shape) for p in profiles}
            self.games.append((shape, profiles, payoffs))

    def __call__(self) -> int:
        return (
            self.lookups() + self.arithmetic() + self.allocation()
            + self.library() + self.game_code()
        )

    def lookups(self) -> int:
        counts: dict = {}
        for i in range(4_000):
            key = (i % 97, i % 89, i & 7)
            counts[key] = counts.get(key, 0) + i
        ranked = sorted(counts.items(), key=lambda kv: (kv[1], kv[0]))
        total = len({frozenset(key) for key, _ in ranked})
        for key in self.probes:
            total += self.table[key].a
        for node in self.nodes:
            total += node.a * node.b % 7
        return total

    @staticmethod
    def arithmetic() -> int:
        total = 0
        for i in range(30_000):
            total += (i * i) % 7
        return total

    @staticmethod
    def allocation() -> int:
        return len([(_Boxed(i), (i, i + 1), [i]) for i in range(2_500)])

    def library(self) -> int:
        total = 0
        for r in range(40):
            text = json.dumps(self.DOCUMENT, sort_keys=True)
            total += len(text) + len(json.loads(text))
            nodes = [_Node(f"{i:03d}-{r}", (i * 7919 + r) % 101) for i in range(60)]
            nodes.sort(key=_Node.key)
            groups: dict = {}
            for node in nodes:
                groups.setdefault(node.b % 5, []).append(node.a)
            total += sum(len(v) for v in groups.values())
            total += len({frozenset(c) for c in itertools.combinations(range(7), 3)})
            try:
                int(f"x{r}")
            except ValueError:
                total += 1
            total += sum(1 for p in itertools.product(range(3), repeat=3) if sum(p) % 2)
        return total

    def game_code(self) -> int:
        found = 0
        for shape, profiles, payoffs in self.games * 3:
            for p in profiles:
                found += all(
                    payoffs[p][i] >= max(payoffs[p[:i] + (s,) + p[i + 1:]][i] for s in range(k))
                    for i, k in enumerate(shape)
                )
            for i, k in enumerate(shape):
                for a, b in itertools.permutations(range(k), 2):
                    found += all(
                        payoffs[p[:i] + (a,) + p[i + 1:]][i] >= payoffs[p[:i] + (b,) + p[i + 1:]][i]
                        for p in profiles
                    )
        return found


class HostClock:
    """Kernel samples taken during a run, each with the time it ended.

    ``tick()`` takes one sample for each ``INTERVAL`` seconds passed since
    the previous sample, so the samples weigh every stretch of the run
    alike however long its items are; ``spent`` is the time the samples
    took, for callers to leave out of their own timings.
    """

    INTERVAL = 0.15  # about 12% of a run goes to samples
    MARGIN = 0.3
    NEAREST = 3

    def __init__(self):
        self.kernel = _Kernel()
        self.kernel()  # warm-up, not a sample
        self.samples: list[tuple[float, float]] = []
        self.spent = 0.0
        self.last = time.perf_counter()

    def sample(self) -> None:
        t0 = time.perf_counter()
        self.kernel()
        t1 = time.perf_counter()
        self.samples.append((t1, t1 - t0))
        self.spent += t1 - t0
        self.last = t1

    def tick(self) -> None:
        for _ in range(min(50, int((time.perf_counter() - self.last) / self.INTERVAL))):
            self.sample()

    def scale(self, start: float, end: float) -> float:
        """Factor from raw to reference seconds for the stretch from
        ``start`` to ``end``: from the samples taken within ``MARGIN``
        seconds of it, or the ``NEAREST`` ones if there are fewer."""
        near = [d for t, d in self.samples if start - self.MARGIN <= t <= end + self.MARGIN]
        if len(near) < self.NEAREST:
            middle = (start + end) / 2
            ranked = sorted(self.samples, key=lambda s: abs(s[0] - middle))
            near = [d for _, d in ranked[: self.NEAREST]]
        return REFERENCE_KERNEL_S / statistics.median(near)
