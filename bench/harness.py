"""Workloads, timing loop and correctness gate of the nashaxioms benchmark.

Each workload is a closed loop: one client, one thread, each item started
only after the previous one returned.  A run repeats whole passes over the
workload's items until its time is up.  Inputs come from the seed alone and
are built during set-up, before any pass is timed.

Every item's output is turned into a canonical JSON record, hashed, and
compared with the same item of the first pass; the hash of a whole pass is
compared with the reference digest recorded for the workload, seed and
sizes in ``reference.json``.  A mismatch, an exception, a nonzero exit code
or a failed expectation makes the item a failure.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import importlib
import io
import itertools
import json
import os
import random
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace
from typing import Callable

from hostclock import HostClock
from tracer import Tracer, layer_metrics

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = "nashaxioms"
MODULES = (
    "games",
    "concepts",
    "closures",
    "gamefiles",
    "axioms",
    "theorems",
    "oracles",
    "suite",
    "cli",
)
REFERENCE_FILE = Path(__file__).resolve().parent / "reference.json"

#: Set-ups per run; ``setup_s`` is their median.  A fixed count keeps
#: ``peak_rss_mb`` independent of how fast the machine is.
SETUP_REPEATS = 9

#: Input sizes the benchmark runs at; the smoke test passes smaller ones.
DEFAULT_SIZES = {
    "sweep_games": 150,
    "scan_shapes": [[4, 4], [3, 3, 2]],
    "cli_shape": [5, 5],
}

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "items_per_s": "1/s",
    "peak_rss_mb": "MB",
}


class ProgramMissing(RuntimeError):
    """The checkout holds no importable program source."""


def import_program() -> SimpleNamespace:
    """Import the package afresh from the checkout's ``src/``."""
    if not (SRC / PACKAGE / "__init__.py").is_file():
        raise ProgramMissing(f"no {PACKAGE} package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [m for m in sys.modules if m.split(".")[0] == PACKAGE]:
        del sys.modules[name]
    importlib.invalidate_caches()
    pkg = importlib.import_module(PACKAGE)
    if Path(pkg.__file__).resolve().parent != SRC / PACKAGE:
        raise ProgramMissing(f"{PACKAGE} was imported from {pkg.__file__}")
    return SimpleNamespace(
        **{m: importlib.import_module(f"{PACKAGE}.{m}") for m in MODULES}
    )


def clear_concept_cache(mods) -> None:
    # Tolerates a program whose concept cache is no longer global.
    clear = getattr(mods.concepts, "clear_cache", None)
    if clear is not None:
        clear()


def canonical_digest(record) -> str:
    text = json.dumps(record, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# ----------------------------------------------------------------------
# input generation
# ----------------------------------------------------------------------


def strategy_labels(shape) -> list[list[str]]:
    return [
        [f"{chr(ord('a') + i)}{k + 1}" for k in range(size)]
        for i, size in enumerate(shape)
    ]


def random_payoffs(rng: random.Random, shape, levels: int = 5) -> list[list[int]]:
    cells = 1
    for size in shape:
        cells *= size
    return [[rng.randrange(levels) for _ in range(cells)] for _ in shape]


def weak_orders(outcomes: int) -> list[tuple[int, ...]]:
    """Every weak order on ``outcomes`` items as a dense rank vector."""
    return [
        ranks
        for ranks in itertools.product(range(outcomes), repeat=outcomes)
        if set(ranks) == set(range(max(ranks) + 1))
    ]


# ----------------------------------------------------------------------
# workloads
# ----------------------------------------------------------------------


@dataclass
class Item:
    """One unit of work: ``call`` is timed, ``check`` runs afterwards and
    turns the result into ``(ok, record)``."""

    key: str
    call: Callable[[], object]
    check: Callable[[object], tuple[bool, object]]


class Workload:
    name = ""
    seeded = True

    def setup(self, mods, seed: int, workdir: Path, sizes: dict):
        """Build the inputs; returns the state the passes use."""
        raise NotImplementedError

    def items(self, mods, state):
        raise NotImplementedError


class Reproduce(Workload):
    """``suite.run_suite()`` plus ``render``, cold concept cache per pass."""

    name = "reproduce"
    seeded = False

    def setup(self, mods, seed, workdir, sizes):
        return None

    def items(self, mods, state):
        def call():
            clear_concept_cache(mods)
            rows = mods.suite.run_suite()
            return rows, mods.suite.render(rows)

        def check(result):
            rows, text = result
            ok = bool(rows) and all(r.ok for r in rows)
            return ok, {"render": text, "rows": [r.to_record() for r in rows]}

        yield Item("run_suite", call, check)


class Sweep2x2(Workload):
    """Theorem-1 audit of each game in a seeded sample of the 2x2
    weak-ordinal games; the concept cache is cleared once per pass and
    grows across it."""

    name = "sweep2x2"

    def setup(self, mods, seed, workdir, sizes):
        orders = weak_orders(4)
        rng = random.Random(f"sweep2x2:{seed}")
        picks = rng.sample(range(len(orders) ** 2), sizes["sweep_games"])
        labels = [["T", "B"], ["L", "R"]]
        return [
            mods.games.build_game(
                2, labels, ranks=[orders[k // len(orders)], orders[k % len(orders)]]
            )
            for k in picks
        ]

    def items(self, mods, state):
        clear_concept_cache(mods)
        for index, game in enumerate(state):

            def call(game=game):
                cls = mods.closures.d_closure([game])
                return cls, mods.theorems.verify_theorem1(cls)

            def check(result):
                cls, report = result
                record = {"class": cls.content_id(), "report": report.to_record()}
                return report.all_passed, record

            yield Item(f"game{index}", call, check)


def player_reduction_class(mods, seed_game):
    """The reduction closure of ``seed_game`` plus every player-reduction
    of each member, built through the public API."""
    closures, games = mods.closures, mods.games
    cls = closures.reduction_closure(seed_game)
    for member in list(cls):
        n = member.player_count
        for mask in range(1, (1 << n) - 1):
            keep = tuple(i for i in range(n) if mask >> i & 1)
            for profile in member.profiles():
                cls.add(
                    games.reduce_players(member, keep, profile),
                    closures.Provenance(
                        "player-reduction-of",
                        parent=member.canonical_id,
                        keep=keep,
                        fixed=member.labels_of(profile),
                    ),
                )
    return cls


class Scan(Workload):
    """``check_axiom(a, "nash", C)`` for all seven axioms over two seeded
    classes, cold concept cache per pass."""

    name = "scan"

    def setup(self, mods, seed, workdir, sizes):
        rng = random.Random(f"scan:{seed}")
        two, three = sizes["scan_shapes"]

        def seed_game(shape):
            return mods.games.build_game(
                len(shape), strategy_labels(shape), payoffs=random_payoffs(rng, shape)
            )

        return [
            ("reductions", mods.closures.reduction_closure(seed_game(two))),
            ("player-reduced", player_reduction_class(mods, seed_game(three))),
        ]

    def items(self, mods, state):
        clear_concept_cache(mods)
        for class_name, cls in state:
            for axiom in mods.axioms.AXIOM_IDS:

                def call(axiom=axiom, cls=cls):
                    return mods.axioms.check_axiom(axiom, "nash", cls)

                def check(verdict, class_name=class_name, content=cls.content_id()):
                    # Nash satisfies all seven axioms on classes closed under
                    # reductions and player reductions.
                    record = verdict.to_record(class_name)
                    record["class_content"] = content
                    return verdict.passed, record

                yield Item(f"{class_name}:{axiom}", call, check)


class CliIO(Workload):
    """``closure`` then ``check`` through ``cli.main``, classes written to
    and read back from disk; cold concept cache per call.

    Every pass writes the class into the same directory.  The warm-up pass
    creates its files; timed passes overwrite them.  Creating a thousand
    new files cost 0.02 s to 0.7 s of kernel time on the same shared disk
    within minutes, noise that would swamp the program's own time.
    """

    name = "cli_io"
    OUT = "class"

    def setup(self, mods, seed, workdir, sizes):
        rng = random.Random(f"cli_io:{seed}")
        shape = sizes["cli_shape"]
        workdir.mkdir(parents=True, exist_ok=True)
        seed_file = workdir / "seed.game"
        document = {
            "players": len(shape),
            "strategies": strategy_labels(shape),
            "payoffs": random_payoffs(rng, shape),
        }
        seed_file.write_text(json.dumps(document, indent=2) + "\n", encoding="utf-8")
        members = 1
        for size in shape:
            members *= (1 << size) - 1
        return SimpleNamespace(seed_file=seed_file, out=workdir / self.OUT, members=members)

    def items(self, mods, state):
        def cli_call(argv):
            def call():
                clear_concept_cache(mods)
                out, err = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = mods.cli.main(argv)
                return code, out.getvalue(), err.getvalue()

            return call

        def record_of(argv, result):
            # Paths vary with the checkout, so the record names them by role.
            code, out, err = result

            def neutral(text):
                return text.replace(str(state.out), "<out>").replace(
                    str(state.seed_file), "<seed>"
                )

            return {
                "argv": [neutral(a) for a in argv],
                "exit": code,
                "stdout": neutral(out),
                "stderr": neutral(err),
            }

        argv = [
            "closure",
            str(state.seed_file),
            "--mode",
            "reductions",
            "--out",
            str(state.out),
        ]

        def check_closure(result, argv=argv):
            expected = f"wrote <out> ({state.members} games)\n"
            record = record_of(argv, result)
            manifest = state.out / "manifest.json"
            record["manifest"] = (
                hashlib.sha256(manifest.read_bytes()).hexdigest() if manifest.is_file() else None
            )
            return record["exit"] == 0 and record["stdout"] == expected, record

        yield Item("closure", cli_call(argv), check_closure)
        for axiom in ("jo", "cons", "cocons"):
            argv = ["check", "--axiom", axiom, "--concept", "nash", "--class", str(state.out)]

            def check_axiom(result, argv=argv):
                record = record_of(argv, result)
                ok = record["exit"] == 0 and " result=pass\n" in record["stdout"]
                return ok, record

            yield Item(f"check:{axiom}", cli_call(argv), check_axiom)


WORKLOADS = {w.name: w for w in (Reproduce(), Sweep2x2(), Scan(), CliIO())}


# ----------------------------------------------------------------------
# the run
# ----------------------------------------------------------------------


@dataclass
class PassResult:
    start: float
    end: float
    wall: float
    item_starts: list[float]
    item_times: list[float]
    digests: list[str | None]
    failed: list[bool]

    @property
    def digest(self) -> str:
        return hashlib.sha256(
            "\n".join(d or "-" for d in self.digests).encode("ascii")
        ).hexdigest()


@dataclass
class Run:
    workload: Workload
    seed: int
    sizes: dict
    workdir: Path
    log: object = sys.stdout
    clock: HostClock = field(default_factory=HostClock)
    passes: list[PassResult] = field(default_factory=list)
    notes: int = 0
    reference: str = "not checked"

    def run_pass(self, mods, state, tracer: Tracer | None = None) -> PassResult:
        starts, times, digests, failed = [], [], [], []
        first = self.passes[0] if self.passes else None
        spent = self.clock.spent
        start = time.perf_counter()
        for index, item in enumerate(self.workload.items(mods, state)):
            if tracer is not None:
                tracer.begin_item()
            t0 = time.perf_counter()
            try:
                result = item.call()
            except Exception as exc:  # an item failure, not a harness crash
                result = exc
            starts.append(t0)
            times.append(time.perf_counter() - t0)
            if tracer is not None:
                tracer.end_item()
            if not isinstance(result, Exception):
                try:
                    ok, record = item.check(result)
                except Exception as exc:  # a malformed result
                    result = exc
            if isinstance(result, Exception):
                self.note(f"item {item.key}: {type(result).__name__}: {result}")
                digests.append(None)
                failed.append(True)
                self.clock.tick()
                continue
            digest = canonical_digest(record)
            if not ok:
                self.note(f"item {item.key}: expectation failed")
            elif first is not None and digest != first.digests[index]:
                self.note(f"item {item.key}: output differs from the first pass")
                ok = False
            digests.append(digest)
            failed.append(not ok)
            self.clock.tick()
        end = time.perf_counter()
        wall = end - start - (self.clock.spent - spent)
        result = PassResult(start, end, wall, starts, times, digests, failed)
        self.passes.append(result)
        return result

    def note(self, message: str) -> None:
        if self.notes < 20:
            print(f"# {self.workload.name}: {message}", file=self.log)
        self.notes += 1

    def check_reference(self, references: dict) -> str:
        """Compare each pass digest with the recorded one; a mismatch fails
        every item of that pass."""
        key = str(self.seed) if self.workload.seeded else "any"
        if references.get("sizes") != self.sizes:
            return "none (sizes differ from the recorded ones)"
        expected = references.get("digests", {}).get(self.workload.name, {}).get(key)
        if expected is None:
            return f"none recorded for seed {key}"
        status = "match"
        for number, result in enumerate(self.passes):
            if result.digest != expected:
                self.note(f"pass {number}: digest {result.digest[:16]} != reference {expected[:16]}")
                result.failed = [True] * len(result.failed)
                status = "MISMATCH"
        return status

    @property
    def attempted(self) -> int:
        return sum(len(p.failed) for p in self.passes)

    @property
    def failed(self) -> int:
        return sum(sum(p.failed) for p in self.passes)


def load_references() -> dict:
    if not REFERENCE_FILE.is_file():
        return {}
    return json.loads(REFERENCE_FILE.read_text(encoding="utf-8"))


def percentile_with_tail(values: list[float], q: float, min_beyond: int = 10):
    """The q-quantile, or None when fewer than ``min_beyond`` values lie above it."""
    ordered = sorted(values)
    if len(ordered) * (1 - q) < min_beyond:
        return None
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def set_up(run: Run, repeats: int):
    """Import the program afresh and build the inputs ``repeats`` times,
    with host-clock samples before and after each; returns the modules,
    the last state and the set-up times in raw and reference seconds."""
    raw, scaled = [], []
    for _ in range(max(1, repeats)):
        shutil.rmtree(run.workdir, ignore_errors=True)
        gc.collect()  # frees the previous import before the next one
        run.clock.sample()
        t0 = time.perf_counter()
        mods = import_program()
        state = run.workload.setup(mods, run.seed, run.workdir, run.sizes)
        t1 = time.perf_counter()
        run.clock.sample()
        raw.append(t1 - t0)
        scaled.append((t1 - t0) * run.clock.scale(t0, t1))
    return mods, state, (raw, scaled)


def execute(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    sizes: dict | None = None,
    references: dict | None = None,
    workdir: Path | None = None,
    log=sys.stdout,
    setup_repeats: int = SETUP_REPEATS,
) -> tuple[Run, dict]:
    """Set up and run one workload; returns the run and its metrics."""
    workload = WORKLOADS[name]
    sizes = dict(DEFAULT_SIZES if sizes is None else sizes)
    references = load_references() if references is None else references
    workdir = workdir or ROOT / ".bench_work" / f"{name}-{seed}-{os.getpid()}"
    run = Run(workload, seed, sizes, workdir, log)
    try:
        mods, state, setup_times = set_up(run, setup_repeats)
        if trace:
            metrics = traced_passes(run, mods, state, seconds)
        else:
            metrics = timed_passes(run, mods, state, seconds, setup_times)
        run.reference = run.check_reference(references)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return run, metrics


def run_workload(name: str, seed: int, seconds: float, trace: bool, **options) -> dict:
    """Run one workload, print its metrics as ``#`` lines and return the
    result object the benchmark prints last."""
    run, metrics = execute(name, seed, seconds, trace, **options)
    attempted, failed = run.attempted, run.failed
    for line in (
        f"seed={seed} passes={len(run.passes)} items={attempted}",
        f"reference digest: {run.reference}",
        f"error_rate = {failed / max(1, attempted):.6g} ({failed}/{attempted})",
        *(f"{k} = {v['value']:.6g} {v['unit']}" for k, v in metrics.items()),
    ):
        print(f"# {name}: {line}", file=run.log)
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


def time_left(start: float, seconds: float, step: float) -> bool:
    """Whether another step of about ``step`` seconds ends the run nearer to
    ``seconds`` than stopping now does."""
    return time.perf_counter() - start + step / 2 < seconds


def scaled_times(clock: HostClock, result: PassResult) -> tuple[list[float], float]:
    """A pass's item times and wall time in reference seconds: each item
    scaled by the host clock samples next to it, the rest of the pass by
    those next to the pass."""
    items = [
        t * clock.scale(t0, t0 + t) for t0, t in zip(result.item_starts, result.item_times)
    ]
    rest = (result.wall - sum(result.item_times)) * clock.scale(result.start, result.end)
    return items, sum(items) + rest


def timed_passes(run: Run, mods, state, seconds: float, setup_times) -> dict:
    """One untimed warm-up pass, checked like the others, then passes until
    the time is up.  Time metrics are in reference seconds (see
    ``hostclock``)."""
    run.run_pass(mods, state)
    start = time.perf_counter()
    while len(run.passes) < 2 or time_left(start, seconds, run.passes[-1].wall):
        run.run_pass(mods, state)
    timed = run.passes[1:]
    scaled = [scaled_times(run.clock, p) for p in timed]
    walls = [wall for _, wall in scaled]
    item_times = [t for items, _ in scaled for t in items]
    # Items of one pass differ in kind (a 14 ms jo scan next to a 2 s mc
    # scan), so a pooled median falls in the gap between two kinds and
    # jumps with noise.  Each item's median over the passes is steady.
    per_item = [statistics.median(ts) for ts in zip(*(items for items, _ in scaled))]
    completed = sum(len(p.failed) - sum(p.failed) for p in timed)
    p95 = percentile_with_tail(item_times, 0.95)
    tail = (
        f"item_p95_ms = {p95 * 1e3:.6g} ms over {len(item_times)} items"
        if p95 is not None
        else f"item_p95_ms not reported: fewer than 10 of {len(item_times)} items lie beyond it"
    )
    raw_setup, scaled_setup = setup_times
    raw_walls = [p.wall for p in timed]
    for line in (
        f"item_p50_ms = {statistics.median(per_item) * 1e3:.6g} ms",
        tail,
        f"host scale = {sum(walls) / sum(raw_walls):.4g} over {len(run.clock.samples)} samples",
        f"raw setup_s = {statistics.median(raw_setup):.6g} s,"
        f" raw wall_s = {statistics.fmean(raw_walls):.6g} s",
    ):
        print(f"# {run.workload.name}: {line}", file=run.log)
    values = {
        "setup_s": statistics.median(scaled_setup),
        # A mean: a long pass fits only three times into a run.
        "wall_s": statistics.fmean(walls),
        "items_per_s": completed / sum(walls),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    return {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}


def traced_passes(run: Run, mods, state, seconds: float) -> dict:
    """One untraced warm-up pass, then traced and untraced passes in turn.

    Counts and ratios come from the first traced pass, so they do not
    depend on how many passes fit in the time; self times are medians
    over all traced passes.
    """
    start = time.perf_counter()
    run.run_pass(mods, state)
    tracer = Tracer()
    traced, untraced, per_pass = [], [], []
    while not untraced or time_left(start, seconds, traced[-1] + untraced[-1]):
        with tracer.installed(mods):
            mark = tracer.span_count
            traced.append(run.run_pass(mods, state, tracer).wall)
            per_pass.append(tracer.aggregate(mark, tracer.span_count))
        untraced.append(run.run_pass(mods, state).wall)
    tracer.write(run.workdir.parent / "traces" / f"{run.workload.name}-seed{run.seed}.spans")
    metrics = layer_metrics(per_pass)
    metrics["trace.overhead_s"] = {
        "value": statistics.median(traced) - statistics.median(untraced),
        "unit": "s",
    }
    return metrics
