"""Smoke test of the benchmark harness at tiny sizes.

Run from the root of the repository:

    python3 -m pytest -q bench/tests
"""

from __future__ import annotations

import io
import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import harness  # noqa: E402
import hostclock  # noqa: E402
import tracer  # noqa: E402

TINY = {
    "sweep_games": 6,
    "scan_shapes": [[2, 3], [2, 2, 2]],
    "cli_shape": [2, 3],
}
NO_REFERENCES: dict = {}


def run(tmp_path, name, trace=False, references=NO_REFERENCES, seed=1):
    return harness.run_workload(
        name,
        seed,
        0.01,
        trace,
        sizes=TINY,
        references=references,
        workdir=tmp_path / f"{name}-work",
        log=io.StringIO(),
        setup_repeats=2,
    )


def test_benchmark_json_names_every_metric():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == harness.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracer.per_layer_units()
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(harness.WORKLOADS)


@pytest.mark.parametrize("name", sorted(harness.WORKLOADS))
def test_untraced_run_emits_end_to_end_metrics(tmp_path, name):
    result = run(tmp_path, name)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == harness.END_TO_END_UNITS
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("name", sorted(harness.WORKLOADS))
def test_traced_runs_emit_layer_metrics_and_repeat_counts(tmp_path, name):
    first = run(tmp_path, name, trace=True)
    second = run(tmp_path, name, trace=True)
    units = tracer.per_layer_units()
    assert {k: v["unit"] for k, v in first["metrics"].items()} == units
    assert first["correct"] and second["correct"]
    counts = [
        {k: v["value"] for k, v in r["metrics"].items() if v["unit"] in ("count", "ratio")}
        for r in (first, second)
    ]
    assert counts[0] == counts[1]
    assert list((tmp_path / "traces").glob(f"{name}-seed1.spans"))


def test_traced_counts_see_the_workload(tmp_path):
    metrics = run(tmp_path, "cli_io", trace=True)["metrics"]
    assert metrics["cli.main.calls"]["value"] == 4
    assert metrics["closures.read_dir.calls"]["value"] == 3
    assert metrics["closures.write_dir.calls"]["value"] == 1
    # read_dir three times plus the closure itself, 21 members each
    assert metrics["closures.members"]["value"] == 4 * 21
    scan = run(tmp_path, "scan", trace=True)["metrics"]
    assert scan["axioms.mc.calls"]["value"] == 2
    assert scan["axioms.cons.checked"]["value"] > 0
    assert 0 < scan["games.is_reduction.hit_ratio"]["value"] < 1


def test_host_clock_scales_by_the_samples_next_to_a_stretch():
    clock = hostclock.HostClock()
    ref = hostclock.REFERENCE_KERNEL_S
    clock.samples = [(1.0, ref), (1.1, ref), (1.2, ref), (5.0, 2 * ref), (5.1, 2 * ref)]
    assert clock.scale(0.9, 1.3) == 1.0
    # a host twice as slow halves the scale
    assert clock.scale(4.9, 5.0) == 0.5
    # too few samples within the margin: the three nearest
    assert clock.scale(2.0, 2.1) == 1.0


def test_wrong_reference_digest_fails_items(tmp_path):
    sizes = dict(TINY)
    wrong = {"sizes": sizes, "digests": {"sweep2x2": {"1": "0" * 64}}}
    result = run(tmp_path, "sweep2x2", references=wrong)
    assert not result["correct"]
    assert result["failed"] / result["attempted"] > 0


def test_recorded_reference_digest_passes(tmp_path):
    ran, _ = harness.execute(
        "sweep2x2", 2, 0.01, False, sizes=TINY, references={},
        workdir=tmp_path / "work", log=io.StringIO(),
    )
    right = {"sizes": TINY, "digests": {"sweep2x2": {"2": ran.passes[0].digest}}}
    result = run(tmp_path, "sweep2x2", references=right, seed=2)
    assert result["correct"] and result["failed"] == 0


def test_inputs_depend_only_on_the_seed(tmp_path):
    digests = [
        harness.execute(
            "scan", seed, 0.01, False, sizes=TINY, references={},
            workdir=tmp_path / f"w{seed}-{k}", log=io.StringIO(),
        )[0].passes[0].digest
        for seed, k in ((3, 0), (3, 1), (4, 0))
    ]
    assert digests[0] == digests[1] != digests[2]


def test_run_without_program_source_fails(tmp_path):
    (tmp_path / "bench").mkdir()
    for f in BENCH.glob("*.py"):
        (tmp_path / "bench" / f.name).write_text(f.read_text())
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "reproduce", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
