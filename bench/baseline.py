"""Measure sets of untraced runs and write them to ``bench/baseline.json``.

Usage, from the root of the repository:

    python3 bench/baseline.py --seeds 30-39 --sets 2 --seconds 20

Each run is ``bench/run.py`` in its own process, one at a time.  For every
set, workload and end-to-end metric the file gets the median, the
quartiles and the spread, (q3 - q1) / median, with quartiles as
``statistics.quantiles(values, n=4)`` gives them, plus every run.
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import subprocess
import sys
from pathlib import Path

import harness
from record_reference import seed_range

BENCH = Path(__file__).resolve().parent


def run_once(workload: str, seed: int, seconds: float) -> dict:
    done = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=BENCH.parent, capture_output=True, text=True, check=True,
    )
    lines = done.stdout.splitlines()
    result = json.loads(lines[-1])
    reference = next(
        (line.split("reference digest: ", 1)[1] for line in lines if "reference digest: " in line),
        "?",
    )
    return {
        "seed": seed,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "reference": reference,
        "metrics": {k: round(v["value"], 6) for k, v in result["metrics"].items()},
    }


def summarise(runs: list[dict]) -> dict:
    summary = {}
    for name in harness.END_TO_END_UNITS:
        values = [r["metrics"][name] for r in runs]
        q1, median, q3 = statistics.quantiles(values, n=4)
        median = statistics.median(values)
        summary[name] = {
            "median": round(median, 6),
            "q1": round(q1, 6),
            "q3": round(q3, 6),
            "spread": round((q3 - q1) / median, 6),
        }
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=seed_range, default=seed_range("30-39"))
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--workloads", nargs="*", default=list(harness.WORKLOADS))
    parser.add_argument("--out", type=Path, default=BENCH / "baseline.json")
    args = parser.parse_args(argv)
    sets = {}
    for number in range(args.sets):
        label = chr(ord("A") + number)
        sets[label] = {}
        for workload in args.workloads:
            runs = []
            for seed in args.seeds:
                runs.append(run_once(workload, seed, args.seconds))
                print(label, workload, json.dumps(runs[-1]), flush=True)
            sets[label][workload] = {"summary": summarise(runs), "runs": runs}
            for name, s in sets[label][workload]["summary"].items():
                print(f"{label} {workload} {name}: median {s['median']:.6g} spread {s['spread']:.3f}")
    document = {
        "about": (
            f"Untraced runs, seeds {args.seeds.start}-{args.seeds.stop - 1},"
            f" --seconds {args.seconds:g}, one run at a time, Python"
            f" {platform.python_version()} on {platform.machine()}."
            " spread = (q3 - q1) / median over the runs of a set."
        ),
        "run_seconds": args.seconds,
        "sets": sets,
    }
    args.out.write_text(json.dumps(document, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
