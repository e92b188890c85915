"""Record reference digests for the benchmark's correctness gate.

Usage, from the root of the repository:

    python3 bench/record_reference.py --seeds 0-99

Runs one pass of every workload per seed at the default sizes and writes
``bench/reference.json``.  Record only from a commit whose outputs are
known to be right: every later run compares its outputs with these.
"""

from __future__ import annotations

import argparse
import io
import json
import sys

import harness


def seed_range(text: str) -> range:
    first, _, last = text.partition("-")
    return range(int(first), int(last or first) + 1)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=seed_range, default=seed_range("0-99"))
    args = parser.parse_args(argv)
    digests: dict[str, dict[str, str]] = {}
    for name, workload in harness.WORKLOADS.items():
        seeds = args.seeds if workload.seeded else [None]
        for seed in seeds:
            run, _ = harness.execute(
                name,
                0 if seed is None else seed,
                0,
                False,
                references={},
                log=io.StringIO(),
                setup_repeats=1,
            )
            if run.failed:
                print(f"{name} seed {seed}: {run.failed} failed items", file=sys.stderr)
                return 1
            key = "any" if seed is None else str(seed)
            digests.setdefault(name, {})[key] = run.passes[0].digest
            print(f"{name} {key} {run.passes[0].digest[:16]}", flush=True)
    document = {"sizes": harness.DEFAULT_SIZES, "digests": digests}
    harness.REFERENCE_FILE.write_text(json.dumps(document, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
