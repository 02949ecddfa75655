"""Benchmark of the colorbench engines: per-engine replay throughput.

Run from the repository root:

    python3 perfbench/run.py --workload block-churn --seed 1 --seconds 20 --trace 0

The workload's trace is generated from the seed and replayed through
rand-vc, det-vc, edge-c and greedy-baseline, one engine at a time, in this
single-threaded process. ``--trace 0`` reports the end-to-end metrics
(tracing off); ``--trace 1`` reports the per-layer metrics from a traced
run and writes its spans to ``perfbench/out/``. Every metric is printed as
``name = value unit``; the last line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The exit code is 0
only when every replay passed its checks and the workload stayed in its
regime. All three workloads in one command:

    for w in block-churn sparse-large audited-run; do
        python3 perfbench/run.py --workload $w --seed 1 --seconds 30 --trace 0 || break
    done
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"


def parse_args(workload_names, argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=workload_names)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True, help="measuring time of one run")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0,
                   help="1: per-layer metrics from a traced run")
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    if not (SRC / "colorbench" / "__init__.py").is_file():
        print(f"error: package source {SRC / 'colorbench'} not found; "
              "run from a checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import bench
    from workloads import WORKLOADS

    args = parse_args(tuple(WORKLOADS), argv)
    OUT.mkdir(exist_ok=True)
    scratch = OUT / f"run-{os.getpid()}"
    scratch.mkdir()
    try:
        b = bench.Bench(WORKLOADS[args.workload], args.seed, scratch)
        if args.trace:
            outcome = bench.profile(b, OUT / f"spans-{args.workload}")
        else:
            outcome = bench.measure(b, args.seconds)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    for note in outcome.notes:
        print(note)
    for name, (value, unit) in outcome.metrics.items():
        print(f"{name} = {value} {unit}")
    for problem in outcome.problems:
        print(f"FAILED: {problem}")
    print(json.dumps({
        "correct": outcome.correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in outcome.metrics.items()},
    }))
    return 0 if outcome.correct else 1


if __name__ == "__main__":
    sys.exit(main())
