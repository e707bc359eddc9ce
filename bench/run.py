"""Benchmark of the systolic CLI on three generated job ladders.

    python3 bench/run.py --workload homology-ladder --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  Every job is a fresh
``python -m systolic.cli`` process, run one at a time (a closed loop with one
client).  A run makes whole passes over the workload's job list, round-robin,
at least ``harness.MIN_PASSES`` of them and until ``--seconds`` have been
measured, then checks every distinct output with ``checks`` and prints one
JSON line.  With ``--trace 0`` it reports the end-to-end metrics; with
``--trace 1`` it makes one traced pass instead (see ``tracing``) and reports
the per-layer metrics.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / "work"
sys.path.insert(0, str(BENCH))

import harness  # noqa: E402
import inputs  # noqa: E402
import tracing  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(inputs.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "systolic" / "cli.py").is_file():
        print(f"error: no systolic sources under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    workdir = WORK / args.workload
    shutil.rmtree(workdir, ignore_errors=True)
    jobs, top = inputs.generate(args.workload, args.seed, workdir)
    env = harness.cli_env(SRC)
    os.chdir(workdir)
    deadline = time.monotonic() + harness.RUN_DEADLINE_S
    try:
        if args.trace:
            result = tracing.traced_run(jobs, workdir, env, deadline)
        else:
            top_runs = inputs.TOP_RUNS_PER_PASS.get(args.workload, 1)
            result = harness.timed_run(jobs, top, top_runs, args.seconds, workdir, env, deadline)
    except harness.JobTimeout as exc:
        print(f"error: job {exc} passed the run's deadline", file=sys.stderr)
        return 1
    metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in result["metrics"].items()}
    # Every workload is made so that no job fails: a failed job is a fault
    # of the program, and the run is not correct.
    print(json.dumps({"correct": result["failed"] == 0, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
