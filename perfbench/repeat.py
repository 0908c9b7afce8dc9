#!/usr/bin/env python3
"""Repeat command: runs workloads several times and prints the median and
quartiles of every metric.

    python3 perfbench/repeat.py --runs 10 --seed 1 [--seed-step 1]
                                [--workload NAME ...] [--seconds 10]
                                [--trace 0|1] [--json OUT]

Run from the repository root. Each run is one `perfbench/run.py`
invocation. With --seed-step 0 every run uses --seed (the sim-clock metrics
then repeat exactly and only host-clock metrics spread); with --seed-step 1
run i uses seed + i, which is how the bounds in BENCHMARK.json were set.
The spread column is (q3 - q1) / median, with quartiles as Python's
statistics.quantiles(values, n=4) gives them.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True  # leave no __pycache__ in the checkout
from run import WORKLOADS  # noqa: E402


def one_run(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError("%s seed %d exited %d" %
                           (workload, seed, proc.returncode))
    return json.loads(lines[-1])


def summarize(results):
    rows = {}
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        q1, med, q3 = statistics.quantiles(values, n=4)
        rows[name] = {
            "unit": results[0]["metrics"][name]["unit"],
            "median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0,
            "values": values,
        }
    return rows


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", action="append", choices=WORKLOADS)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seed-step", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--json", help="also write the summary to this file")
    args = ap.parse_args()
    if args.runs < 2:
        ap.error("--runs must be at least 2 for quartiles")

    summary = {}
    for workload in args.workload or WORKLOADS:
        results = []
        for i in range(args.runs):
            seed = args.seed + i * args.seed_step
            results.append(one_run(workload, seed, args.seconds, args.trace))
        rows = summarize(results)
        correct = all(r["correct"] for r in results)
        shares = sorted({r["failed"] / r["attempted"] for r in results})
        summary[workload] = {"correct": correct, "failed_shares": shares,
                             "attempted": [r["attempted"] for r in results],
                             "metrics": rows}
        print("== %s  runs=%d seed=%d step=%d correct=%s failed_share=%s" %
              (workload, args.runs, args.seed, args.seed_step, correct,
               shares))
        for name, row in rows.items():
            print("  %-42s %14.6g %14.6g %14.6g %8.4f  %s" %
                  (name, row["median"], row["q1"], row["q3"], row["spread"],
                   row["unit"]))
        sys.stdout.flush()
    if args.json:
        with open(args.json, "w") as f:
            json.dump(summary, f, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
