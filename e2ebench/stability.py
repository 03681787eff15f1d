#!/usr/bin/env python3
"""Repeats the benchmark and reports how steady each end-to-end metric is.

    python3 e2ebench/stability.py [--runs 10] [--seconds 30] [--seed 1]
                                  [--workloads pipeline,serve_read,...]

Runs e2ebench/run.py --runs times per workload, seed after seed, and
prints per metric the median, the quartiles (statistics.quantiles, n=4)
and the spread (q3 - q1) / median, for the normalized value the gate
reads and for the raw host-time value beside it. The bounds in
BENCHMARK.json are set from this table: each spread but setup_s's must
stay well inside its metric's bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("pipeline", "serve_read", "serve_write")


def run_once(workload, seed, seconds):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        sys.exit("run failed: %s seed %d (exit %d)" % (workload, seed,
                                                       proc.returncode))
    return json.loads(lines[-2]), json.loads(lines[-1])


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return median, q1, q3, (q3 - q1) / median


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    args = parser.parse_args()
    bounds = {}
    bench_json = os.path.join(HERE, "..", "BENCHMARK.json")
    if os.path.exists(bench_json):
        with open(bench_json) as f:
            bounds = {m["name"]: m["bound"] for m in json.load(f)["end_to_end"]}

    for workload in args.workloads.split(","):
        details, results = [], []
        for i in range(args.runs):
            detail, result = run_once(workload, args.seed + i, args.seconds)
            details.append(detail)
            results.append(result)
            print("  %s seed %d: %s" % (workload, args.seed + i, json.dumps(
                {k: round(v["value"], 4)
                 for k, v in result["metrics"].items()})), file=sys.stderr)
        failed = [r["failed"] / r["attempted"] for r in results]
        refs = [d["ref_median_ms"] for d in details]
        print("%s: %d runs of %d s, seeds %d..%d, correct %s, failed share "
              "%s, reference median %.2f ms (spread %.3f)" % (
                  workload, args.runs, args.seconds, args.seed,
                  args.seed + args.runs - 1,
                  all(r["correct"] for r in results), sorted(set(failed)),
                  statistics.median(refs), spread(refs)[3]))
        print("  %-18s %12s %12s %12s %8s %6s | %12s %8s" % (
            "metric", "median", "q1", "q3", "spread", "bound", "raw median",
            "raw sprd"))
        for name in results[0]["metrics"]:
            norm = spread([r["metrics"][name]["value"] for r in results])
            raw = spread([d["raw"][name] for d in details])
            print("  %-18s %12.4f %12.4f %12.4f %8.4f %6s | %12.4f %8.4f" % (
                name, norm[0], norm[1], norm[2], norm[3],
                bounds.get(name, "-"), raw[0], raw[3]))


if __name__ == "__main__":
    main()
