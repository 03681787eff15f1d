#!/usr/bin/env python3
"""Builds and runs GEA's end-to-end benchmark.

    python3 e2ebench/run.py --workload pipeline|serve_read|serve_write \
        --seed N --seconds S --trace 0|1
    python3 e2ebench/run.py --selftest

Run from the repository root. Each call configures and builds e2ebench/
(which compiles GEA's libraries from src/) into e2ebench/.build; only the
first call compiles everything, later ones rebuild what changed. The
benchmark's stdout is passed through: its last line is the JSON result.
Build output goes to stderr.
Exits non-zero, without a result, when the build or the run fails.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD = os.path.join(HERE, ".build")
OUT = os.path.join(HERE, ".out")
RUN_TIMEOUT_S = 175


def build(target):
    """Configures and builds `target`; returns the binary's path."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [["cmake", "-S", HERE, "-B", BUILD,
              "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
             ["cmake", "--build", BUILD, "--target", target, "-j", jobs]]
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            sys.exit("e2ebench: build failed: " + " ".join(step))
    return os.path.join(BUILD, target)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()

    if args.selftest:
        sys.exit(subprocess.run([build("e2ebench_selftest")]).returncode)
    if args.workload is None:
        parser.error("--workload is required")

    binary = build("e2ebench")
    out_dir = os.path.join(OUT, "%s-%d-%d" % (args.workload, args.seed,
                                              os.getpid()))
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--out", out_dir]
    sys.stdout.flush()
    with subprocess.Popen(command) as proc:
        try:
            code = proc.wait(timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            sys.exit("e2ebench: run exceeded %d s" % RUN_TIMEOUT_S)
    sys.exit(code)


if __name__ == "__main__":
    main()
