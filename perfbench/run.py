#!/usr/bin/env python3
"""Build the benchmark driver from source and run one workload.

Run from the repository root:

    python3 perfbench/run.py --workload solve-onestep --seed 1 --seconds 20 --trace 0

The driver and the library are built (Release) under .bench_build/perfbench,
or under $CARGO_TARGET_DIR/perfbench when that is set; spans from traced runs
go to .bench_out/. Build output goes to standard error, so the last line of
standard output is the driver's result object. The exit code is the driver's,
or 2 when the build fails and 3 when the driver overruns its time limit.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ["solve-onestep", "solve-search", "serve-open", "serve-cached"]
RUN_TIMEOUT_S = 175


def build(build_dir):
    """Configures (once) and builds the driver; returns its path or None."""
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps.append(["cmake", "--build", build_dir, "-j", jobs])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            print("perfbench: build step failed: " + " ".join(step), file=sys.stderr)
            return None
    return os.path.join(build_dir, "perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    root = os.getcwd()
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    binary = build(os.path.join(root, target, "perfbench"))
    if binary is None:
        return 2
    out_dir = os.path.join(root, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace), "--out", out_dir]
    try:
        # subprocess.run kills and reaps the driver when the timeout fires.
        return subprocess.run(command, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: the driver overran %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
