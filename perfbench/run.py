#!/usr/bin/env python3
"""Builds and runs the bulkdel end-to-end benchmark for one workload.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload paper_delete --seed 1 --seconds 30 \
        --trace 0

It compiles perfbench/bulkdel_perf (and the library under src/) into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench), runs it, checks
that its result line carries exactly the metrics BENCHMARK.json names for the
requested mode, and prints that line last. Build output goes to stderr.
Exits non-zero, printing no result, when the sources are missing, the build
fails, the run fails or its result is malformed.
"""

import argparse
import json
import os
import subprocess
import sys

RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build(build_dir):
    if not os.path.isfile(os.path.join("src", "core", "database.h")):
        fail("no bulkdel sources under ./src; run from the repository root")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", "perfbench", "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs])
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode:
            fail("build step failed: " + " ".join(step))
    return os.path.join(build_dir, "bulkdel_perf")


def expected_metrics(trace):
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    build_dir = os.path.join(os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                             "perfbench")
    binary = build(build_dir)
    command = [binary, f"--workload={args.workload}", f"--seed={args.seed}",
               f"--seconds={args.seconds}", f"--trace={args.trace}",
               f"--dir={os.path.join(build_dir, 'db-%d' % os.getpid())}"]
    try:
        proc = subprocess.run(command, stdout=subprocess.PIPE,
                              stderr=sys.stderr, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail(f"run exited with {proc.returncode}")
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("malformed result: " + lines[-1])
    missing = expected_metrics(args.trace) ^ set(result["metrics"])
    if missing:
        fail("result metrics differ from BENCHMARK.json: " +
             ", ".join(sorted(missing)))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
