#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout. The first call configures and builds the
library under src/ together with the benchmark binary into .bench_build/
(later calls only rebuild what changed), then runs one workload:

  train_full     GarciaModel::Fit, full graph, 4 threads
  train_sampled  GarciaModel::Fit, fanout-8 sampled blocks, serial (the
                 thread moves to the next CPU every 50 ms),
                 checkpointing every 25 steps
  serve_zipf     open-loop Poisson/Zipf serving into ResilientRanker over
                 an SQ8 IVF index, 3 workers

The binary prints each phase's counts and every metric with its unit; the
last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics (end-to-end metrics, or per-layer ones with --trace 1,
which also writes a Chrome trace-event file under .bench_build/traces/).
The exit code is 0 only if every correctness check passed.

The benchmark's own tests:
    cmake --build .bench_build --target perfbench_test && .bench_build/perfbench_test
"""

import argparse
import fcntl
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170
WORKLOADS = ("train_full", "train_sampled", "serve_zipf")


def fail(step, message):
    print(f"perfbench/run.py: step {step} failed: {message}", file=sys.stderr)
    sys.exit(2)


def build(build_dir):
    if not os.path.isfile(os.path.join(HERE, "..", "src", "CMakeLists.txt")):
        fail("build", "library sources (src/CMakeLists.txt next to perfbench/) "
                      "not found; run from the root of a full checkout")
    os.makedirs(build_dir, exist_ok=True)
    with open(os.path.join(build_dir, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", build_dir,
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", build_dir, "--target", "perfbench",
                      "-j", "4"])
        for cmd in steps:
            try:
                # Build output goes to stderr: stdout ends with the result.
                proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                      timeout=BUILD_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                fail("build", f"timed out: {' '.join(cmd)}")
            except OSError as e:
                fail("build", f"cannot run {cmd[0]}: {e}")
            if proc.returncode != 0:
                fail("build", f"exit code {proc.returncode}: {' '.join(cmd)}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0:
        fail("arguments", "--seed must be non-negative")

    build_dir = os.path.join(os.getcwd(), ".bench_build")
    build(build_dir)
    binary = os.path.join(build_dir, "perfbench")
    trace_out = os.path.join(build_dir, "traces",
                             f"{args.workload}-seed{args.seed}.json")
    os.makedirs(os.path.dirname(trace_out), exist_ok=True)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--scratch", os.path.join(build_dir, "scratch"),
           "--trace_out", trace_out]
    sys.stdout.flush()
    try:
        proc = subprocess.run(cmd, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(args.workload, f"no result within {RUN_TIMEOUT_S} s")
    if proc.returncode != 0:
        print(f"perfbench/run.py: workload {args.workload} exited with code "
              f"{proc.returncode}", file=sys.stderr)
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
