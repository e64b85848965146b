#!/usr/bin/env python3
"""Benchmark entry point: builds the benchmark binary from source, then runs it.

    python3 perfbench/run.py --workload road-drive --seed 1 --seconds 30 --trace 0

Run from the repository root. The binary and the simulator libraries it
links are built with CMake into $CARGO_TARGET_DIR (default .bench_build);
build output goes to stderr. The binary's stdout is passed through, so its
last line is the result object. A failed build or run exits non-zero
without printing a result.
"""

import argparse
import os
import subprocess
import sys

WORKLOADS = ("road-drive", "city-fleet", "serve-campaign")
RUN_TIMEOUT_S = 170


def build(source_dir, build_dir):
    """Configures (first time only) and builds the binary; returns its path."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", source_dir, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", build_dir, "--target", "perfbench",
                  "-j", jobs])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            sys.exit("perfbench: build step failed: " + " ".join(step))
    return os.path.join(build_dir, "perfbench")


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    root = os.getcwd()
    source_dir = os.path.dirname(os.path.abspath(__file__))
    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(root, build_root, "perfbench")
    binary = build(source_dir, build_dir)

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--spans", os.path.join(
            build_dir, "spans-%s-%d.jsonl" % (args.workload, args.seed))]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: run exceeded %d s" % RUN_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout.decode(errors="replace"))
        sys.exit("perfbench: benchmark exited with %d" % proc.returncode)
    sys.stdout.write(proc.stdout.decode())
    sys.stdout.flush()


if __name__ == "__main__":
    main()
