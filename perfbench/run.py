#!/usr/bin/env python3
"""Builds the end-to-end benchmark from source and runs one workload.

Usage (from the repository root):
    python3 perfbench/run.py --workload paper_p9 --seed 1 --seconds 25 --trace 0

The build goes to $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench)
and is incremental. Build output goes to stderr; the benchmark's stdout is passed
through, and its last line is the JSON result. The traced run (--trace 1) also
writes its spans to <build dir>/spans-<workload>-<seed>.json. See
perfbench/README.md for the workloads and metrics.
"""

import argparse
import os
import subprocess
import sys

WORKLOADS = ("paper_p9", "select_p1000", "sched_trace")
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build(source_dir, build_dir):
    if not os.path.isfile(os.path.join(source_dir, "..", "src", "CMakeLists.txt")):
        fail("the HMPI sources (src/) are not next to perfbench/; run from a "
             "checkout of the repository")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", source_dir, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", "perfbench",
                  "-j", jobs])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build step failed: " + " ".join(step))
    return os.path.join(build_dir, "perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    source_dir = os.path.dirname(os.path.abspath(__file__))
    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.abspath(os.path.join(build_root, "perfbench"))
    binary = build(source_dir, build_dir)

    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        command += ["--spans-out", os.path.join(
            build_dir, "spans-%s-%d.json" % (args.workload, args.seed))]
    sys.stdout.flush()
    try:
        completed = subprocess.run(command, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("workload %s did not finish within %d s" % (args.workload,
                                                         RUN_TIMEOUT_S))
    sys.exit(completed.returncode)


if __name__ == "__main__":
    main()
