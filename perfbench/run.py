#!/usr/bin/env python3
"""Builds the xarch benchmark from this checkout's sources and runs it.

    python3 perfbench/run.py --workload xmark-serve --seed 1 --seconds 15 \
        --trace 0

The build (CMake, Release) goes to $CARGO_TARGET_DIR/perfbench, or to
.bench_build/perfbench under the checkout root when that variable is unset;
it is incremental, so only the first run of a checkout compiles. Durable
stores and trace spans are written under the same build directory. The
benchmark's human-readable report goes to stderr; the last line of stdout
is the JSON result. Exits non-zero without a result when the sources are
missing, the build fails, or any correctness check fails.
"""

import argparse
import fcntl
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("xmark-serve", "sprot-ingest", "xmark-sharded")
# A run must end within 180 s of its start, build included.
DEADLINE_S = 175


def fail(message):
    print("perfbench/run.py: " + message, file=sys.stderr)
    sys.exit(1)


def build_root():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(build_dir):
    """Configures (once) and builds the benchmark; returns the binary."""
    if not os.path.isfile(os.path.join(ROOT, "src", "xarch", "store.h")):
        fail("xarch sources not found under " + os.path.join(ROOT, "src"))
    os.makedirs(build_dir, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    # Serialize concurrent first runs on one build directory.
    with open(os.path.join(build_dir, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", build_dir,
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", build_dir, "-j", jobs])
        for step in steps:
            done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
            if done.returncode != 0:
                fail("build step failed: " + " ".join(step))
    binary = os.path.join(build_dir, "perfbench")
    if not os.access(binary, os.X_OK):
        fail("build produced no perfbench binary")
    return binary


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds <= 0 or args.seed < 0:
        fail("--seconds must be positive and --seed non-negative")

    started = time.monotonic()
    build_dir = build_root()
    binary = build(build_dir)
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--dir", os.path.join(build_dir, "data")]
    if args.trace:
        spans = os.path.join(build_dir, "spans")
        os.makedirs(spans, exist_ok=True)
        command += ["--spans", os.path.join(
            spans, "%s-seed%d.jsonl" % (args.workload, args.seed))]
    budget = max(10.0, DEADLINE_S - (time.monotonic() - started))
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE,
                              stderr=sys.stderr, timeout=budget)
    except subprocess.TimeoutExpired:
        fail("benchmark exceeded %.0f s" % budget)
    if done.returncode != 0:
        fail("benchmark exited with code %d" % done.returncode)
    lines = done.stdout.decode().strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        fail("benchmark printed no JSON result")
    if set(result) != {"correct", "attempted", "failed", "metrics"} or \
            result["correct"] is not True or result["attempted"] < 1:
        fail("malformed or failing result: " + lines[-1])
    sys.stdout.write(done.stdout.decode())
    sys.stdout.flush()


if __name__ == "__main__":
    main()
