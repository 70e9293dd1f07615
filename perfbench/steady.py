#!/usr/bin/env python3
"""Steadiness check for the xarch benchmark.

Runs each workload repeatedly through perfbench/run.py, one seed per run,
and prints for every metric its median, quartiles and spread (the distance
between the first and third quartile as a share of the median, computed
with statistics.quantiles(values, n=4)). End-to-end metrics whose spread
exceeds their bound in BENCHMARK.json are flagged, except setup_s, whose
bound applies to medians only. The header records nproc,
hardware_concurrency, the seeds, the fsync policy and the run length.

    python3 perfbench/steady.py --runs 10 --first-seed 1
    python3 perfbench/steady.py --workloads sprot-ingest --runs 5
    python3 perfbench/steady.py --trace --runs 3      # per-layer + overhead

With --trace, each workload also gets the same number of untraced runs, and
the report adds the tracing overhead: traced minus untraced median
query_qps and ingest_mb_per_s. --json FILE saves every run's result.
Exits 1 when a run fails or a spread is flagged.
"""

import argparse
import json
import os
import re
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_once(workload, seed, seconds, trace):
    """One run; returns (result dict, stderr header fields)."""
    command = [sys.executable, os.path.join(HERE, "run.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "1" if trace else "0"]
    done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE)
    err = done.stderr.decode()
    if done.returncode != 0:
        sys.stderr.write(err[-4000:])
        raise SystemExit("run failed: %s seed %d (exit %d)"
                         % (workload, seed, done.returncode))
    header = dict(re.findall(r"(\w+)=(\S+)",
                             next((l for l in err.splitlines()
                                   if l.startswith("perfbench: workload=")),
                                  "")))
    return json.loads(done.stdout.decode().strip().splitlines()[-1]), header


def spread(values):
    if len(values) < 2:
        return 0.0, values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median if median else float("inf"), q1, median, q3


def main():
    bench = load_benchmark()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="*",
                        default=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        default=bench["run_seconds"])
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--json", help="write every run's result here")
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seeds = list(range(args.first_seed, args.first_seed + args.runs))
    flagged = []
    saved = {}
    header_printed = False
    for workload in args.workloads:
        modes = [True, False] if args.trace else [False]
        by_mode = {}
        for trace in modes:
            runs = []
            for seed in seeds:
                result, header = run_once(workload, seed, args.seconds, trace)
                if not header_printed:
                    print("# nproc=%s hardware_concurrency=%s "
                          "run_seconds=%g seeds=%d..%d runs=%d"
                          % (header.get("nproc"),
                             header.get("hardware_concurrency"),
                             args.seconds, seeds[0], seeds[-1], len(seeds)))
                    header_printed = True
                if result["failed"]:
                    flagged.append("%s seed %d: %d failed operations"
                                   % (workload, seed, result["failed"]))
                runs.append(result)
            by_mode[trace] = runs
            saved["%s%s" % (workload, " (trace)" if trace else "")] = runs
            print("\n## %s%s (fsync=%s)" % (workload,
                                            " (traced)" if trace else "",
                                            header.get("fsync")))
            print("%-32s %14s %14s %14s %8s %6s"
                  % ("metric", "q1", "median", "q3", "spread", "bound"))
            for name in runs[0]["metrics"]:
                values = [r["metrics"][name]["value"] for r in runs]
                s, q1, median, q3 = spread(values)
                bound = bounds.get(name) if not trace else None
                flag = ""
                if bound is not None and name != "setup_s" and s > bound:
                    flag = "  <-- exceeds bound"
                    flagged.append("%s %s spread %.3f > %.3f"
                                   % (workload, name, s, bound))
                print("%-32s %14.6g %14.6g %14.6g %8.3f %6s%s"
                      % (name, q1, median, q3, s,
                         "" if bound is None else "%.2f" % bound, flag))
        if args.trace:
            traced = by_mode[True]
            untraced = by_mode[False]
            for name, traced_name in (("query_qps", "trace.query_qps_traced"),
                                      ("ingest_mb_per_s",
                                       "trace.ingest_mb_per_s_traced")):
                t = statistics.median(r["metrics"][traced_name]["value"]
                                      for r in traced)
                u = statistics.median(r["metrics"][name]["value"]
                                      for r in untraced)
                print("tracing overhead %s: traced %.4g - untraced %.4g = "
                      "%+.4g (%+.1f%%)" % (name, t, u, t - u,
                                           100.0 * (t - u) / u if u else 0))
    if args.json:
        with open(args.json, "w") as f:
            json.dump({"seeds": seeds, "seconds": args.seconds,
                       "runs": saved}, f, indent=1)
    if flagged:
        print("\nFLAGGED:\n  " + "\n  ".join(flagged))
        sys.exit(1)
    print("\nall spreads within bounds")


if __name__ == "__main__":
    main()
