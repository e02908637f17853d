#!/usr/bin/env python3
"""Steadiness check for the fleet thermal-serving benchmark.

    python3 perfbench/steadiness.py [--runs 10] [--workloads a,b]

Runs every workload --runs times with seeds 1..runs through
perfbench/run.py (untraced), each run measuring BENCHMARK.json's
run_seconds. For each end-to-end metric it prints the
median, the first and third quartile (statistics.quantiles(values, n=4))
and the spread (q3 - q1) / median next to the metric's bound from
BENCHMARK.json. A spread under a third of the bound is 'steady'; under the
bound 'ok'; above it 'NOISY'. It also compares the medians of the first
and second half of the runs, which shows how far two sets of runs of the
same code drift apart. Exit status 1 when any run failed or any spread
exceeds its bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "0"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.stderr.write(done.stderr[-2000:])
        return None
    result = json.loads(lines[-1])
    return {name: m["value"] for name, m in result["metrics"].items()}


def summarize(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3, (q3 - q1) / median


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in spec["workloads"]))
    args = parser.parse_args()

    bad = False
    for workload in args.workloads.split(","):
        runs = []
        for seed in range(1, args.runs + 1):
            start = time.monotonic()
            values = run_once(workload, seed, spec["run_seconds"])
            wall = time.monotonic() - start
            if values is None:
                print("%s seed %d: run FAILED" % (workload, seed))
                bad = True
                continue
            runs.append(values)
            print("%s seed %d: %s wall=%.1fs" % (workload, seed, " ".join(
                "%s=%.6g" % kv for kv in values.items()), wall), flush=True)
        if len(runs) < 4:
            bad = True
            continue
        print("\n%-16s %-18s %12s %12s %12s %8s %7s %8s %s" % (
            "workload", "metric", "q1", "median", "q3", "spread", "bound",
            "halves", "verdict"))
        half = len(runs) // 2
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            values = [r[name] for r in runs]
            q1, median, q3, spread = summarize(values)
            first = statistics.median(values[:half])
            second = statistics.median(values[half:])
            drift = (second - first) / first
            if metric["better"] == "higher":
                drift = -drift
            verdict = ("steady" if spread < bound / 3 else
                       "ok" if spread <= bound else "NOISY")
            if verdict == "NOISY":
                bad = True
            print("%-16s %-18s %12.6g %12.6g %12.6g %8.4f %7.3f %+8.4f %s" % (
                workload, name, q1, median, q3, spread, bound, drift, verdict))
        print()
    sys.exit(1 if bad else 0)


if __name__ == "__main__":
    main()
