#!/usr/bin/env python3
"""Smoke test of the fleet thermal-serving benchmark at tiny sizes.

    python3 perfbench/smoke.py

Builds the workload program from a clean build directory
(.bench_build/smoke, wiped first) with only the installed toolchain, then
runs every workload of
BENCHMARK.json through perfbench/run.py with --tiny, untraced and traced.
Checks that each run exits 0, passes its correctness gates, reports
exactly the metrics BENCHMARK.json names, and that the traced run wrote a
Chrome trace with no dropped spans. Takes about a minute.
"""

import json
import os
import shutil
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_DIR = os.path.join(".bench_build", "smoke")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    shutil.rmtree(os.path.join(ROOT, BUILD_DIR), ignore_errors=True)
    failures = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            label = "%s trace=%d" % (workload, trace)
            cmd = [sys.executable, os.path.join(BENCH_DIR, "run.py"),
                   "--workload", workload, "--seed", "7", "--seconds", "1",
                   "--trace", str(trace), "--tiny", "--build-dir", BUILD_DIR]
            done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            lines = done.stdout.strip().splitlines()
            problems = []
            if done.returncode != 0:
                problems.append("exit status %d" % done.returncode)
            try:
                result = json.loads(lines[-1])
            except (IndexError, ValueError):
                result = None
                problems.append("no JSON result line")
            if result is not None:
                wanted = {m["name"] for m in
                          spec["per_layer" if trace else "end_to_end"]}
                if set(result["metrics"]) != wanted:
                    problems.append("metric names differ from BENCHMARK.json")
                if not result["correct"] or result["failed"] != 0:
                    problems.append("correctness gate or operation failed")
                if trace and result["metrics"]["trace.dropped"]["value"] != 0:
                    problems.append("trace dropped spans")
            if trace:
                path = os.path.join(ROOT, BUILD_DIR, "traces",
                                    "%s-seed7.json" % workload)
                try:
                    with open(path) as f:
                        if not json.load(f)["traceEvents"]:
                            problems.append("empty Chrome trace")
                except (OSError, ValueError, KeyError):
                    problems.append("no valid Chrome trace at " + path)
            print("%-28s %s" % (label, "; ".join(problems) or "ok"), flush=True)
            if problems:
                failures.append(label)
                sys.stderr.write(done.stderr[-3000:])
    print("smoke: " + ("FAILED: " + ", ".join(failures) if failures
                        else "passed"))
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
