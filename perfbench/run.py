#!/usr/bin/env python3
"""Fleet thermal-serving benchmark: builds the workload program from source
and runs one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The workload program (perfbench/*.cpp) is
compiled with CMake into .bench_build/ together with the vmtherm libraries
from src/. Each workload runs in its own process:

  --trace 0  one untraced run; prints every end_to_end metric of
             BENCHMARK.json.
  --trace 1  the untraced run plus a separate traced run that records spans
             and writes a Chrome trace to .bench_build/traces/; prints every
             per_layer metric, including trace.overhead_pct (throughput lost
             to tracing) and trace.dropped.

Human-readable lines (gates, metrics, the span table) go first; the last
line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. Exit status is 0 only when the build and
every run succeeded and every correctness gate passed.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
WORKLOADS = ("fleet_steady", "placement_churn", "model_refresh")
RUN_DEADLINE_S = 170.0  # a run must end within 180 s, build excluded
BUILD_TIMEOUT_S = 850.0

# Per-layer metrics a workload does not produce because it never enters
# that layer; they are reported as 0 (prefix match). This is the only place
# that fills in idle layers: any other missing metric fails the run.
IDLE = {
    "fleet_steady": ("mgmt.", "ml.grid_point_s", "ml.cv_fold_ms",
                     "ml.final_fit_s", "ml.smo_iterations",
                     "ml.refresh_ms_p99"),
    "placement_churn": ("ml.grid_point_s", "ml.cv_fold_ms", "ml.final_fit_s",
                        "ml.smo_iterations", "ml.refresh_ms_p99"),
    "model_refresh": ("serve.", "mgmt.", "core.", "ml.psi_predict_us",
                      "sim.", "ml.setup_fit_s"),
}


def fail(message):
    print("run.py: " + message, file=sys.stderr)
    sys.exit(1)


def build(build_dir):
    """Configures (once) and builds the workload program; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("vmtherm sources (src/) not found next to perfbench/")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", BENCH_DIR, "-B", build_dir,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        step(cmd, BUILD_TIMEOUT_S)
    step(["cmake", "--build", build_dir, "--target", "vmtherm_bench",
          "-j", "4"], BUILD_TIMEOUT_S)
    return os.path.join(build_dir, "vmtherm_bench")


def step(cmd, timeout):
    """Runs a build command with its output on stderr."""
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr,
                              stderr=sys.stderr, timeout=timeout)
    except subprocess.TimeoutExpired:
        fail("timed out: " + " ".join(cmd))
    if done.returncode != 0:
        fail("failed: " + " ".join(cmd))


def run_workload(binary, args, deadline, trace_out=None):
    """Runs the workload program once; echoes its report, returns its JSON."""
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds)]
    if trace_out:
        cmd += ["--trace-out", trace_out]
    if args.tiny:
        cmd.append("--tiny")
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        fail("no time left for the %s run"
             % ("traced" if trace_out else "untraced"))
    try:
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        fail("workload run timed out: " + " ".join(cmd))
    sys.stderr.write(done.stderr)
    lines = done.stdout.strip().splitlines()
    if done.returncode not in (0, 1) or not lines:
        fail("workload run failed with status %d" % done.returncode)
    for line in lines[:-1]:
        print(("traced " if trace_out else "") + line)
    try:
        return json.loads(lines[-1])
    except ValueError:
        fail("workload run printed no result line")


def select(spec, workload, values, idle_ok):
    """Picks the named metrics from `values`, in BENCHMARK.json order."""
    out = {}
    for metric in spec:
        name = metric["name"]
        if name in values:
            out[name] = {"value": values[name]["value"], "unit": metric["unit"]}
        elif idle_ok and name.startswith(IDLE[workload]):
            out[name] = {"value": 0, "unit": metric["unit"]}
        else:
            fail("workload %s did not report metric %s" % (workload, name))
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny sizes (smoke test)")
    parser.add_argument("--build-dir", default=None,
                        help="build directory (default .bench_build)")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    build_dir = os.path.join(ROOT, args.build_dir or ".bench_build")
    binary = build(build_dir)
    deadline = time.monotonic() + RUN_DEADLINE_S

    plain = run_workload(binary, args, deadline)
    results = [plain]
    if args.trace:
        trace_dir = os.path.join(build_dir, "traces")
        os.makedirs(trace_dir, exist_ok=True)
        trace_out = os.path.join(
            trace_dir, "%s-seed%d.json" % (args.workload, args.seed))
        traced = run_workload(binary, args, deadline, trace_out)
        results.append(traced)
        values = dict(plain["metrics"])
        values.update(traced["metrics"])
        base = plain["metrics"]["throughput_per_s"]["value"]
        with_trace = traced["metrics"]["trace.throughput_per_s"]["value"]
        values["trace.overhead_pct"] = {
            "value": (base - with_trace) / base * 100.0}
        print("trace written to " + os.path.relpath(trace_out, ROOT))
        metrics = select(spec["per_layer"], args.workload, values, True)
    else:
        metrics = select(spec["end_to_end"], args.workload, plain["metrics"],
                         False)

    correct = all(r["correct"] for r in results)
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
