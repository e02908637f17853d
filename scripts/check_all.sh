#!/usr/bin/env sh
# Full verification matrix. Runs, in order:
#
#   release — Release build (-DVMTHERM_WERROR=ON), full ctest suite
#   lint    — vmtherm-lint over the whole tree (also a ctest in `release`,
#             run standalone here so its diagnostics reach the console)
#   asan    — scripts/check_sanitizer.sh address   (concurrency +
#             robustness + solver + planner suites)
#   tsan    — scripts/check_sanitizer.sh thread    (concurrency suites)
#   ubsan   — scripts/check_sanitizer.sh undefined (concurrency + robustness
#             + solver + planner suites, portable inference TU:
#             -DVMTHERM_INFERENCE_NATIVE=OFF)
#   perfbench — perfbench/smoke.py (clean build of the benchmark program
#             against src/, tiny traced and untraced runs of every workload)
#
# Prints one PASS/FAIL line per stage, keeps going after a failure so one
# run reports the whole matrix, and exits nonzero if any stage failed.
# Run from the repo root:
#
#   scripts/check_all.sh [log-dir]
#
# Per-stage output goes to <log-dir>/<stage>.log (default: check-logs/).
set -u

LOG_DIR="${1:-check-logs}"
mkdir -p "$LOG_DIR"

failures=0

run_stage() {
  stage="$1"
  shift
  log="$LOG_DIR/$stage.log"
  if "$@" >"$log" 2>&1; then
    echo "PASS  $stage"
  else
    echo "FAIL  $stage  (see $log)"
    failures=$((failures + 1))
  fi
}

release_stage() {
  cmake -B build-release -S . \
    -DCMAKE_BUILD_TYPE=Release -DVMTHERM_WERROR=ON &&
    cmake --build build-release -j &&
    ctest --test-dir build-release --output-on-failure -j 2
}

lint_stage() {
  ./build-release/tools/lint/vmtherm-lint --root . \
    --json build-release/lint_report.json
}

run_stage release release_stage
run_stage lint lint_stage
run_stage asan scripts/check_sanitizer.sh address
run_stage tsan scripts/check_sanitizer.sh thread
run_stage ubsan scripts/check_sanitizer.sh undefined
run_stage perfbench python3 perfbench/smoke.py

if [ "$failures" -ne 0 ]; then
  echo "$failures stage(s) failed"
  exit 1
fi
echo "all stages passed"
