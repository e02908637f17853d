#!/usr/bin/env sh
# Sanitizer check: configures an instrumented build
# (-DVMTHERM_SANITIZE=<sanitizer>) and runs that sanitizer's ctest label set
# under it. Run from the repo root:
#
#   scripts/check_sanitizer.sh <address|thread|undefined> [build-dir]
#
#   address   — build-asan/  by default; concurrency, malformed-input
#               robustness, SMO solver and migration planner suites
#               (-L 'concurrency|robustness|solver|planner')
#   thread    — build-tsan/  by default; the concurrent paths: thread pool,
#               grid search and fleet serving (-L concurrency)
#   undefined — build-ubsan/ by default; same labels as address. The SVR
#               inference TU is built portable
#               (-DVMTHERM_INFERENCE_NATIVE=OFF): the release stage of
#               check_all.sh covers the -march=native build, so the
#               inference suites' bitwise contract runs here against the
#               baseline code generation as well.
#
# Every sanitizer builds the same target list: each test executable that
# carries one of the labels above. Benches and examples are skipped — only
# the tested paths need the instrumented build. ASAN_OPTIONS, TSAN_OPTIONS
# and UBSAN_OPTIONS from the environment replace the halt-on-error defaults.
set -eu

usage() {
  echo "usage: $0 <address|thread|undefined> [build-dir]" >&2
  exit 2
}

[ $# -ge 1 ] || usage
SANITIZER="$1"
EXTRA_FLAGS=""

case "$SANITIZER" in
  address)
    DEFAULT_DIR=build-asan
    LABELS='concurrency|robustness|solver|planner'
    ASAN_OPTIONS="${ASAN_OPTIONS:-halt_on_error=1}"
    export ASAN_OPTIONS
    ;;
  thread)
    DEFAULT_DIR=build-tsan
    LABELS=concurrency
    TSAN_OPTIONS="${TSAN_OPTIONS:-halt_on_error=1}"
    export TSAN_OPTIONS
    ;;
  undefined)
    DEFAULT_DIR=build-ubsan
    LABELS='concurrency|robustness|solver|planner'
    EXTRA_FLAGS=-DVMTHERM_INFERENCE_NATIVE=OFF
    UBSAN_OPTIONS="${UBSAN_OPTIONS:-halt_on_error=1:print_stacktrace=1}"
    export UBSAN_OPTIONS
    ;;
  *)
    usage
    ;;
esac

BUILD_DIR="${2:-$DEFAULT_DIR}"

cmake -B "$BUILD_DIR" -S . \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DVMTHERM_SANITIZE="$SANITIZER" \
  -DVMTHERM_WERROR=ON \
  ${EXTRA_FLAGS:+"$EXTRA_FLAGS"} \
  -DVMTHERM_BUILD_BENCH=OFF \
  -DVMTHERM_BUILD_EXAMPLES=OFF
cmake --build "$BUILD_DIR" -j \
  --target util_thread_pool_test ml_cv_test ml_grid_test ml_svr_test \
           ml_svr_smo_kernels_test ml_svr_inference_test \
           cli_test serve_metrics_test serve_engine_test serve_snapshot_test \
           serve_psi_cache_test serve_replay_test obs_trace_test obs_accuracy_test \
           robustness_corruption_test mgmt_planner_test

ctest --test-dir "$BUILD_DIR" --output-on-failure -j 2 -L "$LABELS"
