// perfbench/bench.h
//
// Shared pieces of the fleet thermal-serving benchmark program: run
// options, the result report (named metrics with units, correctness
// gates, attempted/failed accounting), timing helpers, and the trace
// analysis that turns recorded spans into per-layer self times.
//
// The program only calls the library's public API and wraps those calls
// in its own spans; it adds no instrumentation to the library.

#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "obs/trace.h"

namespace vmtherm::bench {

using Clock = std::chrono::steady_clock;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  /// Nominal measured-phase length. Work counts are derived from it once
  /// (counts, not a time budget), so every run of one (seed, seconds)
  /// does identical work.
  double seconds = 10.0;
  /// Non-empty: traced run; the Chrome trace is written here.
  std::string trace_out;
  /// Tiny sizes for the smoke test.
  bool tiny = false;

  bool traced() const { return !trace_out.empty(); }
};

/// Collects everything one workload run reports.
class Report {
 public:
  void metric(const std::string& name, double value, const std::string& unit);

  /// A workload-specific name for an end-to-end figure (events_per_s,
  /// control_p50_ms, holdout_mse, ...): printed in the human-readable
  /// report only; the JSON line carries the workload-independent names.
  void named(const std::string& name, double value, const std::string& unit);

  /// Records one correctness gate; a failed gate fails the run.
  void gate(const std::string& name, bool ok, const std::string& detail);

  /// Operation accounting for the contract's attempted/failed fields.
  void attempted(std::uint64_t n) { attempted_ += n; }
  void failed(std::uint64_t n) { failed_ += n; }

  bool correct() const { return gates_failed_ == 0; }

  /// Human-readable lines, then one JSON object as the last line.
  void print() const;

 private:
  struct Entry {
    double value = 0.0;
    std::string unit;
  };
  std::map<std::string, Entry> metrics_;
  std::map<std::string, Entry> named_;
  std::vector<std::string> gate_lines_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::uint64_t gates_failed_ = 0;
};

/// setup_s is the median of kSetupRepeats timed set-ups per run. The first
/// kSetupRepeatsBefore run before the measured phase, and the last of them
/// is the one the run uses; the others run after or during it. The samples
/// thus span the whole run, so a slow phase of a shared host moves fewer of
/// them.
constexpr std::size_t kSetupRepeatsBefore = 5;
constexpr std::size_t kSetupRepeats = 9;

inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Nearest-rank quantile of `values` (q in [0, 1]); 0 for an empty set.
double quantile(std::vector<double> values, double q);

/// Peak resident set size of this process in MB.
double peak_rss_mb();

/// Bench-side span on the global recorder, carrying the id of the step,
/// control cycle or refresh it belongs to. Records nothing while the
/// recorder is disabled.
class BenchSpan {
 public:
  BenchSpan(const char* name, const char* id_name, double id)
      : span_(obs::global_trace(), name, "bench", id_name, id) {}

 private:
  obs::Span span_;
};

/// Per-span-name totals over every published event of the global
/// recorder. Self time is a span's duration minus the time its direct
/// child spans on the same thread cover.
struct SpanStats {
  std::uint64_t count = 0;
  double total_ns = 0.0;
  double self_ns = 0.0;

  double mean_total_ns() const { return count ? total_ns / count : 0.0; }
  double mean_self_ns() const { return count ? self_ns / count : 0.0; }
};

/// Stops recording, exports the global recorder as Chrome trace JSON,
/// prints the span table, reports trace.dropped and returns the stats.
std::map<std::string, SpanStats> finish_trace(const Options& options,
                                              Report& report);

void run_fleet_steady(const Options& options, Report& report);
void run_placement_churn(const Options& options, Report& report);
void run_model_refresh(const Options& options, Report& report);

}  // namespace vmtherm::bench
