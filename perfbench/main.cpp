// perfbench/main.cpp
//
// Workload program of the fleet thermal-serving benchmark. One process runs
// one workload and prints its metrics, gate results and, as the last
// line, one JSON object {"correct", "attempted", "failed", "metrics"}.
//
//   vmtherm_bench --workload fleet_steady|placement_churn|model_refresh
//                 --seed N --seconds S [--trace-out PATH] [--tiny]
//
// Exit status: 0 when every correctness gate passed, 1 when a gate failed,
// 2 on a usage error or an unexpected exception.

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <string>

#include "bench.h"
#include "ml/grid.h"

namespace {

using vmtherm::bench::Options;

[[noreturn]] void usage(const char* problem) {
  std::cerr << "vmtherm_bench: " << problem
            << "\nusage: vmtherm_bench --workload NAME --seed N --seconds S "
               "[--trace-out PATH] [--tiny]\n";
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options options;
  bool have_seed = false;
  bool have_seconds = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage("missing option value");
      return argv[++i];
    };
    if (arg == "--workload") {
      options.workload = value();
    } else if (arg == "--seed") {
      options.seed = std::stoull(value());
      have_seed = true;
    } else if (arg == "--seconds") {
      options.seconds = std::stod(value());
      have_seconds = true;
    } else if (arg == "--trace-out") {
      options.trace_out = value();
    } else if (arg == "--tiny") {
      options.tiny = true;
    } else {
      usage("unknown option");
    }
  }
  if (options.workload.empty() || !have_seed || !have_seconds) {
    usage("--workload, --seed and --seconds are required");
  }
  if (!(options.seconds > 0.0)) usage("--seconds must be positive");
  return options;
}

/// Per-layer self times of the library's own spans. A span the workload
/// never recorded gives no metric; run.py fills in the layers a workload
/// never enters.
void report_span_layers(
    const std::map<std::string, vmtherm::bench::SpanStats>& stats,
    vmtherm::bench::Report& report) {
  const auto self_time = [&](const char* span, const char* metric,
                             double ns_per_unit, const char* unit) {
    const auto it = stats.find(span);
    if (it == stats.end()) return;
    report.metric(metric, it->second.mean_self_ns() / ns_per_unit, unit);
  };
  self_time("serve.observe", "core.observe_ns", 1.0, "ns");
  self_time("serve.featurize", "core.featurize_us", 1e3, "us");
  self_time("serve.psi_predict", "ml.psi_predict_us", 1e3, "us");
  self_time("serve.drain_chunk", "serve.drain_chunk_us", 1e3, "us");
  // A grid point is a serial loop of one SMO fit + validation per CV fold
  // with no span of its own per fold (ml.cv_fold covers only
  // cross_validated_mse, which training does not call), so the fold time
  // is the grid point's duration over the default 10 folds.
  const auto grid_point = stats.find("ml.grid_point");
  if (grid_point != stats.end()) {
    const double grid_point_ns = grid_point->second.mean_total_ns();
    const auto folds = static_cast<double>(vmtherm::ml::GridSpec{}.folds);
    report.metric("ml.grid_point_s", grid_point_ns / 1e9, "s");
    report.metric("ml.cv_fold_ms", grid_point_ns / folds / 1e6, "ms");
  }
}

}  // namespace

int main(int argc, char** argv) {
  const Options options = parse(argc, argv);
  vmtherm::bench::Report report;
  try {
    if (options.workload == "fleet_steady") {
      vmtherm::bench::run_fleet_steady(options, report);
    } else if (options.workload == "placement_churn") {
      vmtherm::bench::run_placement_churn(options, report);
    } else if (options.workload == "model_refresh") {
      vmtherm::bench::run_model_refresh(options, report);
    } else {
      usage("unknown workload");
    }
    if (options.traced()) {
      report_span_layers(vmtherm::bench::finish_trace(options, report), report);
    }
  } catch (const std::exception& e) {
    std::cerr << "vmtherm_bench: " << options.workload << " failed: " << e.what()
              << "\n";
    return 2;
  }
  report.print();
  return report.correct() ? 0 : 1;
}
