// perfbench/refresh.cpp
//
// model_refresh: sliding-window retraining. Setup simulates a record
// stream; each refresh runs the paper's full model selection on one window
// (StableTemperaturePredictor::train: default RBF grid, 10-fold CV, final
// SMO fit) on a fixed-size grid pool, and the refreshed model is scored on
// the window that follows it. Serving is idle; the work is ml SMO, grid
// search and CV on util::ThreadPool.

#include <algorithm>
#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "bench.h"
#include "core/evaluator.h"
#include "core/stable_predictor.h"
#include "util/error.h"

namespace vmtherm::bench {
namespace {

/// Grid pool size: the process uses at most these 4 threads.
constexpr std::size_t kGridThreads = 4;
/// Ceiling on the mean next-window MSE (degC^2): a refreshed model worse
/// than 5 degC RMS on the following window fails the run.
constexpr double kHoldoutMseCeiling = 25.0;
/// Spans one refresh records: the bench spans, the grid search and one per
/// point of the default 70-point grid.
constexpr double kSpansPerRefresh = 2 + 1 + 70;

}  // namespace

void run_model_refresh(const Options& options, Report& report) {
  // One refresh of a 200-record window takes 1.1-2.2 s on 4 threads.
  const std::size_t window = options.tiny ? 60 : 200;
  const std::size_t refreshes = std::max<std::size_t>(
      2, static_cast<std::size_t>(options.seconds * (options.tiny ? 0.2 : 1.2)));
  const std::size_t grid_threads = options.tiny ? 2 : kGridThreads;

  // Setup: simulate the record stream, repeated (see kSetupRepeats). The
  // last repeat before the refreshes is the one the run uses and the only
  // one traced; the later repeats run between refreshes, spread evenly, and
  // are thrown away.
  std::vector<double> setup_s;
  std::vector<core::Record> stream;
  std::vector<core::Record> spare;
  const auto set_up = [&](std::size_t r, std::vector<core::Record>& out) {
    out.clear();
    out.shrink_to_fit();
    if (r + 1 == kSetupRepeatsBefore && options.traced()) {
      obs::global_trace().set_enabled(true);
    }
    const auto start = Clock::now();
    {
      BenchSpan span("bench.stream", "repeat", static_cast<double>(r));
      out = core::generate_corpus(sim::ScenarioRanges{},
                                     (refreshes + 1) * window, options.seed);
    }
    setup_s.push_back(seconds_since(start));
    obs::global_trace().set_enabled(false);
  };
  for (std::size_t r = 0; r < kSetupRepeatsBefore; ++r) set_up(r, stream);
  std::size_t next_setup = kSetupRepeatsBefore;
  const std::size_t later_setups = kSetupRepeats - kSetupRepeatsBefore;

  const std::size_t traced_refreshes =
      options.traced()
          ? std::max<std::size_t>(
                1, static_cast<std::size_t>(
                       0.6 *
                       static_cast<double>(
                           obs::global_trace().capacity_per_thread()) /
                       kSpansPerRefresh))
          : 0;

  std::vector<double> refresh_ms, final_fit_s, predict_us, holdout_mse;
  double traced_s = 0.0;
  std::size_t traced = 0;
  std::uint64_t smo_iterations = 0;
  std::size_t support_vectors = 0;
  std::uint64_t refresh_errors = 0;
  double phase_s = 0.0;
  for (std::size_t i = 0; i < refreshes; ++i) {
    const std::vector<core::Record> train(
        stream.begin() + static_cast<long>(i * window),
        stream.begin() + static_cast<long>((i + 1) * window));
    const std::vector<core::Record> next(
        stream.begin() + static_cast<long>((i + 1) * window),
        stream.begin() + static_cast<long>((i + 2) * window));
    const bool trace_this = traced < traced_refreshes;
    if (trace_this) {
      obs::global_trace().set_enabled(true);
      ++traced;
    }
    core::StableTrainOptions train_options;
    train_options.grid.threads = grid_threads;
    core::StableTrainReport train_report;
    try {
      std::optional<core::StableTemperaturePredictor> refreshed;
      double elapsed = 0.0;
      {
        BenchSpan span("bench.refresh", "refresh", static_cast<double>(i));
        const auto start = Clock::now();
        refreshed.emplace(core::StableTemperaturePredictor::train(
            train, train_options, &train_report));
        elapsed = seconds_since(start);
      }
      obs::global_trace().set_enabled(false);
      const core::StableTemperaturePredictor& model = *refreshed;
      refresh_ms.push_back(elapsed * 1e3);
      phase_s += elapsed;
      if (trace_this) traced_s += elapsed;

      smo_iterations += train_report.final_fit.iterations;
      support_vectors = train_report.final_fit.support_vector_count;

      // Score on the following window with scalar predictions.
      double sq = 0.0;
      for (const core::Record& record : next) {
        const auto p_start = Clock::now();
        const double predicted = model.predict(record);
        predict_us.push_back(seconds_since(p_start) * 1e6);
        sq += (predicted - record.stable_temp_c) *
              (predicted - record.stable_temp_c);
      }
      holdout_mse.push_back(sq / static_cast<double>(next.size()));

      // The final fit alone, re-run at the chosen parameters.
      core::StableTrainOptions fit_options;
      fit_options.fixed_params = train_report.chosen_params;
      const auto f_start = Clock::now();
      (void)core::StableTemperaturePredictor::train(train, fit_options);
      final_fit_s.push_back(seconds_since(f_start));
    } catch (const Error& e) {
      obs::global_trace().set_enabled(false);
      ++refresh_errors;
      std::printf("refresh %zu failed: %s\n", i, e.what());
    }
    // The k-th later set-up follows refresh k * refreshes / (later + 1).
    if (next_setup < kSetupRepeats &&
        (i + 1) * (later_setups + 1) >=
            (next_setup - kSetupRepeatsBefore + 1) * refreshes) {
      set_up(next_setup++, spare);
    }
  }

  while (next_setup < kSetupRepeats) set_up(next_setup++, spare);

  double mean_mse = 0.0;
  for (const double m : holdout_mse) mean_mse += m;
  if (!holdout_mse.empty()) mean_mse /= static_cast<double>(holdout_mse.size());
  char detail[96];
  std::snprintf(detail, sizeof detail, "mean %.4f degC2, ceiling %.1f", mean_mse,
                kHoldoutMseCeiling);
  report.gate("holdout_mse",
              !holdout_mse.empty() && mean_mse < kHoldoutMseCeiling, detail);
  report.attempted(refreshes);
  report.failed(refresh_errors);

  const double trained_records =
      static_cast<double>(refresh_ms.size() * window);
  report.metric("setup_s", quantile(setup_s, 0.5), "s");
  report.metric("peak_rss_mb", peak_rss_mb(), "MB");
  report.metric("throughput_per_s", trained_records / phase_s, "1/s");
  report.metric("op_p50_ms", quantile(refresh_ms, 0.5), "ms");
  report.metric("model_mse", mean_mse, "degC2");
  report.named("refresh_s", quantile(refresh_ms, 0.5) / 1e3, "s");
  report.named("holdout_mse", mean_mse, "degC2");

  report.metric("ml.predict_us_p50", quantile(predict_us, 0.5), "us");
  report.metric("ml.support_vectors", static_cast<double>(support_vectors),
                "count");
  report.metric("ml.final_fit_s", quantile(final_fit_s, 0.5), "s");
  report.metric("ml.smo_iterations", static_cast<double>(smo_iterations),
                "count");
  report.metric("ml.refresh_ms_p99", quantile(refresh_ms, 0.99), "ms");
  if (options.traced()) {
    report.metric("trace.throughput_per_s",
                  static_cast<double>(traced * window) / traced_s, "1/s");
  }
}

}  // namespace vmtherm::bench
