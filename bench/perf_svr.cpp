// Microbenchmarks of the ML substrate (google-benchmark): SMO training
// (cold and along a warm C path), prediction throughput, kernel evaluation,
// grid-search cost and the migration planner built on the predictor. These
// bound the offline training and online serving cost of the paper's
// pipeline.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "core/evaluator.h"
#include "core/stable_predictor.h"
#include "mgmt/planner.h"
#include "ml/cv.h"
#include "ml/forest.h"
#include "ml/grid.h"
#include "ml/scaler.h"
#include "ml/svr.h"
#include "ml/svr_inference.h"
#include "ml/svr_smo_kernels.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace {

using namespace vmtherm;

ml::Dataset synthetic_data(std::size_t n, std::size_t dim,
                           std::uint64_t seed) {
  Rng rng(seed);
  ml::Dataset data;
  for (std::size_t i = 0; i < n; ++i) {
    std::vector<double> x(dim);
    double y = 0.0;
    for (std::size_t j = 0; j < dim; ++j) {
      x[j] = rng.uniform(-1.0, 1.0);
      y += std::sin(static_cast<double>(j + 1) * x[j]) /
           static_cast<double>(j + 1);
    }
    data.add(ml::Sample{std::move(x), y});
  }
  return data;
}

ml::SvrParams rbf_params() {
  ml::SvrParams params;
  params.kernel.gamma = 0.5;
  params.c = 10.0;
  params.epsilon = 0.05;
  return params;
}

void BM_SvrTrain(benchmark::State& state) {
  const auto data = synthetic_data(static_cast<std::size_t>(state.range(0)),
                                   16, 1);
  const auto params = rbf_params();
  for (auto _ : state) {
    benchmark::DoNotOptimize(ml::SvrModel::train(data, params));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_SvrTrain)->Arg(64)->Arg(128)->Arg(256)->Arg(512)
    ->Unit(benchmark::kMillisecond);

void BM_SvrPredict(benchmark::State& state) {
  const auto data = synthetic_data(static_cast<std::size_t>(state.range(0)),
                                   16, 2);
  const auto model = ml::SvrModel::train(data, rbf_params());
  const std::vector<double> x(16, 0.25);
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.predict(x));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SvrPredict)->Arg(128)->Arg(512);

void BM_SvrPredictBatch(benchmark::State& state) {
  // Batched inference over the packed kernel; items/sec here divided by
  // BM_SvrPredict's rate is the batching win at equal support size.
  const auto data = synthetic_data(static_cast<std::size_t>(state.range(0)),
                                   16, 2);
  const auto model = ml::SvrModel::train(data, rbf_params());
  constexpr std::size_t kQueries = 1024;
  Rng rng(9);
  std::vector<double> queries(kQueries * 16);
  for (double& q : queries) q = rng.uniform(-1.0, 1.0);
  std::vector<double> out(kQueries);
  for (auto _ : state) {
    model.predict_batch(queries, kQueries, out);
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * kQueries);
}
BENCHMARK(BM_SvrPredictBatch)->Arg(128)->Arg(512);

void BM_SvrPredictBatchThreaded(benchmark::State& state) {
  // predict_batch sharded over a pool; bitwise-identical results to the
  // single-thread run by the inference determinism contract.
  const auto data = synthetic_data(512, 16, 2);
  const auto model = ml::SvrModel::train(data, rbf_params());
  constexpr std::size_t kQueries = 4096;
  Rng rng(10);
  std::vector<double> queries(kQueries * 16);
  for (double& q : queries) q = rng.uniform(-1.0, 1.0);
  std::vector<double> out(kQueries);
  util::ThreadPool pool(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    model.predict_batch(queries, kQueries, out, &pool);
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * kQueries);
}
BENCHMARK(BM_SvrPredictBatchThreaded)->Arg(1)->Arg(2)->Arg(4)->UseRealTime();

void BM_ExpDet(benchmark::State& state) {
  // Deterministic exp vs libm: the transform at the heart of the RBF row.
  Rng rng(11);
  std::vector<double> xs(1024);
  for (double& v : xs) v = rng.uniform(-30.0, 0.0);
  std::vector<double> out(1024);
  const bool use_det = state.range(0) == 1;
  for (auto _ : state) {
    if (use_det) {
      for (std::size_t i = 0; i < xs.size(); ++i) out[i] = ml::exp_det(xs[i]);
    } else {
      for (std::size_t i = 0; i < xs.size(); ++i) out[i] = std::exp(xs[i]);
    }
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetLabel(use_det ? "exp_det" : "std::exp");
  state.SetItemsProcessed(state.iterations() * xs.size());
}
BENCHMARK(BM_ExpDet)->Arg(0)->Arg(1);

void BM_KernelEvalRbf(benchmark::State& state) {
  Rng rng(3);
  const auto dim = static_cast<std::size_t>(state.range(0));
  std::vector<double> a(dim);
  std::vector<double> b(dim);
  for (std::size_t j = 0; j < dim; ++j) {
    a[j] = rng.uniform(-1, 1);
    b[j] = rng.uniform(-1, 1);
  }
  ml::KernelParams params;
  params.kind = ml::KernelKind::kRbf;
  params.gamma = 0.5;
  for (auto _ : state) {
    benchmark::DoNotOptimize(ml::kernel_eval(params, a, b));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_KernelEvalRbf)->Arg(16)->Arg(64);

void BM_GridSearchSmall(benchmark::State& state) {
  const auto data = synthetic_data(96, 16, 4);
  ml::GridSpec spec;
  spec.c_values = {1.0, 10.0};
  spec.gamma_values = {0.1, 1.0};
  spec.epsilon_values = {0.05};
  spec.folds = 4;
  for (auto _ : state) {
    benchmark::DoNotOptimize(ml::grid_search_svr(data, spec));
  }
  state.SetLabel("2x2x1 grid, 4-fold, 96 samples");
}
BENCHMARK(BM_GridSearchSmall)->Unit(benchmark::kMillisecond);

void BM_GridSearchPaperScale(benchmark::State& state) {
  // The paper-scale search: default 7x5x2 (C, gamma, epsilon) grid with
  // 10-fold CV, swept over thread counts. UseRealTime makes the threaded
  // runs report wall clock, so the serial-vs-parallel speedup reads
  // directly off the table.
  const auto data = synthetic_data(96, 16, 8);
  ml::GridSpec spec;
  spec.threads = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(ml::grid_search_svr(data, spec));
  }
  state.SetLabel("7x5x2 grid, 10-fold, 96 samples, " +
                 std::to_string(state.range(0)) + " thread(s)");
}
BENCHMARK(BM_GridSearchPaperScale)->Arg(1)->Arg(2)->Arg(4)
    ->Unit(benchmark::kMillisecond)->UseRealTime();

void BM_SvrTrainCPath(benchmark::State& state) {
  // One grid chain: the default 7-value C list solved cold (7 independent
  // train() calls, Arg 0) or as one warm-started train_c_path (Arg 1) on a
  // 180-sample set, the training split of a 200-record window under
  // 10-fold CV. The smo_iterations counter is the chain's total.
  const auto data = synthetic_data(180, 16, 12);
  const auto params = rbf_params();
  const std::vector<double> c_values = ml::GridSpec{}.c_values;
  const bool warm = state.range(0) == 1;
  std::size_t iterations = 0;
  for (auto _ : state) {
    iterations = 0;
    if (warm) {
      std::vector<ml::SvrTrainReport> reports;
      benchmark::DoNotOptimize(
          ml::SvrModel::train_c_path(data, params, c_values, &reports));
      for (const auto& r : reports) iterations += r.iterations;
    } else {
      for (const double c : c_values) {
        auto cold = params;
        cold.c = c;
        ml::SvrTrainReport report;
        benchmark::DoNotOptimize(ml::SvrModel::train(data, cold, &report));
        iterations += report.iterations;
      }
    }
  }
  state.counters["smo_iterations"] = static_cast<double>(iterations);
  state.SetLabel(warm ? "warm C path" : "7 cold fits");
}
BENCHMARK(BM_SvrTrainCPath)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

void BM_SvrTrainCacheConstrained(benchmark::State& state) {
  // Cache thrashing cost: tiny kernel cache vs roomy one.
  const auto data = synthetic_data(256, 16, 5);
  auto params = rbf_params();
  params.cache_mb = state.range(0) == 0 ? 1e-5 : 16.0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(ml::SvrModel::train(data, params));
  }
  state.SetLabel(state.range(0) == 0 ? "2-row cache" : "16 MB cache");
}
BENCHMARK(BM_SvrTrainCacheConstrained)->Arg(0)->Arg(1)
    ->Unit(benchmark::kMillisecond);

void BM_Wss2Scan(benchmark::State& state) {
  // One WSS2 working-set scan over a synthetic mid-solve state of l base
  // samples (2l variables; a quarter of each half at a bound): the scalar
  // kernel (Arg 1 = 0) vs the AVX-512 one (Arg 1 = 1), which picks the
  // same pair bit for bit.
  const auto l = static_cast<std::size_t>(state.range(0));
  const bool simd = state.range(1) == 1;
  if (simd && !ml::smo::cpu_has_avx512()) {
    state.SkipWithError("CPU lacks AVX-512");
    return;
  }
  const double c = 8.0;
  Rng rng(21);
  std::vector<double> alpha(2 * l);
  std::vector<double> grad(2 * l);
  for (std::size_t t = 0; t < 2 * l; ++t) {
    const double u = rng.uniform(0.0, 1.0);
    alpha[t] = u < 0.125 ? 0.0 : (u < 0.25 ? c : rng.uniform(0.0, c));
    grad[t] = rng.uniform(-1.0, 1.0);
  }
  std::vector<double> qdiag(l, 1.0);
  std::vector<double> rows(l * l);
  for (double& k : rows) k = rng.uniform(0.0, 1.0);
  struct Rows {
    const std::vector<double>* values;
    std::size_t l;
    static const double* fetch(void* self, std::size_t k) {
      const auto* r = static_cast<const Rows*>(self);
      return r->values->data() + k * r->l;
    }
  } source{&rows, l};
  const ml::smo::View view{alpha.data(), grad.data(), qdiag.data(), l, c};
  const ml::smo::RowSource row_source{&Rows::fetch, &source};
#if defined(__x86_64__)
  const auto wss2 = simd ? &ml::smo::wss2_avx512 : &ml::smo::wss2_scalar;
#else
  const auto wss2 = &ml::smo::wss2_scalar;
#endif
  for (auto _ : state) {
    benchmark::DoNotOptimize(wss2(view, row_source));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(l));
  state.SetLabel(simd ? "avx512" : "scalar");
}
BENCHMARK(BM_Wss2Scan)->Args({180, 0})->Args({180, 1})->Args({1000, 0})
    ->Args({1000, 1});

void BM_SmoChainPaperWindow(benchmark::State& state) {
  // One grid chain at the paper's scale: the default C list solved warm
  // at gamma = 1/32, epsilon = 0.05 on the 180-sample training split of
  // fold 0 of a 200-record generate_corpus window (scaled as
  // StableTemperaturePredictor::train scales it). time_per_smo_iteration
  // is the per-iteration solver cost, through whichever SMO kernels this
  // CPU resolved to (the label).
  const auto records = core::generate_corpus(sim::ScenarioRanges{}, 200, 1);
  const ml::Dataset raw = core::records_to_dataset(records);
  const ml::Dataset scaled = ml::MinMaxScaler::fit(raw).transform(raw);
  const ml::GridSpec spec;
  Rng fold_rng(spec.seed);
  const auto folds = ml::make_folds(scaled.size(), spec.folds, fold_rng);
  const ml::Dataset train = scaled.subset(folds.front().train);
  ml::SvrParams params;
  params.kernel.gamma = 1.0 / 32;
  params.epsilon = 0.05;
  std::size_t chain_iterations = 0;
  for (auto _ : state) {
    std::vector<ml::SvrTrainReport> reports;
    benchmark::DoNotOptimize(
        ml::SvrModel::train_c_path(train, params, spec.c_values, &reports));
    chain_iterations = 0;
    for (const auto& r : reports) chain_iterations += r.iterations;
  }
  const double total_iterations = static_cast<double>(chain_iterations) *
                                  static_cast<double>(state.iterations());
  state.counters["smo_iterations"] = static_cast<double>(chain_iterations);
  state.counters["time_per_smo_iteration"] = benchmark::Counter(
      total_iterations,
      benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
  state.SetLabel(ml::smo::kernels().isa);
}
BENCHMARK(BM_SmoChainPaperWindow)->Unit(benchmark::kMillisecond);


void BM_ForestTrain(benchmark::State& state) {
  const auto data = synthetic_data(static_cast<std::size_t>(state.range(0)),
                                   16, 6);
  ml::ForestParams params;
  params.n_trees = 50;
  for (auto _ : state) {
    benchmark::DoNotOptimize(ml::RandomForest::train(data, params));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_ForestTrain)->Arg(128)->Arg(512)->Unit(benchmark::kMillisecond);

void BM_ForestPredict(benchmark::State& state) {
  const auto data = synthetic_data(256, 16, 7);
  ml::ForestParams params;
  params.n_trees = 50;
  const auto forest = ml::RandomForest::train(data, params);
  const std::vector<double> x(16, 0.25);
  for (auto _ : state) {
    benchmark::DoNotOptimize(forest.predict(x));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ForestPredict);

void BM_PlanMigrations(benchmark::State& state) {
  // One plan over 64 hosts: 16 hot (one fan, 6-10 mostly CPU-bound VMs)
  // and 48 cool, VMs from the 4 x 4 x 6 (vcpus, memory, task) catalog, the
  // target at the fleet's 90th-percentile prediction and 8 moves at most.
  static const core::StableTemperaturePredictor predictor = [] {
    sim::ScenarioRanges ranges;
    ranges.duration_s = 1200.0;
    ranges.sample_interval_s = 10.0;
    core::StableTrainOptions options;
    ml::SvrParams params;
    params.kernel.gamma = 1.0 / 32;
    params.c = 512.0;
    params.epsilon = 0.05;
    options.fixed_params = params;
    return core::StableTemperaturePredictor::train(
        core::generate_corpus(ranges, 150, 72), options);
  }();
  static const char* const kKinds[] = {"small", "medium", "large"};
  static const int kVcpus[] = {1, 2, 4, 8};
  static const double kMemory[] = {2.0, 4.0, 8.0, 16.0};
  Rng rng(3);
  std::vector<mgmt::HostPlacement> fleet(64);
  std::vector<double> before;
  int next_id = 0;
  for (std::size_t h = 0; h < fleet.size(); ++h) {
    const bool hot = h % 4 == 0;
    mgmt::HostPlacement& host = fleet[h];
    host.server = sim::make_server_spec(kKinds[rng.uniform_int(0, 2)]);
    host.fans = hot ? 1 : rng.uniform_int(2, host.server.fan_slots);
    const int vms = hot ? rng.uniform_int(6, 10) : rng.uniform_int(1, 3);
    for (int v = 0; v < vms; ++v) {
      sim::VmConfig vm;
      vm.vcpus = kVcpus[rng.uniform_int(0, 3)];
      vm.memory_gb = kMemory[rng.uniform_int(0, 3)];
      vm.task = sim::all_task_types()[static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<int>(sim::kTaskTypeCount) - 1))];
      if (hot && rng.bernoulli(0.6)) vm.task = sim::TaskType::kCpuBurn;
      if (host.fits(vm)) {
        host.vms.push_back({"vm-" + std::to_string(next_id++), vm});
      }
    }
    before.push_back(predictor.predict(host.server, host.configs(),
                                       host.fans, 23.0));
  }
  std::sort(before.begin(), before.end());
  mgmt::PlannerOptions options;
  options.target_c = before[before.size() * 9 / 10];
  std::size_t moves = 0;
  for (auto _ : state) {
    const mgmt::MigrationPlan plan =
        mgmt::plan_migrations(predictor, fleet, options);
    moves = plan.moves.size();
    benchmark::DoNotOptimize(plan.predicted_after_c.data());
  }
  state.counters["moves"] = static_cast<double>(moves);
}
BENCHMARK(BM_PlanMigrations)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
