#include "ml/grid.h"

#include <algorithm>
#include <limits>
#include <optional>

#include "ml/cv.h"
#include "obs/trace.h"
#include "util/thread_pool.h"

namespace vmtherm::ml {

GridSearchResult grid_search_svr(const Dataset& data, const GridSpec& spec,
                                 util::ThreadPool* pool) {
  VMTHERM_SPAN_ARG("ml.grid_search", "ml", "points",
                   spec.c_values.size() * spec.gamma_values.size() *
                       spec.epsilon_values.size());
  spec.validate();
  detail::require_data(data.size() >= spec.folds,
                       "grid search needs at least `folds` samples");

  // One shared fold assignment: paired comparisons across grid points.
  Rng fold_rng(spec.seed);
  const auto folds = make_folds(data.size(), spec.folds, fold_rng);

  // Materialize each fold's train/validation datasets once for the whole
  // search; every chain on that fold reads them.
  struct FoldData {
    Dataset train;
    Dataset validation;
  };
  std::vector<FoldData> fold_data;
  fold_data.reserve(folds.size());
  for (const auto& f : folds) {
    fold_data.push_back(FoldData{data.subset(f.train),
                                 data.subset(f.validation)});
  }

  // Each (gamma, epsilon, fold) chain solves the distinct C values in
  // ascending order on one warm-started solver; a grid point's C maps to
  // its position on that path.
  std::vector<double> path = spec.c_values;
  std::sort(path.begin(), path.end());
  path.erase(std::unique(path.begin(), path.end()), path.end());
  const std::size_t n_gamma = spec.gamma_values.size();
  const std::size_t n_eps = spec.epsilon_values.size();
  const std::size_t n_folds = fold_data.size();
  const std::size_t n_chains = n_gamma * n_eps * n_folds;

  // Validation squared error per (path C, gamma, epsilon, fold) and SMO
  // iterations per chain, each slot written by exactly one chain.
  std::vector<double> fold_squared_error(path.size() * n_chains, 0.0);
  std::vector<std::size_t> chain_iterations(n_chains, 0);
  const auto slot = [&](std::size_t m, std::size_t chain) {
    return m * n_chains + chain;
  };
  const auto point_params = [&](double c, std::size_t g, std::size_t e) {
    SvrParams params;
    params.kernel.kind = spec.kernel;
    params.kernel.gamma = spec.gamma_values[g];
    params.c = c;
    params.epsilon = spec.epsilon_values[e];
    return params;
  };

  // chain = (gamma * |epsilon| + epsilon) * folds + fold. Each chain runs
  // serially on one thread, so every slot is bitwise independent of the
  // schedule.
  const auto evaluate_chain = [&](std::size_t chain) {
    VMTHERM_SPAN("ml.grid_point", "ml");
    const std::size_t f = chain % n_folds;
    const std::size_t e = (chain / n_folds) % n_eps;
    const std::size_t g = chain / (n_folds * n_eps);
    const FoldData& fd = fold_data[f];
    std::vector<SvrTrainReport> reports;
    const std::vector<SvrModel> models = SvrModel::train_c_path(
        fd.train, point_params(path[0], g, e), path, &reports);
    for (const SvrTrainReport& report : reports) {
      chain_iterations[chain] += report.iterations;
    }
    for (std::size_t m = 0; m < models.size(); ++m) {
      double squared_error = 0.0;
      for (const auto& s : fd.validation.samples()) {
        const double err = models[m].predict(s.x) - s.y;
        squared_error += err * err;
      }
      fold_squared_error[slot(m, chain)] = squared_error;
    }
  };

  std::optional<util::ThreadPool> local_pool;
  if (pool == nullptr) {
    const std::size_t threads =
        util::ThreadPool::resolve_thread_count(spec.threads);
    if (threads > 1) {
      // parallel_for also runs on the calling thread, so `threads` total.
      local_pool.emplace(threads - 1);
      pool = &*local_pool;
    }
  }
  if (pool != nullptr) {
    pool->parallel_for(0, n_chains, evaluate_chain);
  } else {
    for (std::size_t chain = 0; chain < n_chains; ++chain) {
      evaluate_chain(chain);
    }
  }

  // Canonical grid order: C outer, gamma middle, epsilon inner; each
  // point's folds are reduced in fold order. Every sample validates in
  // exactly one fold.
  GridSearchResult result;
  for (const std::size_t iterations : chain_iterations) {
    result.smo_iterations += iterations;
  }
  result.evaluated.reserve(spec.c_values.size() * n_gamma * n_eps);
  for (const double c : spec.c_values) {
    const auto m = static_cast<std::size_t>(
        std::lower_bound(path.begin(), path.end(), c) - path.begin());
    for (std::size_t g = 0; g < n_gamma; ++g) {
      for (std::size_t e = 0; e < n_eps; ++e) {
        double squared_error = 0.0;
        for (std::size_t f = 0; f < n_folds; ++f) {
          squared_error +=
              fold_squared_error[slot(m, (g * n_eps + e) * n_folds + f)];
        }
        result.evaluated.push_back(GridPoint{
            point_params(c, g, e),
            squared_error / static_cast<double>(data.size())});
      }
    }
  }

  // Explicit tie-breaking: strict < over a scan in grid order means the
  // lowest grid index wins among equal-MSE points, independent of the
  // order evaluations completed in.
  result.best_cv_mse = std::numeric_limits<double>::infinity();
  for (const auto& point : result.evaluated) {
    if (point.cv_mse < result.best_cv_mse) {
      result.best_cv_mse = point.cv_mse;
      result.best_params = point.params;
    }
  }
  return result;
}

}  // namespace vmtherm::ml
