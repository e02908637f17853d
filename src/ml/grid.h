// vmtherm/ml/grid.h
//
// Grid search over SVR hyper-parameters with k-fold cross-validation — the
// functional equivalent of `easygrid`, the tool the paper uses to select
// (C, gamma) for its LIBSVM model.

#pragma once

#include <vector>

#include "ml/svr.h"

namespace vmtherm::util {
class ThreadPool;
}

namespace vmtherm::ml {

/// Search space. Defaults follow the classic LIBSVM grid recommendation
/// (log2-spaced C and gamma) trimmed to ranges that matter at this
/// dataset's scale.
struct GridSpec {
  std::vector<double> c_values = {0.5, 2.0, 8.0, 32.0, 128.0, 512.0, 2048.0};
  std::vector<double> gamma_values = {1.0 / 128, 1.0 / 32, 1.0 / 8,
                                      0.5, 2.0};
  std::vector<double> epsilon_values = {0.05, 0.2};
  KernelKind kernel = KernelKind::kRbf;
  std::size_t folds = 10;
  std::uint64_t seed = 42;  ///< fold-assignment seed
  /// Total threads evaluating grid points: 1 = serial (default), 0 = all
  /// hardware threads. Ignored when an external pool is passed to
  /// grid_search_svr. Results do not depend on this value.
  std::size_t threads = 1;

  void validate() const {
    detail::require(!c_values.empty(), "grid needs C values");
    for (const double c : c_values) {
      detail::require(c > 0.0, "grid C values must be positive");
    }
    detail::require(!gamma_values.empty(), "grid needs gamma values");
    detail::require(!epsilon_values.empty(), "grid needs epsilon values");
    detail::require(folds >= 2, "grid needs >= 2 folds");
  }
};

/// One evaluated grid point.
struct GridPoint {
  SvrParams params;
  double cv_mse = 0.0;
};

/// Search outcome: the winning parameters plus the full sweep (for
/// reporting / ablation plots).
struct GridSearchResult {
  SvrParams best_params;
  double best_cv_mse = 0.0;
  std::vector<GridPoint> evaluated;
  /// SMO iterations of every solve on every chain, summed in chain order
  /// (the same at any thread count).
  std::size_t smo_iterations = 0;
};

/// Exhaustive search: scores every (C, gamma, epsilon) point of the grid
/// by k-fold CV on `data` (which should already be scaled) and returns the
/// point with the lowest cross-validated MSE. Fold assignment is seeded by
/// `spec.seed` and shared across grid points so comparisons are paired.
///
/// The work unit is a chain: for one (gamma, epsilon, fold), the distinct
/// C values are solved in ascending order by SvrModel::train_c_path, each
/// warm-started from the previous optimum — |gamma| x |epsilon| x folds
/// chains in all. A chain's cv_mse therefore matches a cold fit at the
/// same point only within the SMO tolerance. C values may be given in any
/// order and may repeat; a repeated C reads the same chain result.
///
/// Deterministic regardless of thread count: each chain runs serially on
/// one thread into its own per-(C, fold) slots, each point's folds are
/// reduced in fold order, `evaluated` is always in canonical grid order
/// (C outer in the spec's order, gamma middle, epsilon inner), and
/// equal-MSE ties break explicitly toward the lowest grid index — never
/// toward whichever evaluation happened to finish first. Serial and
/// parallel runs therefore return bitwise-identical results.
///
/// Concurrency: with `pool` non-null the chains are evaluated on that
/// (possibly shared) pool; otherwise a private pool is spun up when
/// `spec.threads` resolves to more than one thread.
GridSearchResult grid_search_svr(const Dataset& data, const GridSpec& spec,
                                 util::ThreadPool* pool = nullptr);

}  // namespace vmtherm::ml
