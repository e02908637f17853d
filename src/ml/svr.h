// vmtherm/ml/svr.h
//
// Epsilon-Support-Vector Regression trained by Sequential Minimal
// Optimization — a from-scratch replacement for the LIBSVM 3.17 ε-SVR the
// paper uses.
//
// The solver optimizes LIBSVM's dual formulation: with l training samples
// it introduces 2l variables α (the first l play the role of α, the second
// l of α*), labels y_i = +1 (i < l) / -1 (i >= l), linear term
// p_i = ε - t_i / ε + t_i, and Q~(i,j) = y_i y_j K(x_{i mod l}, x_{j mod l}):
//
//   min_α  1/2 αᵀ Q~ α + pᵀ α   s.t.  yᵀα = 0,  0 <= α_i <= C
//
// solved by SMO with second-order working-set selection (or the
// maximal-violating pair) over a kernel-row cache. The regression
// coefficients are β_k = α_k - α_{k+l} and the decision function is
// f(x) = Σ_k β_k K(x_k, x) + b with b = -ρ from the solver's optimality
// conditions. Deterministic given the dataset order.
//
// The solver never builds a Q~ row: each update reads the two cached
// length-l kernel rows K(x_{i mod l}, ·) and K(x_{j mod l}, ·) directly
// (the cache keeps the first row alive across the second lookup) and
// applies the ±1 signs explicitly, which is exact in IEEE arithmetic.
//
// ISA dispatch: the two O(l) loops of an iteration, the WSS2 scan and the
// gradient update, run through svr_smo_kernels.h, which picks AVX-512 or
// portable scalar bodies once per process from CPU detection. The AVX-512
// bodies return the scalar bodies' bits, so training results (α, bias,
// iteration counts, support vectors) do not depend on the ISA chosen.
// Inference is different: its bits are fixed per build (svr_inference.h).
//
// Warm C path: Q~ and p do not depend on C, and an α feasible for box C is
// feasible for any C' >= C. train_c_path() therefore solves a
// non-decreasing list of C values in one solver, each solve starting from
// the previous optimum with α, the gradient and the kernel cache carried
// over exactly. train() is the one-C case (a cold solve from α = 0), so a
// warm model differs from the cold one at the same C only within the SMO
// stopping tolerance.

#pragma once

#include <cmath>
#include <cstdint>
#include <span>
#include <vector>

#include "ml/dataset.h"
#include "ml/kernel.h"

namespace vmtherm::util {
class ThreadPool;
}

namespace vmtherm::ml {

/// Training hyper-parameters (mirrors LIBSVM's -c/-p/-e/-m flags plus the
/// kernel parameters).
struct SvrParams {
  KernelParams kernel;
  double c = 8.0;            ///< box constraint C (> 0)
  double epsilon = 0.1;      ///< ε-insensitive tube half-width (>= 0)
  double tolerance = 1e-3;   ///< KKT violation stopping threshold
  std::size_t max_iterations = 0;  ///< 0 = auto (max(100000, 200*l))
  double cache_mb = 16.0;    ///< kernel row cache budget
  /// Working-set selection: second-order (LIBSVM's WSS2; picks the pair
  /// with the largest objective decrease — fewer iterations per solve) or
  /// the simpler maximal-violating-pair rule (WSS1) when false. Both reach
  /// the same optimum; the perf_svr bench quantifies the difference.
  bool second_order_working_set = true;

  /// Throws ConfigError on an invalid kernel or a C, epsilon or cache_mb
  /// that is non-finite or out of range (an infinite epsilon would train a
  /// "converged" model with a NaN bias; an infinite C never converges).
  void validate() const {
    kernel.validate();
    detail::require(c > 0.0 && std::isfinite(c),
                    "svr C must be positive and finite");
    detail::require(epsilon >= 0.0 && std::isfinite(epsilon),
                    "svr epsilon must be finite and >= 0");
    detail::require(tolerance > 0.0, "svr tolerance must be positive");
    detail::require(cache_mb > 0.0 && std::isfinite(cache_mb),
                    "svr cache_mb must be positive and finite");
  }
};

/// Diagnostics from a training run.
struct SvrTrainReport {
  std::size_t iterations = 0;
  bool converged = false;
  std::size_t support_vector_count = 0;
  double bias = 0.0;
  /// Final maximal KKT violation (< tolerance when converged).
  double final_violation = 0.0;
};

/// A trained ε-SVR model: kernel, bias, coefficients and one
/// support-vector store in the layout the batched inference kernel
/// streams (svr_inference.cpp; see svr_inference.h for the
/// bitwise-determinism contract). Immutable after construction; safe to
/// share across threads.
class SvrModel {
 public:
  /// Trains on `data` (which must be non-empty and finite). If `report` is
  /// non-null it receives training diagnostics. Throws DataError /
  /// ConfigError on invalid inputs; a run that hits max_iterations returns
  /// the best-so-far model with report->converged = false.
  static SvrModel train(const Dataset& data, const SvrParams& params,
                        SvrTrainReport* report = nullptr);

  /// Trains one model per entry of `c_values` (non-empty, non-decreasing;
  /// each replaces params.c) along one warm-started solver path: the model
  /// for c_values[m] is solved starting from the optimum for c_values[m-1].
  /// Models (and, when `reports` is non-null, one report each, with
  /// iterations counted per C and max_iterations applied per C) come back
  /// in c_values order. The first model is bitwise-identical to
  /// train(data, params with c = c_values[0]). Throws like train(), and
  /// ConfigError when `c_values` is empty or decreasing.
  static std::vector<SvrModel> train_c_path(
      const Dataset& data, const SvrParams& params,
      std::span<const double> c_values,
      std::vector<SvrTrainReport>* reports = nullptr);

  /// Packs a model from ragged parts (training, model_io) and keeps none
  /// of the ragged input. Throws ConfigError on an invalid kernel, a
  /// sv/coef count mismatch or support vectors of differing dimensions.
  /// Zero support vectors give f(x) = bias for a query of any dimension.
  SvrModel(KernelParams kernel,
           const std::vector<std::vector<double>>& support_vectors,
           std::vector<double> coefficients, double bias);

  /// f(x) = Σ β_k K(sv_k, x) + b. Throws DataError on dimension mismatch.
  double predict(std::span<const double> x) const;

  /// Prediction for every sample of `data`, optionally sharded across
  /// `pool`; bitwise-identical to calling predict() per sample at any
  /// thread count.
  std::vector<double> predict(const Dataset& data,
                              util::ThreadPool* pool = nullptr) const;

  /// Batched prediction over `query_count` queries packed row-major into
  /// `queries` (query_count x dim). Results land in `out` in query order.
  /// When `pool` is non-null, query blocks are sharded across the pool
  /// with each result written to its pre-sized slot — bitwise-identical
  /// to the pool-less run at any thread count. Throws DataError when the
  /// flattened extents disagree.
  void predict_batch(std::span<const double> queries, std::size_t query_count,
                     std::span<double> out,
                     util::ThreadPool* pool = nullptr) const;

  std::size_t support_vector_count() const noexcept { return count_; }
  /// Feature dimension (0 for a model without support vectors).
  std::size_t dim() const noexcept { return dim_; }
  /// Support vector k gathered out of the blocked store (model_io, tests).
  std::vector<double> support_vector(std::size_t k) const;
  /// β_k, aligned with support_vector(k).
  const std::vector<double>& coefficients() const noexcept {
    return coefficients_;
  }
  double bias() const noexcept { return bias_; }
  const KernelParams& kernel() const noexcept { return kernel_; }

 private:
  /// Unchecked single-query kernel over the blocked store; the one code
  /// path every public predict entry point funnels through.
  double predict_one(const double* x) const noexcept;

  KernelParams kernel_;
  /// The support vectors: for each 128-SV block, dim x 128 in
  /// feature-major order, zero-padded to a full block, so the SV-indexed
  /// inner loop of the GEMV has unit stride.
  std::vector<double> packed_t_;
  std::vector<double> sq_norms_;      ///< |s_k|^2 per SV, zero-padded (RBF)
  std::vector<double> coefficients_;  ///< β_k, ascending k
  double bias_ = 0.0;
  std::size_t dim_ = 0;
  std::size_t count_ = 0;
};

}  // namespace vmtherm::ml
