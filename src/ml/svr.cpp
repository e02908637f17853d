#include "ml/svr.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <tuple>
#include <utility>

#include "ml/svr_smo_kernels.h"

namespace vmtherm::ml {

namespace {

/// Kernel rows K(i, .) over the l base samples in one flat slab of
/// min(budget rows, l) slots, with a row -> slot index and per-slot use
/// stamps for least-recently-used eviction. When the budget holds all l
/// rows (always so for the grid's folds) nothing is ever evicted and this
/// is a dense table filled on first use. The slab is left uninitialized,
/// so untouched slots cost no resident memory.
class KernelRowCache {
 public:
  KernelRowCache(const Dataset& data, const KernelParams& kernel,
                 double cache_mb)
      : data_(data), kernel_(kernel), l_(data.size()) {
    const double bytes_per_row = static_cast<double>(l_) * sizeof(double);
    const std::size_t budget_rows = std::max<std::size_t>(
        2, static_cast<std::size_t>(cache_mb * 1024.0 * 1024.0 /
                                    std::max(1.0, bytes_per_row)));
    const std::size_t slots = std::min(budget_rows, l_);
    slab_ = std::make_unique_for_overwrite<double[]>(slots * l_);
    slot_of_.assign(l_, kNone);
    row_of_.assign(slots, kNone);
    stamp_.assign(slots, 0);
  }

  /// Returns K(i, t) for all base t. The returned row gets the newest
  /// stamp and an evicting cache has >= 2 slots, so it stays valid across
  /// one further row() call (only the oldest-stamped row can be evicted):
  /// the solver relies on this to hold rows i and j at once. A second
  /// further call may evict it.
  const double* row(std::size_t i) {
    std::size_t slot = slot_of_[i];
    if (slot == kNone) {
      slot = used_ < row_of_.size() ? used_++ : oldest_slot();
      if (row_of_[slot] != kNone) slot_of_[row_of_[slot]] = kNone;
      row_of_[slot] = i;
      slot_of_[i] = slot;
      double* values = slab_.get() + slot * l_;
      const auto& xi = data_[i].x;
      for (std::size_t t = 0; t < l_; ++t) {
        values[t] = kernel_eval(kernel_, xi, data_[t].x);
      }
    }
    stamp_[slot] = ++clock_;
    return slab_.get() + slot * l_;
  }

  /// RowSource adapter for the WSS2 kernels.
  static const double* fetch(void* self, std::size_t i) {
    return static_cast<KernelRowCache*>(self)->row(i);
  }

 private:
  static constexpr std::size_t kNone = std::numeric_limits<std::size_t>::max();

  std::size_t oldest_slot() const {
    return static_cast<std::size_t>(
        std::min_element(stamp_.begin(), stamp_.end()) - stamp_.begin());
  }

  const Dataset& data_;
  const KernelParams& kernel_;
  std::size_t l_;
  std::unique_ptr<double[]> slab_;    ///< slots x l kernel values
  std::vector<std::size_t> slot_of_;  ///< base row -> slot, kNone if absent
  std::vector<std::size_t> row_of_;   ///< slot -> base row, kNone if free
  std::vector<std::uint64_t> stamp_;  ///< slot -> last use, for LRU
  std::size_t used_ = 0;              ///< slots handed out so far
  std::uint64_t clock_ = 0;
};

/// SMO solver state for the 2l-variable SVR dual. Q~(i, t) is never
/// materialized: it is y_i y_t K(base(i), base(t)) and every y is ±1, so
/// the loops read the cached length-l kernel rows and apply the signs
/// explicitly, which is exact in IEEE arithmetic.
///
/// Q~ and p do not depend on C, and an α feasible for box C is feasible
/// for any C' >= C, so successive solve() calls with non-decreasing C
/// continue from the previous optimum with α, G and the kernel cache
/// carried over exactly.
class SvrSolver {
 public:
  SvrSolver(const Dataset& data, const SvrParams& params)
      : data_(data),
        params_(params),
        l_(data.size()),
        n_(2 * data.size()),
        cache_(data, params.kernel, params.cache_mb) {
    alpha_.assign(n_, 0.0);
    grad_.resize(n_);
    for (std::size_t i = 0; i < n_; ++i) grad_[i] = p(i);  // α = 0 -> G = p
    qdiag_.resize(l_);
    for (std::size_t k = 0; k < l_; ++k) {
      const auto& xk = data_[k].x;
      qdiag_[k] = kernel_eval(params_.kernel, xk, xk);  // y^2 = 1
    }
  }

  /// Solves the dual at box constraint `c`, which must be >= the C of
  /// every earlier call, starting from the current α.
  SvrTrainReport solve(double c) {
    c_ = c;
    SvrTrainReport report;
    const std::size_t max_iter =
        params_.max_iterations > 0
            ? params_.max_iterations
            : std::max<std::size_t>(100000, 200 * l_);

    std::size_t iter = 0;
    double violation = std::numeric_limits<double>::infinity();
    while (iter < max_iter) {
      auto [i, j, viol] = params_.second_order_working_set
                              ? select_working_set_second_order()
                              : select_working_set();
      violation = viol;
      if (viol < params_.tolerance) break;
      update_pair(i, j);
      ++iter;
    }

    report.iterations = iter;
    report.final_violation = violation;
    report.converged = violation < params_.tolerance;
    report.bias = -calculate_rho();
    return report;
  }

  /// β_k = α_k − α_{k+l} of the current solution.
  std::vector<double> betas() const {
    std::vector<double> out(l_);
    for (std::size_t k = 0; k < l_; ++k) out[k] = alpha_[k] - alpha_[k + l_];
    return out;
  }

 private:
  std::size_t base(std::size_t i) const noexcept { return i < l_ ? i : i - l_; }
  double sign(std::size_t i) const noexcept { return i < l_ ? 1.0 : -1.0; }
  double p(std::size_t i) const noexcept {
    return i < l_ ? params_.epsilon - data_[i].y
                  : params_.epsilon + data_[i - l_].y;
  }

  /// Maximal-violating-pair selection (LIBSVM WSS1).
  /// Returns (i, j, violation).
  std::tuple<std::size_t, std::size_t, double> select_working_set() const {
    double gmax = -std::numeric_limits<double>::infinity();
    double gmin = std::numeric_limits<double>::infinity();
    std::size_t i_sel = 0;
    std::size_t j_sel = 0;
    for (std::size_t t = 0; t < n_; ++t) {
      const double y = sign(t);
      const bool at_upper = alpha_[t] >= c_;
      const bool at_lower = alpha_[t] <= 0.0;
      // I_up: can increase y*alpha
      if ((y > 0 && !at_upper) || (y < 0 && !at_lower)) {
        const double v = -y * grad_[t];
        if (v > gmax) {
          gmax = v;
          i_sel = t;
        }
      }
      // I_low: can decrease y*alpha
      if ((y > 0 && !at_lower) || (y < 0 && !at_upper)) {
        const double v = -y * grad_[t];
        if (v < gmin) {
          gmin = v;
          j_sel = t;
        }
      }
    }
    return {i_sel, j_sel, gmax - gmin};
  }

  /// Second-order selection (LIBSVM WSS2) through the resolved kernel
  /// (svr_smo_kernels.h): i is the maximal violator from I_up; j is the
  /// I_low index giving the largest guaranteed decrease of the dual
  /// objective for the (i, j) subproblem. Ties go to the lowest index.
  std::tuple<std::size_t, std::size_t, double>
  select_working_set_second_order() {
    const smo::View view{alpha_.data(), grad_.data(), qdiag_.data(), l_, c_};
    const smo::WorkingSet ws =
        kernels_.wss2(view, {&KernelRowCache::fetch, &cache_});
    return {ws.i, ws.j, ws.violation};
  }

  void update_pair(std::size_t i, std::size_t j) {
    const double c = c_;
    const double yi = sign(i);
    const double yj = sign(j);

    // Row i stays valid across the row(j) call (see KernelRowCache::row).
    const double* ki = cache_.row(base(i));
    const double* kj = cache_.row(base(j));

    const double old_ai = alpha_[i];
    const double old_aj = alpha_[j];

    // K_ii + K_jj - 2 K_ij for both sign cases: Q~_ij = y_i y_j K_ij.
    double quad = qdiag_[base(i)] + qdiag_[base(j)] - 2.0 * ki[base(j)];
    if (quad <= 0.0) quad = smo::kTau;
    if (yi != yj) {
      const double delta = (-grad_[i] - grad_[j]) / quad;
      const double diff = alpha_[i] - alpha_[j];
      alpha_[i] += delta;
      alpha_[j] += delta;
      if (diff > 0.0) {
        if (alpha_[j] < 0.0) {
          alpha_[j] = 0.0;
          alpha_[i] = diff;
        }
      } else {
        if (alpha_[i] < 0.0) {
          alpha_[i] = 0.0;
          alpha_[j] = -diff;
        }
      }
      if (diff > 0.0) {
        if (alpha_[i] > c) {
          alpha_[i] = c;
          alpha_[j] = c - diff;
        }
      } else {
        if (alpha_[j] > c) {
          alpha_[j] = c;
          alpha_[i] = c + diff;
        }
      }
    } else {
      const double delta = (grad_[i] - grad_[j]) / quad;
      const double sum = alpha_[i] + alpha_[j];
      alpha_[i] -= delta;
      alpha_[j] += delta;
      if (sum > c) {
        if (alpha_[i] > c) {
          alpha_[i] = c;
          alpha_[j] = sum - c;
        }
      } else {
        if (alpha_[j] < 0.0) {
          alpha_[j] = 0.0;
          alpha_[i] = sum;
        }
      }
      if (sum > c) {
        if (alpha_[j] > c) {
          alpha_[j] = c;
          alpha_[i] = sum - c;
        }
      } else {
        if (alpha_[i] < 0.0) {
          alpha_[i] = 0.0;
          alpha_[j] = sum;
        }
      }
    }

    const double dai = alpha_[i] - old_ai;
    const double daj = alpha_[j] - old_aj;
    if (dai == 0.0 && daj == 0.0) return;
    // G_t += Q~_it Δα_i + Q~_jt Δα_j with Q~_it = y_i y_t K_i[base(t)]:
    // one pass over the base samples updates both halves.
    kernels_.grad_update(grad_.data(), l_, ki, kj, yi * dai, yj * daj);
  }

  /// LIBSVM's calculate_rho over the unified solver variables.
  double calculate_rho() const {
    double ub = std::numeric_limits<double>::infinity();
    double lb = -std::numeric_limits<double>::infinity();
    double sum_free = 0.0;
    std::size_t nr_free = 0;
    for (std::size_t t = 0; t < n_; ++t) {
      const double y = sign(t);
      const double yg = y * grad_[t];
      if (alpha_[t] >= c_) {
        if (y < 0) ub = std::min(ub, yg);
        else lb = std::max(lb, yg);
      } else if (alpha_[t] <= 0.0) {
        if (y > 0) ub = std::min(ub, yg);
        else lb = std::max(lb, yg);
      } else {
        ++nr_free;
        sum_free += yg;
      }
    }
    if (nr_free > 0) return sum_free / static_cast<double>(nr_free);
    return (ub + lb) / 2.0;
  }

  const Dataset& data_;
  const SvrParams& params_;
  std::size_t l_;
  std::size_t n_;
  KernelRowCache cache_;
  const smo::Kernels& kernels_ = smo::kernels();
  double c_ = 0.0;  ///< box constraint of the current solve()
  std::vector<double> alpha_;
  std::vector<double> grad_;
  std::vector<double> qdiag_;  ///< K(x_k, x_k) per base sample
};

}  // namespace

SvrModel SvrModel::train(const Dataset& data, const SvrParams& params,
                         SvrTrainReport* report) {
  std::vector<SvrTrainReport> reports;
  std::vector<SvrModel> models =
      train_c_path(data, params, std::span<const double>(&params.c, 1),
                   report != nullptr ? &reports : nullptr);
  if (report != nullptr) *report = reports.front();
  return std::move(models.front());
}

std::vector<SvrModel> SvrModel::train_c_path(
    const Dataset& data, const SvrParams& params,
    std::span<const double> c_values,
    std::vector<SvrTrainReport>* reports) {
  detail::require(!c_values.empty(), "svr C path needs at least one C");
  SvrParams checked = params;
  for (std::size_t m = 0; m < c_values.size(); ++m) {
    checked.c = c_values[m];
    checked.validate();
    detail::require(m == 0 || c_values[m - 1] <= c_values[m],
                    "svr C path must be non-decreasing");
  }
  detail::require_data(!data.empty(), "svr training set is empty");
  for (const auto& s : data.samples()) {
    detail::require_data(std::isfinite(s.y), "svr target must be finite");
    for (double v : s.x) {
      detail::require_data(std::isfinite(v), "svr feature must be finite");
    }
  }

  SvrSolver solver(data, params);
  std::vector<SvrModel> models;
  models.reserve(c_values.size());
  if (reports != nullptr) reports->clear();
  for (const double c : c_values) {
    SvrTrainReport local = solver.solve(c);
    const std::vector<double> betas = solver.betas();

    std::vector<std::vector<double>> svs;
    std::vector<double> coefs;
    for (std::size_t k = 0; k < data.size(); ++k) {
      if (betas[k] != 0.0) {
        svs.push_back(data[k].x);
        coefs.push_back(betas[k]);
      }
    }
    local.support_vector_count = svs.size();
    if (reports != nullptr) reports->push_back(local);
    models.emplace_back(params.kernel, svs, std::move(coefs), local.bias);
  }
  return models;
}

}  // namespace vmtherm::ml
