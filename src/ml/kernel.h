// vmtherm/ml/kernel.h
//
// Kernel functions for the SVR. The paper uses LIBSVM's RBF kernel; the
// other standard kernels are provided for the model-selection ablation.

#pragma once

#include <cmath>
#include <span>
#include <string_view>

#include "util/error.h"

namespace vmtherm::ml {

enum class KernelKind {
  kLinear,      ///< x . z
  kPolynomial,  ///< (gamma * x.z + coef0)^degree
  kRbf,         ///< exp(-gamma * |x - z|^2)
  kSigmoid,     ///< tanh(gamma * x.z + coef0)
};

/// Returns a view of a static name literal (no allocation).
std::string_view kernel_kind_name(KernelKind kind) noexcept;
/// Looks a kernel up by name without materializing a std::string; throws
/// ConfigError on unknown names.
KernelKind kernel_kind_from_name(std::string_view name);

/// Kernel hyper-parameters (interpretation depends on kind; matches
/// LIBSVM's -g/-d/-r flags).
struct KernelParams {
  KernelKind kind = KernelKind::kRbf;
  double gamma = 0.5;
  int degree = 3;
  double coef0 = 0.0;

  /// Throws ConfigError unless gamma and coef0 are finite, gamma > 0
  /// (any finite value for the linear kernel, which ignores it) and
  /// degree >= 1.
  void validate() const {
    detail::require(std::isfinite(gamma), "kernel gamma must be finite");
    detail::require(gamma > 0.0 || kind == KernelKind::kLinear,
                    "kernel gamma must be positive");
    detail::require(degree >= 1, "kernel degree must be >= 1");
    detail::require(std::isfinite(coef0), "kernel coef0 must be finite");
  }
};

/// Evaluates k(x, z). Requires x.size() == z.size() (unchecked on the hot
/// path; callers validate at the API boundary).
double kernel_eval(const KernelParams& params, std::span<const double> x,
                   std::span<const double> z) noexcept;

/// Squared Euclidean distance (exposed for kNN and tests).
double squared_distance(std::span<const double> x,
                        std::span<const double> z) noexcept;

/// Dot product.
double dot(std::span<const double> x, std::span<const double> z) noexcept;

/// base^exponent by exponentiation-by-squaring — O(log n) multiplies
/// instead of a transcendental std::pow call for the polynomial kernel's
/// integer degree. Negative exponents go through the reciprocal.
double pow_integer(double base, int exponent) noexcept;

}  // namespace vmtherm::ml
