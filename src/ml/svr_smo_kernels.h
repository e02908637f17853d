// vmtherm/ml/svr_smo_kernels.h
//
// The SMO solver's two O(l) loops (svr.cpp), split out so they can be
// vectorized explicitly: the second-order working-set scan (LIBSVM's WSS2)
// and the gradient update after a pair step. Each has a portable scalar
// body and, on x86-64, an AVX-512 body. kernels() picks one pair once
// per process from CPU detection; the solver calls through it. There is no
// option to force either: the choice cannot change a result.
//
// Exactness contract: the AVX-512 bodies return the same bits as the
// scalar ones for every input — the same (i, j), the same violation and
// the same gradient words — so an SMO solve takes the same iterate path
// and produces the same α and bias on any ISA. The scan keeps the scalar
// comparisons (strict >/< updates, first index wins on ties, NaN never
// selected) per lane and reduces lanes to the lowest index among equal
// values. Its arithmetic is the scalar expressions lane-wise, or rewrites
// of them that IEEE rounding makes exact (noted at wss2_avx512), compiled
// with -ffp-contract=off so no mul+add is fused. The scalar bodies are the
// test oracle (tests/ml_svr_smo_kernels_test.cpp).

#pragma once

#include <cstddef>

namespace vmtherm::ml::smo {

/// Floor for the curvature of a non-positive-definite 2x2 subproblem.
inline constexpr double kTau = 1e-12;

/// The solver state the WSS2 scan reads. Variable t in [0, 2l) has label
/// y_t = +1 for t < l and -1 for t >= l, and base sample t mod l.
struct View {
  const double* alpha = nullptr;  ///< 2l dual variables
  const double* grad = nullptr;   ///< 2l gradient entries
  const double* qdiag = nullptr;  ///< l kernel diagonal entries K(x_k, x_k)
  std::size_t l = 0;
  double c = 0.0;  ///< box constraint
};

/// Where the scan gets the kernel row K(x_k, ·) (length l) of the chosen i.
struct RowSource {
  const double* (*fetch)(void* ctx, std::size_t k) = nullptr;
  void* ctx = nullptr;
};

/// A WSS2 pick: the working pair and the maximal KKT violation. An empty
/// I_up gives {0, 0, 0}; no improving j gives j = i.
struct WorkingSet {
  std::size_t i = 0;
  std::size_t j = 0;
  double violation = 0.0;
};

/// WSS2: i is the first maximal violator -y_t G_t over I_up (the y = +1
/// half, then the y = -1 half); j is the first I_low index with the
/// smallest -(gmax + y_t G_t)^2 / a_it among those with a positive
/// gradient difference, where a_it = K_ii + K_tt - 2 K_it (kTau when not
/// positive). Calls rows.fetch once, for base(i), when I_up is not empty.
WorkingSet wss2_scalar(const View& s, RowSource rows);

/// G_k += d_k and G_{k+l} -= d_k with d_k = si K_i[k] + sj K_j[k], k < l.
void grad_update_scalar(double* grad, std::size_t l, const double* ki,
                        const double* kj, double si, double sj) noexcept;

#if defined(__x86_64__)
/// AVX-512F/DQ bodies; callable only when cpu_has_avx512() is true.
WorkingSet wss2_avx512(const View& s, RowSource rows);
void grad_update_avx512(double* grad, std::size_t l, const double* ki,
                        const double* kj, double si, double sj) noexcept;
#endif

/// True when this build has the AVX-512 bodies and the CPU (and OS) can
/// run them.
bool cpu_has_avx512() noexcept;

/// The kernel pair the solver uses.
struct Kernels {
  WorkingSet (*wss2)(const View&, RowSource) = nullptr;
  void (*grad_update)(double*, std::size_t, const double*, const double*,
                      double, double) noexcept = nullptr;
  const char* isa = "";  ///< "avx512" or "scalar"
};

/// Resolved once per process: AVX-512 when cpu_has_avx512(), else scalar.
const Kernels& kernels() noexcept;

}  // namespace vmtherm::ml::smo
