#include "ml/svr_smo_kernels.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>

#if defined(__x86_64__)
#include <immintrin.h>
#endif

namespace vmtherm::ml::smo {

WorkingSet wss2_scalar(const View& s, RowSource rows) {
  const double* alpha = s.alpha;
  const double* grad = s.grad;
  const std::size_t l = s.l;
  const std::size_t n = 2 * l;

  // I_up: α_t < C on the y = +1 half, α_t > 0 on the y = -1 half;
  // -y_t G_t is -G_t and G_t respectively.
  double gmax = -std::numeric_limits<double>::infinity();
  std::size_t i_sel = 0;
  for (std::size_t k = 0; k < l; ++k) {
    if (alpha[k] < s.c && -grad[k] > gmax) {
      gmax = -grad[k];
      i_sel = k;
    }
  }
  for (std::size_t k = 0; k < l; ++k) {
    if (alpha[k + l] > 0.0 && grad[k + l] > gmax) {
      gmax = grad[k + l];
      i_sel = k + l;
    }
  }
  if (!std::isfinite(gmax)) return {0, 0, 0.0};  // I_up empty: optimal

  // Curvature of the (i, t) subproblem: K_ii + K_tt - 2 K_it, whatever
  // the signs of y_i and y_t.
  const std::size_t base_i = i_sel < l ? i_sel : i_sel - l;
  const double* ki = rows.fetch(rows.ctx, base_i);
  const double qii = s.qdiag[base_i];
  double gmax2 = -std::numeric_limits<double>::infinity();
  double best_obj = std::numeric_limits<double>::infinity();
  std::size_t j_sel = n;  // sentinel: no improving j found
  const auto consider = [&](std::size_t t, std::size_t k, double yg) {
    gmax2 = std::max(gmax2, yg);
    const double grad_diff = gmax + yg;
    if (grad_diff <= 0.0) return;
    double a = qii + s.qdiag[k] - 2.0 * ki[k];
    if (a <= 0.0) a = kTau;
    const double obj = -(grad_diff * grad_diff) / a;
    if (obj < best_obj) {
      best_obj = obj;
      j_sel = t;
    }
  };
  // I_low: α_t > 0 on the y = +1 half, α_t < C on the y = -1 half;
  // y_t G_t is G_t and -G_t respectively.
  for (std::size_t k = 0; k < l; ++k) {
    if (alpha[k] > 0.0) consider(k, k, grad[k]);
  }
  for (std::size_t k = 0; k < l; ++k) {
    if (alpha[k + l] < s.c) consider(k + l, k, -grad[k + l]);
  }
  const double violation = gmax + gmax2;
  if (j_sel == n) {
    // No pair yields progress: report the raw violation with a dummy j;
    // the caller stops if it is under tolerance.
    return {i_sel, i_sel, violation};
  }
  return {i_sel, j_sel, violation};
}

void grad_update_scalar(double* grad, std::size_t l, const double* ki,
                        const double* kj, double si, double sj) noexcept {
  double* g_pos = grad;
  double* g_neg = grad + l;
  for (std::size_t k = 0; k < l; ++k) {
    const double d = si * ki[k] + sj * kj[k];
    g_pos[k] += d;
    g_neg[k] -= d;
  }
}

#if defined(__x86_64__)

#define VMTHERM_AVX512 __attribute__((target("avx512f,avx512dq")))

namespace {

/// Lanes [0, remaining) of the next 8-wide step.
VMTHERM_AVX512 inline __mmask8 lanes(std::size_t remaining) {
  return remaining >= 8 ? static_cast<__mmask8>(0xFF)
                        : static_cast<__mmask8>((1u << remaining) - 1u);
}

/// -x by flipping the sign bit, as the scalar unary minus does.
VMTHERM_AVX512 inline __m512d negate(__m512d x) {
  return _mm512_xor_pd(x, _mm512_set1_pd(-0.0));
}

// Horizontal reductions leave their result in every lane. They use the
// full-mask maskz forms: GCC 12's unmasked forms read an
// _mm512_undefined_* operand that -Wmaybe-uninitialized flags.

VMTHERM_AVX512 inline __m512d broadcast_max(__m512d x) {
  x = _mm512_maskz_max_pd(0xFF, x,
                          _mm512_maskz_shuffle_f64x2(0xFF, x, x, 0x4E));
  x = _mm512_maskz_max_pd(0xFF, x,
                          _mm512_maskz_shuffle_f64x2(0xFF, x, x, 0xB1));
  return _mm512_maskz_max_pd(0xFF, x, _mm512_maskz_permute_pd(0xFF, x, 0x55));
}

VMTHERM_AVX512 inline __m512d broadcast_min(__m512d x) {
  x = _mm512_maskz_min_pd(0xFF, x,
                          _mm512_maskz_shuffle_f64x2(0xFF, x, x, 0x4E));
  x = _mm512_maskz_min_pd(0xFF, x,
                          _mm512_maskz_shuffle_f64x2(0xFF, x, x, 0xB1));
  return _mm512_maskz_min_pd(0xFF, x, _mm512_maskz_permute_pd(0xFF, x, 0x55));
}

/// Lowest index among the lanes of the accumulators (v0, i0) and (v1, i1)
/// whose value compares equal to `best` (±0 are equal). Each accumulator
/// lane holds the first occurrence of its own extremum over an ascending
/// run of indices, so this is the extremum's first occurrence over the
/// whole scan.
VMTHERM_AVX512 inline std::size_t lowest_index_at(__m512d best, __m512d v0,
                                                  __m512i i0, __m512d v1,
                                                  __m512i i1) {
  const __m512i none = _mm512_set1_epi64(-1);
  __m512i x = _mm512_maskz_min_epu64(
      0xFF,
      _mm512_mask_mov_epi64(none, _mm512_cmp_pd_mask(v0, best, _CMP_EQ_OQ),
                            i0),
      _mm512_mask_mov_epi64(none, _mm512_cmp_pd_mask(v1, best, _CMP_EQ_OQ),
                            i1));
  x = _mm512_maskz_min_epu64(0xFF, x,
                             _mm512_maskz_shuffle_i64x2(0xFF, x, x, 0x4E));
  x = _mm512_maskz_min_epu64(0xFF, x,
                             _mm512_maskz_shuffle_i64x2(0xFF, x, x, 0xB1));
  x = _mm512_maskz_min_epu64(0xFF, x,
                             _mm512_maskz_permutex_epi64(0xFF, x, 0xB1));
  alignas(64) std::uint64_t spilled[8];
  _mm512_store_si512(spilled, x);
  return static_cast<std::size_t>(spilled[0]);
}

}  // namespace

// The y = +1 half (t = k) and the y = -1 half (t = k + l) go to separate
// accumulators, so each accumulator lane still sees ascending t and the
// two compare/blend chains run independently. A lane records the step k
// at which it last improved; its index is k + lane (+ l on the y = -1
// half). Negations are folded into the comparisons where IEEE arithmetic
// makes that exact: -G_t > -G_s iff G_t < G_s, x + (-y) is x - y, and
// -(P) / a is P / (-a).
VMTHERM_AVX512 WorkingSet wss2_avx512(const View& s, RowSource rows) {
  const double* alpha = s.alpha;
  const double* grad = s.grad;
  const std::size_t l = s.l;
  const __m512d c = _mm512_set1_pd(s.c);
  const __m512d zero = _mm512_setzero_pd();
  const __m512d neg_inf =
      _mm512_set1_pd(-std::numeric_limits<double>::infinity());
  const __m512d pos_inf =
      _mm512_set1_pd(std::numeric_limits<double>::infinity());
  const __m512i step = _mm512_set1_epi64(8);
  const __m512i lane0 = _mm512_set_epi64(7, 6, 5, 4, 3, 2, 1, 0);
  const __m512i lane1 =
      _mm512_add_epi64(lane0, _mm512_set1_epi64(static_cast<long long>(l)));

  // I_up: α_t < C on the y = +1 half, where the value -G_t is largest at
  // the smallest G_t (lo0); α_t > 0 on the y = -1 half, value G_t (up1).
  __m512d lo0 = pos_inf;
  __m512d up1 = neg_inf;
  __m512i at0 = _mm512_setzero_si512();
  __m512i at1 = _mm512_setzero_si512();
  __m512i kv = _mm512_setzero_si512();
  for (std::size_t k = 0; k < l; k += 8) {
    const __mmask8 m = lanes(l - k);
    const __m512d g0 = _mm512_maskz_loadu_pd(m, grad + k);
    const __m512d g1 = _mm512_maskz_loadu_pd(m, grad + l + k);
    const __mmask8 e0 = _mm512_mask_cmp_pd_mask(
        m, _mm512_maskz_loadu_pd(m, alpha + k), c, _CMP_LT_OQ);
    const __mmask8 e1 = _mm512_mask_cmp_pd_mask(
        m, _mm512_maskz_loadu_pd(m, alpha + l + k), zero, _CMP_GT_OQ);
    const __mmask8 take0 = _mm512_mask_cmp_pd_mask(e0, g0, lo0, _CMP_LT_OQ);
    const __mmask8 take1 = _mm512_mask_cmp_pd_mask(e1, g1, up1, _CMP_GT_OQ);
    lo0 = _mm512_mask_mov_pd(lo0, take0, g0);
    up1 = _mm512_mask_mov_pd(up1, take1, g1);
    at0 = _mm512_mask_mov_epi64(at0, take0, kv);
    at1 = _mm512_mask_mov_epi64(at1, take1, kv);
    kv = _mm512_add_epi64(kv, step);
  }
  const __m512d up0 = negate(lo0);
  const __m512d up_best = broadcast_max(_mm512_maskz_max_pd(0xFF, up0, up1));
  // I_up empty (every lane still -inf) or an infinite violator: optimal.
  if (!std::isfinite(_mm512_cvtsd_f64(up_best))) return {0, 0, 0.0};
  const std::size_t i_sel =
      lowest_index_at(up_best, up0, _mm512_add_epi64(at0, lane0), up1,
                      _mm512_add_epi64(at1, lane1));
  // The element itself, so a ±0 maximum keeps the sign the scalar scan
  // keeps.
  const double gmax = i_sel < l ? -grad[i_sel] : grad[i_sel];

  const std::size_t base_i = i_sel < l ? i_sel : i_sel - l;
  const double* ki = rows.fetch(rows.ctx, base_i);
  const __m512d vgmax = _mm512_set1_pd(gmax);
  const __m512d qii = _mm512_set1_pd(s.qdiag[base_i]);
  const __m512d two = _mm512_set1_pd(2.0);
  const __m512d neg_tau = _mm512_set1_pd(-kTau);

  // I_low: α_t > 0 on the y = +1 half, value G_t (its maximum in g2_0);
  // α_t < C on the y = -1 half, value -G_t (its maximum is minus the
  // minimum G_t, in lo1). obj and its index follow the scalar strict-<
  // rule. VMAXPD/VMINPD return their second operand on equality or NaN,
  // so with the accumulator second they keep it as std::max does.
  __m512d g2_0 = neg_inf;
  __m512d lo1 = pos_inf;
  __m512d obj0 = pos_inf;
  __m512d obj1 = pos_inf;
  __m512i jt0 = _mm512_setzero_si512();
  __m512i jt1 = _mm512_setzero_si512();
  kv = _mm512_setzero_si512();
  for (std::size_t k = 0; k < l; k += 8) {
    const __mmask8 m = lanes(l - k);
    const __m512d g0 = _mm512_maskz_loadu_pd(m, grad + k);
    const __m512d g1 = _mm512_maskz_loadu_pd(m, grad + l + k);
    const __mmask8 e0 = _mm512_mask_cmp_pd_mask(
        m, _mm512_maskz_loadu_pd(m, alpha + k), zero, _CMP_GT_OQ);
    const __mmask8 e1 = _mm512_mask_cmp_pd_mask(
        m, _mm512_maskz_loadu_pd(m, alpha + l + k), c, _CMP_LT_OQ);
    g2_0 = _mm512_mask_max_pd(g2_0, e0, g0, g2_0);
    lo1 = _mm512_mask_min_pd(lo1, e1, g1, lo1);

    // Go on only where !(grad_diff <= 0), which lets NaN through as the
    // scalar early return does.
    const __m512d gd0 = _mm512_add_pd(vgmax, g0);
    const __m512d gd1 = _mm512_sub_pd(vgmax, g1);
    const __mmask8 p0 = _mm512_mask_cmp_pd_mask(e0, gd0, zero, _CMP_NLE_UQ);
    const __mmask8 p1 = _mm512_mask_cmp_pd_mask(e1, gd1, zero, _CMP_NLE_UQ);

    // -a = 2 K_ik - (K_ii + K_kk), one per base sample for both halves.
    // Rounding is symmetric, so it is the scalar a negated, and -a >= 0
    // exactly where a <= 0 (a zero difference is +0 both ways round).
    __m512d neg_a =
        _mm512_sub_pd(_mm512_mul_pd(two, _mm512_maskz_loadu_pd(m, ki + k)),
                      _mm512_add_pd(qii, _mm512_maskz_loadu_pd(m, s.qdiag + k)));
    neg_a = _mm512_mask_mov_pd(
        neg_a, _mm512_cmp_pd_mask(neg_a, zero, _CMP_GE_OQ), neg_tau);

    const __m512d o0 = _mm512_maskz_div_pd(p0, _mm512_mul_pd(gd0, gd0), neg_a);
    const __m512d o1 = _mm512_maskz_div_pd(p1, _mm512_mul_pd(gd1, gd1), neg_a);
    const __mmask8 take0 = _mm512_mask_cmp_pd_mask(p0, o0, obj0, _CMP_LT_OQ);
    const __mmask8 take1 = _mm512_mask_cmp_pd_mask(p1, o1, obj1, _CMP_LT_OQ);
    obj0 = _mm512_mask_mov_pd(obj0, take0, o0);
    obj1 = _mm512_mask_mov_pd(obj1, take1, o1);
    jt0 = _mm512_mask_mov_epi64(jt0, take0, kv);
    jt1 = _mm512_mask_mov_epi64(jt1, take1, kv);
    kv = _mm512_add_epi64(kv, step);
  }

  // gmax2 needs no index, but a zero maximum does: the lanes cannot tell
  // which zero came first, and its sign can reach gmax + gmax2. That case
  // rescans in scalar order.
  double gmax2 = _mm512_cvtsd_f64(
      broadcast_max(_mm512_maskz_max_pd(0xFF, g2_0, negate(lo1))));
  if (gmax2 == 0.0) {
    gmax2 = -std::numeric_limits<double>::infinity();
    for (std::size_t k = 0; k < l; ++k) {
      if (alpha[k] > 0.0) gmax2 = std::max(gmax2, grad[k]);
    }
    for (std::size_t k = 0; k < l; ++k) {
      if (alpha[k + l] < s.c) gmax2 = std::max(gmax2, -grad[k + l]);
    }
  }
  const double violation = gmax + gmax2;
  // Every lane still +inf: no improving j. obj is never +inf otherwise.
  const __m512d obj_best = broadcast_min(_mm512_maskz_min_pd(0xFF, obj0, obj1));
  if (_mm512_cvtsd_f64(obj_best) == std::numeric_limits<double>::infinity()) {
    return {i_sel, i_sel, violation};
  }
  return {i_sel,
          lowest_index_at(obj_best, obj0, _mm512_add_epi64(jt0, lane0), obj1,
                          _mm512_add_epi64(jt1, lane1)),
          violation};
}

// Worth its own body: on a 4-core AVX-512 Xeon it cuts an SMO iteration at
// l = 180 (BM_SmoChainPaperWindow) by about a tenth against the scalar loop,
// whether that loop is inlined in the solver or called through kernels().
VMTHERM_AVX512 void grad_update_avx512(double* grad, std::size_t l,
                                       const double* ki, const double* kj,
                                       double si, double sj) noexcept {
  double* g_pos = grad;
  double* g_neg = grad + l;
  const __m512d vsi = _mm512_set1_pd(si);
  const __m512d vsj = _mm512_set1_pd(sj);
  for (std::size_t k = 0; k < l; k += 8) {
    const __mmask8 m = lanes(l - k);
    const __m512d d =
        _mm512_add_pd(_mm512_mul_pd(vsi, _mm512_maskz_loadu_pd(m, ki + k)),
                      _mm512_mul_pd(vsj, _mm512_maskz_loadu_pd(m, kj + k)));
    _mm512_mask_storeu_pd(
        g_pos + k, m, _mm512_add_pd(_mm512_maskz_loadu_pd(m, g_pos + k), d));
    _mm512_mask_storeu_pd(
        g_neg + k, m, _mm512_sub_pd(_mm512_maskz_loadu_pd(m, g_neg + k), d));
  }
}

bool cpu_has_avx512() noexcept {
  return __builtin_cpu_supports("avx512f") &&
         __builtin_cpu_supports("avx512dq");
}

#else

bool cpu_has_avx512() noexcept { return false; }

#endif

const Kernels& kernels() noexcept {
  static const Kernels resolved = [] {
#if defined(__x86_64__)
    if (cpu_has_avx512()) {
      return Kernels{&wss2_avx512, &grad_update_avx512, "avx512"};
    }
#endif
    return Kernels{&wss2_scalar, &grad_update_scalar, "scalar"};
  }();
  return resolved;
}

}  // namespace vmtherm::ml::smo
