// Tests for ml/svr_smo_kernels: the AVX-512 WSS2 scan and gradient update
// against their scalar bodies, bit for bit, on seeded random solver states
// built to hit every tail mask (l = 1..40 and 180), ties between lanes and
// halves, signed zeros, an empty I_up, all-bound α, curvature a <= 0 (the
// kTau floor), NaN gradients and the no-improving-j sentinel.

#include "ml/svr_smo_kernels.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include "ml/kernel.h"
#include "util/rng.h"

namespace vmtherm::ml::smo {
namespace {

#if defined(__x86_64__)

/// How a random state's kernel rows are made.
enum class Rows { kRbf, kLinear, kPolynomial, kArbitrary };

/// A solver state the scan reads, with its kernel matrix; fetch() counts
/// calls and remembers the row asked for.
struct State {
  std::size_t l = 0;
  double c = 1.0;
  std::vector<double> alpha;
  std::vector<double> grad;
  std::vector<double> qdiag;
  std::vector<double> kernel;  ///< l x l, row-major
  std::size_t fetches = 0;
  std::size_t fetched = 0;

  View view() const { return {alpha.data(), grad.data(), qdiag.data(), l, c}; }

  static const double* fetch(void* self, std::size_t k) {
    auto* s = static_cast<State*>(self);
    ++s->fetches;
    s->fetched = k;
    return s->kernel.data() + k * s->l;
  }
};

/// Kernel rows from points (a few duplicated, so some a are exactly 0 or
/// round below it) or arbitrary symmetric values (a <= 0 often).
void fill_kernel(State& s, Rows rows, Rng& rng) {
  const std::size_t l = s.l;
  s.qdiag.assign(l, 0.0);
  s.kernel.assign(l * l, 0.0);
  if (rows == Rows::kArbitrary) {
    for (std::size_t a = 0; a < l; ++a) {
      s.qdiag[a] = rng.uniform(-0.5, 1.5);
      for (std::size_t b = a; b < l; ++b) {
        const double v = rng.uniform(-1.0, 1.5);
        s.kernel[a * l + b] = v;
        s.kernel[b * l + a] = v;
      }
    }
    return;
  }
  KernelParams params;
  params.kind = rows == Rows::kRbf      ? KernelKind::kRbf
                : rows == Rows::kLinear ? KernelKind::kLinear
                                        : KernelKind::kPolynomial;
  params.gamma = 0.7;
  params.coef0 = 0.3;
  std::vector<std::vector<double>> x(l);
  for (std::size_t a = 0; a < l; ++a) {
    if (a > 0 && rng.uniform(0.0, 1.0) < 0.2) {
      x[a] = x[static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<int>(a) - 1))];
    } else {
      x[a] = {rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0),
              rng.uniform(-1.0, 1.0)};
    }
  }
  for (std::size_t a = 0; a < l; ++a) {
    s.qdiag[a] = kernel_eval(params, x[a], x[a]);
    for (std::size_t b = 0; b < l; ++b) {
      s.kernel[a * l + b] = kernel_eval(params, x[a], x[b]);
    }
  }
}

/// A random mid-solve state. `ties` draws gradients from a few values
/// (signed zeros among them) so equal -y G meet across lanes and halves;
/// `bound_share` of α sit at 0 or C.
State random_state(std::size_t l, Rows rows, bool ties, double bound_share,
                   std::uint64_t seed) {
  Rng rng(seed);
  State s;
  s.l = l;
  s.c = 4.0;
  s.alpha.resize(2 * l);
  s.grad.resize(2 * l);
  // 1e-170 squares to zero: an obj of -0 that ties across lanes.
  static constexpr double kTieValues[] = {-1.0, -0.5,   -0.0,
                                          0.0,  1e-170, 1.0};
  for (std::size_t t = 0; t < 2 * l; ++t) {
    const double u = rng.uniform(0.0, 1.0);
    s.alpha[t] = u < bound_share / 2 ? 0.0
                 : u < bound_share   ? s.c
                                     : rng.uniform(0.0, s.c);
    s.grad[t] =
        ties ? kTieValues[rng.uniform_int(0, 5)] : rng.uniform(-1.0, 1.0);
  }
  fill_kernel(s, rows, rng);
  return s;
}

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

/// Both scans on the same state: same pair, same violation bits, and the
/// same single row fetch (or none).
void expect_same_pick(State& s) {
  s.fetches = 0;
  const WorkingSet ref = wss2_scalar(s.view(), {&State::fetch, &s});
  const std::size_t ref_fetches = s.fetches;
  const std::size_t ref_row = s.fetched;
  s.fetches = 0;
  const WorkingSet got = wss2_avx512(s.view(), {&State::fetch, &s});
  EXPECT_EQ(got.i, ref.i);
  EXPECT_EQ(got.j, ref.j);
  EXPECT_EQ(bits(got.violation), bits(ref.violation))
      << got.violation << " vs " << ref.violation;
  EXPECT_EQ(s.fetches, ref_fetches);
  if (ref_fetches > 0) {
    EXPECT_EQ(s.fetched, ref_row);
  }
}

class SmoKernelsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!cpu_has_avx512()) GTEST_SKIP() << "CPU lacks AVX-512F/DQ";
  }
};

std::vector<std::size_t> sizes() {
  std::vector<std::size_t> out;
  for (std::size_t l = 1; l <= 40; ++l) out.push_back(l);
  out.push_back(180);
  return out;
}

TEST_F(SmoKernelsTest, Wss2MatchesScalarOnRandomStates) {
  std::uint64_t seed = 1;
  for (const std::size_t l : sizes()) {
    for (const Rows rows :
         {Rows::kRbf, Rows::kLinear, Rows::kPolynomial, Rows::kArbitrary}) {
      for (const bool ties : {false, true}) {
        for (const double bound_share : {0.0, 0.3, 1.0}) {
          SCOPED_TRACE(::testing::Message()
                       << "l=" << l << " rows=" << static_cast<int>(rows)
                       << " ties=" << ties << " bound=" << bound_share
                       << " seed=" << seed);
          State s = random_state(l, rows, ties, bound_share, seed++);
          expect_same_pick(s);
        }
      }
    }
  }
}

TEST_F(SmoKernelsTest, Wss2EqualValuesPickTheLowestIndex) {
  // Every -y G equal, in both halves and every lane: i must be 0, and an
  // equal obj everywhere (one kernel row value) must give the first j.
  for (const std::size_t l : sizes()) {
    SCOPED_TRACE(l);
    State s = random_state(l, Rows::kRbf, false, 0.0, 7);
    for (std::size_t t = 0; t < l; ++t) s.grad[t] = -1.0;     // -G = 1
    for (std::size_t t = l; t < 2 * l; ++t) s.grad[t] = 1.0;  // G = 1
    for (double& k : s.kernel) k = 0.25;
    for (double& q : s.qdiag) q = 1.0;
    expect_same_pick(s);
    // The maximum only in the y = -1 half, at several lanes.
    for (std::size_t t = l; t < 2 * l; t += 3) s.grad[t] = 2.0;
    expect_same_pick(s);
  }
}

TEST_F(SmoKernelsTest, Wss2SignedZeroTies) {
  // All gradients ±0: gmax, gmax2 and every obj are zeros whose sign only
  // the scalar scan order decides.
  for (const std::size_t l : sizes()) {
    for (std::uint64_t seed = 0; seed < 4; ++seed) {
      SCOPED_TRACE(::testing::Message() << "l=" << l << " seed=" << seed);
      State s = random_state(l, Rows::kRbf, false, 0.2, 100 + seed);
      Rng rng(seed);
      for (double& g : s.grad) g = rng.uniform(0.0, 1.0) < 0.5 ? 0.0 : -0.0;
      expect_same_pick(s);
    }
  }
}

TEST_F(SmoKernelsTest, Wss2SkipsNaNGradients) {
  // The scalar comparisons never pick a NaN and std::max never keeps one;
  // the lanes must ignore them the same way.
  for (const std::size_t l : sizes()) {
    SCOPED_TRACE(l);
    State s = random_state(l, Rows::kRbf, false, 0.2, 300 + l);
    for (std::size_t t = 0; t < 2 * l; t += 3) s.grad[t] = std::nan("");
    expect_same_pick(s);
  }
}

TEST_F(SmoKernelsTest, Wss2EmptyIUpIsOptimal) {
  for (const std::size_t l : sizes()) {
    SCOPED_TRACE(l);
    State s = random_state(l, Rows::kRbf, false, 0.0, 11);
    for (std::size_t t = 0; t < l; ++t) s.alpha[t] = s.c;      // not < C
    for (std::size_t t = l; t < 2 * l; ++t) s.alpha[t] = 0.0;  // not > 0
    expect_same_pick(s);
    const WorkingSet got = wss2_avx512(s.view(), {&State::fetch, &s});
    EXPECT_EQ(got.i, 0u);
    EXPECT_EQ(got.j, 0u);
    EXPECT_EQ(bits(got.violation), bits(0.0));
  }
}

TEST_F(SmoKernelsTest, Wss2NoImprovingJKeepsTheSentinel) {
  // I_up is the y = +1 half with -G = -1; I_low is the y = -1 half with
  // -G = -1 too, so every grad_diff is -2 <= 0 and j falls back to i.
  for (const std::size_t l : sizes()) {
    SCOPED_TRACE(l);
    State s = random_state(l, Rows::kRbf, false, 0.0, 13);
    for (std::size_t t = 0; t < l; ++t) {
      s.alpha[t] = 0.0;
      s.grad[t] = 1.0;
    }
    for (std::size_t t = l; t < 2 * l; ++t) {
      s.alpha[t] = 0.0;
      s.grad[t] = 1.0;
    }
    expect_same_pick(s);
    const WorkingSet got = wss2_avx512(s.view(), {&State::fetch, &s});
    EXPECT_EQ(got.j, got.i);
  }
}

TEST_F(SmoKernelsTest, Wss2CurvatureFloor) {
  // A constant kernel matrix makes every a exactly 0, so the kTau floor
  // decides every obj. (Duplicated points in the random linear and
  // polynomial states also give a that rounds below 0.)
  for (const std::size_t l : sizes()) {
    SCOPED_TRACE(l);
    State s = random_state(l, Rows::kRbf, false, 0.1, 17);
    for (double& k : s.kernel) k = 0.75;
    for (double& q : s.qdiag) q = 0.75;
    expect_same_pick(s);
  }
}

TEST_F(SmoKernelsTest, GradUpdateMatchesScalarWordForWord) {
  for (const std::size_t l : sizes()) {
    for (std::uint64_t seed = 0; seed < 3; ++seed) {
      SCOPED_TRACE(::testing::Message() << "l=" << l << " seed=" << seed);
      Rng rng(200 + seed);
      std::vector<double> ki(l);
      std::vector<double> kj(l);
      for (std::size_t k = 0; k < l; ++k) {
        ki[k] = rng.uniform(-1.0, 1.0);
        kj[k] = rng.uniform(-1.0, 1.0);
      }
      // Guard words past 2l catch a store beyond the gradient.
      std::vector<double> ref(2 * l + 8, 12345.0);
      for (std::size_t t = 0; t < 2 * l; ++t) ref[t] = rng.uniform(-2.0, 2.0);
      std::vector<double> got = ref;
      const double si = rng.uniform(-3.0, 3.0);
      const double sj = rng.uniform(-3.0, 3.0);
      grad_update_scalar(ref.data(), l, ki.data(), kj.data(), si, sj);
      grad_update_avx512(got.data(), l, ki.data(), kj.data(), si, sj);
      // i and j on the same base sample read one row twice.
      grad_update_scalar(ref.data(), l, ki.data(), ki.data(), si, -sj);
      grad_update_avx512(got.data(), l, ki.data(), ki.data(), si, -sj);
      for (std::size_t t = 0; t < ref.size(); ++t) {
        ASSERT_EQ(bits(got[t]), bits(ref[t])) << "word " << t;
      }
    }
  }
}

#endif  // __x86_64__

TEST(SmoKernelsDispatchTest, ResolvesToTheDetectedIsa) {
  const Kernels& k = kernels();
  ASSERT_NE(k.wss2, nullptr);
  ASSERT_NE(k.grad_update, nullptr);
  EXPECT_STREQ(k.isa, cpu_has_avx512() ? "avx512" : "scalar");
  EXPECT_EQ(&kernels(), &k);  // resolved once
}

}  // namespace
}  // namespace vmtherm::ml::smo
