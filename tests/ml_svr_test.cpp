// Tests for ml/svr: the SMO ε-SVR solver. Covers exact fits, KKT/dual
// feasibility invariants, kernel sweeps, determinism and edge cases.

#include "ml/svr.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <numbers>
#include <string_view>

#include "util/rng.h"
#include "util/stats.h"

namespace vmtherm::ml {
namespace {

Dataset linear_data(std::size_t n, double slope, double intercept,
                    double noise, std::uint64_t seed) {
  Rng rng(seed);
  Dataset data;
  for (std::size_t i = 0; i < n; ++i) {
    const double x = rng.uniform(-1.0, 1.0);
    data.add(Sample{{x}, slope * x + intercept + rng.normal(0.0, noise)});
  }
  return data;
}

Dataset sine_data(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  Dataset data;
  for (std::size_t i = 0; i < n; ++i) {
    const double x = rng.uniform(-1.0, 1.0);
    data.add(Sample{{x}, std::sin(std::numbers::pi * x)});
  }
  return data;
}

TEST(SvrTest, EmptyTrainingSetThrows) {
  SvrParams params;
  EXPECT_THROW((void)SvrModel::train(Dataset{}, params), DataError);
}

TEST(SvrTest, NonFiniteInputsRejected) {
  Dataset data;
  data.add(Sample{{1.0}, std::nan("")});
  SvrParams params;
  EXPECT_THROW((void)SvrModel::train(data, params), DataError);

  Dataset data2;
  data2.add(Sample{{std::numeric_limits<double>::infinity()}, 1.0});
  EXPECT_THROW((void)SvrModel::train(data2, params), DataError);
}

TEST(SvrTest, InvalidParamsRejected) {
  const auto data = linear_data(10, 1.0, 0.0, 0.0, 1);
  SvrParams params;
  params.c = 0.0;
  EXPECT_THROW((void)SvrModel::train(data, params), ConfigError);
  params = SvrParams{};
  params.epsilon = -0.1;
  EXPECT_THROW((void)SvrModel::train(data, params), ConfigError);
}

// Non-finite parameters used to train a "converged" model with a NaN bias
// (RBF gamma = +inf, polynomial coef0 = NaN, epsilon = +inf) or run to
// max_iterations (C = +inf). Each is now a ConfigError from train() and,
// for the kernel fields, from the SvrModel constructor as well.
constexpr double kInf = std::numeric_limits<double>::infinity();

void expect_kernel_rejected(const KernelParams& kernel) {
  const auto data = linear_data(40, 1.0, 0.0, 0.1, 3);
  SvrParams params;
  params.kernel = kernel;
  EXPECT_THROW((void)SvrModel::train(data, params), ConfigError);
  EXPECT_THROW(SvrModel(kernel, {{0.5}}, {1.0}, 0.0), ConfigError);
}

void expect_params_rejected(const SvrParams& params) {
  const auto data = linear_data(40, 1.0, 0.0, 0.1, 3);
  EXPECT_THROW((void)SvrModel::train(data, params), ConfigError);
}

TEST(SvrTest, RejectsNonFiniteGamma) {
  for (const KernelKind kind : {KernelKind::kRbf, KernelKind::kLinear}) {
    for (const double gamma : {kInf, std::nan("")}) {
      KernelParams kernel;
      kernel.kind = kind;
      kernel.gamma = gamma;
      expect_kernel_rejected(kernel);
    }
  }
}

TEST(SvrTest, RejectsNonFiniteCoef0) {
  for (const KernelKind kind :
       {KernelKind::kPolynomial, KernelKind::kSigmoid}) {
    for (const double coef0 : {std::nan(""), -kInf}) {
      KernelParams kernel;
      kernel.kind = kind;
      kernel.coef0 = coef0;
      expect_kernel_rejected(kernel);
    }
  }
}

TEST(SvrTest, RejectsNonFiniteC) {
  for (const double c : {kInf, std::nan("")}) {
    SvrParams params;
    params.c = c;
    expect_params_rejected(params);
  }
}

TEST(SvrTest, RejectsNonFiniteEpsilon) {
  for (const double epsilon : {kInf, std::nan("")}) {
    SvrParams params;
    params.epsilon = epsilon;
    expect_params_rejected(params);
  }
}

TEST(SvrTest, RejectsNonFiniteCacheBudget) {
  // An infinite budget would be cast to a row count.
  SvrParams params;
  params.cache_mb = kInf;
  expect_params_rejected(params);
}

TEST(SvrTest, FitsConstantTarget) {
  Dataset data;
  for (int i = 0; i < 10; ++i) {
    data.add(Sample{{static_cast<double>(i) / 10.0}, 3.5});
  }
  SvrParams params;
  params.epsilon = 0.01;
  SvrTrainReport report;
  const auto model = SvrModel::train(data, params, &report);
  EXPECT_TRUE(report.converged);
  EXPECT_NEAR(model.predict(std::vector<double>{0.55}), 3.5, 0.05);
}

TEST(SvrTest, FitsLinearFunctionWithLinearKernel) {
  const auto data = linear_data(60, 2.0, 1.0, 0.0, 2);
  SvrParams params;
  params.kernel.kind = KernelKind::kLinear;
  params.c = 100.0;
  params.epsilon = 0.01;
  SvrTrainReport report;
  const auto model = SvrModel::train(data, params, &report);
  EXPECT_TRUE(report.converged);
  for (double x = -0.9; x <= 0.9; x += 0.3) {
    EXPECT_NEAR(model.predict(std::vector<double>{x}), 2.0 * x + 1.0, 0.05)
        << "x=" << x;
  }
}

TEST(SvrTest, FitsSineWithRbfKernel) {
  const auto data = sine_data(120, 3);
  SvrParams params;
  params.kernel.kind = KernelKind::kRbf;
  params.kernel.gamma = 4.0;
  params.c = 50.0;
  params.epsilon = 0.02;
  SvrTrainReport report;
  const auto model = SvrModel::train(data, params, &report);
  EXPECT_TRUE(report.converged);
  double max_err = 0.0;
  for (double x = -0.9; x <= 0.9; x += 0.1) {
    max_err = std::max(max_err,
                       std::abs(model.predict(std::vector<double>{x}) -
                                std::sin(std::numbers::pi * x)));
  }
  EXPECT_LT(max_err, 0.1);
}

TEST(SvrTest, TrainingResidualsRespectEpsilonTube) {
  // With enough C and convergence, residuals exceed epsilon only slightly
  // (by the stopping tolerance) at bounded SVs.
  const auto data = linear_data(50, 1.5, -0.5, 0.0, 4);
  SvrParams params;
  params.kernel.kind = KernelKind::kLinear;
  params.c = 1000.0;
  params.epsilon = 0.1;
  const auto model = SvrModel::train(data, params);
  for (const auto& s : data.samples()) {
    EXPECT_LE(std::abs(model.predict(s.x) - s.y), 0.1 + 0.05);
  }
}

TEST(SvrTest, DualFeasibilityCoefficientsBounded) {
  const auto data = sine_data(80, 5);
  SvrParams params;
  params.kernel.gamma = 2.0;
  params.c = 7.0;
  params.epsilon = 0.05;
  const auto model = SvrModel::train(data, params);
  ASSERT_GT(model.support_vector_count(), 0u);
  for (double beta : model.coefficients()) {
    EXPECT_LE(std::abs(beta), 7.0 + 1e-9);
    EXPECT_NE(beta, 0.0);
  }
}

TEST(SvrTest, DualEqualityConstraintHolds) {
  // sum of betas = 0 (from y^T alpha = 0).
  const auto data = sine_data(80, 6);
  SvrParams params;
  params.kernel.gamma = 2.0;
  params.c = 10.0;
  params.epsilon = 0.05;
  const auto model = SvrModel::train(data, params);
  double sum = 0.0;
  for (double beta : model.coefficients()) sum += beta;
  EXPECT_NEAR(sum, 0.0, 1e-6);
}

TEST(SvrTest, WideEpsilonTubeYieldsFewSupportVectors) {
  const auto data = linear_data(60, 0.3, 0.0, 0.01, 7);
  SvrParams narrow;
  narrow.kernel.kind = KernelKind::kLinear;
  narrow.epsilon = 0.001;
  SvrParams wide = narrow;
  wide.epsilon = 0.5;  // tube swallows the whole target range
  const auto model_narrow = SvrModel::train(data, narrow);
  const auto model_wide = SvrModel::train(data, wide);
  EXPECT_LT(model_wide.support_vector_count(),
            model_narrow.support_vector_count());
}

TEST(SvrTest, AllInsideTubeMeansNoSupportVectors) {
  Dataset data;
  for (int i = 0; i < 20; ++i) {
    data.add(Sample{{static_cast<double>(i)}, 5.0});
  }
  SvrParams params;
  params.epsilon = 10.0;  // constant target well inside the tube
  const auto model = SvrModel::train(data, params);
  EXPECT_EQ(model.support_vector_count(), 0u);
  // Degenerate model still predicts something finite (the bias).
  EXPECT_TRUE(std::isfinite(model.predict(std::vector<double>{3.0})));
}

TEST(SvrTest, DeterministicAcrossRuns) {
  const auto data = sine_data(60, 8);
  SvrParams params;
  params.kernel.gamma = 1.0;
  const auto a = SvrModel::train(data, params);
  const auto b = SvrModel::train(data, params);
  ASSERT_EQ(a.support_vector_count(), b.support_vector_count());
  EXPECT_DOUBLE_EQ(a.bias(), b.bias());
  for (double x = -1.0; x <= 1.0; x += 0.25) {
    ASSERT_DOUBLE_EQ(a.predict(std::vector<double>{x}),
                     b.predict(std::vector<double>{x}));
  }
}

TEST(SvrTest, TinyCacheStillCorrect) {
  // Forces constant cache eviction; results must match a roomy cache.
  const auto data = sine_data(60, 9);
  SvrParams roomy;
  roomy.kernel.gamma = 1.0;
  roomy.cache_mb = 64.0;
  SvrParams tiny = roomy;
  tiny.cache_mb = 1e-5;  // ~2 rows
  SvrTrainReport report_a;
  SvrTrainReport report_b;
  const auto a = SvrModel::train(data, roomy, &report_a);
  const auto b = SvrModel::train(data, tiny, &report_b);
  // The solver reads two cached rows per update; under constant eviction
  // the path (and so every bit of the model) must not change.
  EXPECT_EQ(report_a.iterations, report_b.iterations);
  EXPECT_EQ(a.bias(), b.bias());
  for (double x = -1.0; x <= 1.0; x += 0.25) {
    ASSERT_EQ(a.predict(std::vector<double>{x}),
              b.predict(std::vector<double>{x}));
  }
}

TEST(SvrTest, ReportCountsAreConsistent) {
  const auto data = sine_data(50, 10);
  SvrParams params;
  params.kernel.gamma = 2.0;
  SvrTrainReport report;
  const auto model = SvrModel::train(data, params, &report);
  EXPECT_EQ(report.support_vector_count, model.support_vector_count());
  EXPECT_DOUBLE_EQ(report.bias, model.bias());
  EXPECT_GT(report.iterations, 0u);
  EXPECT_LT(report.final_violation, params.tolerance);
}

TEST(SvrTest, MaxIterationsCapRespected) {
  const auto data = sine_data(100, 11);
  SvrParams params;
  params.kernel.gamma = 8.0;
  params.c = 1000.0;
  params.epsilon = 0.0001;
  params.max_iterations = 5;
  SvrTrainReport report;
  (void)SvrModel::train(data, params, &report);
  EXPECT_EQ(report.iterations, 5u);
  EXPECT_FALSE(report.converged);
}

TEST(SvrTest, PredictDimensionMismatchThrows) {
  const auto data = linear_data(20, 1.0, 0.0, 0.0, 12);
  const auto model = SvrModel::train(data, SvrParams{});
  if (model.support_vector_count() > 0) {
    EXPECT_THROW((void)model.predict(std::vector<double>{1.0, 2.0}),
                 DataError);
  }
}

TEST(SvrTest, BatchPredictMatchesPointwise) {
  const auto data = sine_data(40, 13);
  SvrParams params;
  params.kernel.gamma = 2.0;
  const auto model = SvrModel::train(data, params);
  const auto batch = model.predict(data);
  ASSERT_EQ(batch.size(), data.size());
  for (std::size_t i = 0; i < data.size(); ++i) {
    EXPECT_DOUBLE_EQ(batch[i], model.predict(data[i].x));
  }
}

TEST(SvrTest, ModelReconstructionPredictsIdentically) {
  const auto data = sine_data(40, 14);
  SvrParams params;
  params.kernel.gamma = 2.0;
  const auto model = SvrModel::train(data, params);
  std::vector<std::vector<double>> svs;
  for (std::size_t k = 0; k < model.support_vector_count(); ++k) {
    svs.push_back(model.support_vector(k));
  }
  const SvrModel rebuilt(model.kernel(), svs, model.coefficients(),
                         model.bias());
  for (double x = -1.0; x <= 1.0; x += 0.2) {
    EXPECT_DOUBLE_EQ(rebuilt.predict(std::vector<double>{x}),
                     model.predict(std::vector<double>{x}));
  }
}

TEST(SvrTest, ReconstructionValidatesShape) {
  EXPECT_THROW(SvrModel(KernelParams{}, {{1.0, 2.0}}, {0.5, 0.5}, 0.0),
               ConfigError);  // sv/coef count mismatch
  EXPECT_THROW(SvrModel(KernelParams{}, {{1.0, 2.0}, {1.0}}, {0.5, 0.5}, 0.0),
               ConfigError);  // ragged svs
}

class SvrKernelSweepTest : public ::testing::TestWithParam<KernelKind> {};

INSTANTIATE_TEST_SUITE_P(
    Kernels, SvrKernelSweepTest,
    ::testing::Values(KernelKind::kLinear, KernelKind::kPolynomial,
                      KernelKind::kRbf),
    [](const ::testing::TestParamInfo<KernelKind>& param_info) {
      return std::string(kernel_kind_name(param_info.param));
    });

TEST_P(SvrKernelSweepTest, BeatsMeanPredictorOnSmoothTarget) {
  // y = 0.5 x + 0.2 x^2: every kernel here should explain most variance.
  Rng rng(15);
  Dataset data;
  for (int i = 0; i < 80; ++i) {
    const double x = rng.uniform(-1.0, 1.0);
    data.add(Sample{{x}, 0.5 * x + 0.2 * x * x});
  }
  SvrParams params;
  params.kernel.kind = GetParam();
  params.kernel.gamma = 1.0;
  params.kernel.coef0 = 1.0;
  params.c = 20.0;
  params.epsilon = 0.01;
  const auto model = SvrModel::train(data, params);
  const auto pred = model.predict(data);
  EXPECT_GT(r_squared(pred, data.targets()), 0.9)
      << kernel_kind_name(GetParam());
}

class SvrCSweepTest : public ::testing::TestWithParam<double> {};

INSTANTIATE_TEST_SUITE_P(CValues, SvrCSweepTest,
                         ::testing::Values(0.1, 1.0, 10.0, 100.0));

TEST_P(SvrCSweepTest, ConvergesAndBoundsCoefficients) {
  const auto data = sine_data(60, 16);
  SvrParams params;
  params.kernel.gamma = 2.0;
  params.c = GetParam();
  params.epsilon = 0.05;
  SvrTrainReport report;
  const auto model = SvrModel::train(data, params, &report);
  EXPECT_TRUE(report.converged);
  for (double beta : model.coefficients()) {
    EXPECT_LE(std::abs(beta), GetParam() + 1e-9);
  }
}

TEST(SvrTest, MultiDimensionalRegression) {
  // y = x0 + 2 x1 - x2 on 3D inputs with the RBF kernel.
  Rng rng(17);
  Dataset data;
  for (int i = 0; i < 150; ++i) {
    std::vector<double> x = {rng.uniform(-1, 1), rng.uniform(-1, 1),
                             rng.uniform(-1, 1)};
    const double y = x[0] + 2.0 * x[1] - x[2];
    data.add(Sample{std::move(x), y});
  }
  SvrParams params;
  params.kernel.gamma = 0.5;
  params.c = 50.0;
  params.epsilon = 0.05;
  const auto model = SvrModel::train(data, params);
  const auto pred = model.predict(data);
  EXPECT_GT(r_squared(pred, data.targets()), 0.97);
}


TEST(SvrWorkingSetTest, FirstAndSecondOrderReachSameOptimum) {
  const auto data = sine_data(80, 21);
  SvrParams wss2;
  wss2.kernel.gamma = 2.0;
  wss2.c = 10.0;
  wss2.epsilon = 0.05;
  wss2.second_order_working_set = true;
  SvrParams wss1 = wss2;
  wss1.second_order_working_set = false;

  SvrTrainReport report2;
  SvrTrainReport report1;
  const auto model2 = SvrModel::train(data, wss2, &report2);
  const auto model1 = SvrModel::train(data, wss1, &report1);
  EXPECT_TRUE(report1.converged);
  EXPECT_TRUE(report2.converged);
  // Same dual optimum => near-identical decision functions.
  for (double x = -1.0; x <= 1.0; x += 0.1) {
    EXPECT_NEAR(model1.predict(std::vector<double>{x}),
                model2.predict(std::vector<double>{x}), 5e-3)
        << "x=" << x;
  }
}

/// Pinned cold-path results: one fixed 2-D dataset per kernel, solved with
/// both working-set rules. Any change to the SMO arithmetic or its
/// selection order shows up here as a different iteration count, bias bit
/// pattern or support-vector count.
struct PinnedSolve {
  KernelKind kind;
  bool second_order;
  std::size_t iterations;
  double bias;
  std::size_t support_vectors;
};

Dataset pinned_data(std::uint64_t seed) {
  Rng rng(seed);
  Dataset data;
  for (std::size_t i = 0; i < 48; ++i) {
    const double x0 = rng.uniform(-1.0, 1.0);
    const double x1 = rng.uniform(-1.0, 1.0);
    data.add(Sample{{x0, x1},
                    std::sin(std::numbers::pi * x0) + 0.5 * x1 * x1 +
                        rng.normal(0.0, 0.05)});
  }
  return data;
}

SvrParams pinned_params(KernelKind kind, bool second_order) {
  SvrParams params;
  params.kernel.kind = kind;
  params.second_order_working_set = second_order;
  params.epsilon = 0.05;
  switch (kind) {
    case KernelKind::kRbf:
      params.kernel.gamma = 2.0;
      params.c = 20.0;
      break;
    case KernelKind::kLinear:
      params.c = 10.0;
      break;
    case KernelKind::kPolynomial:
      params.kernel.gamma = 0.5;
      params.kernel.coef0 = 1.0;
      params.kernel.degree = 3;
      params.c = 10.0;
      break;
    case KernelKind::kSigmoid:
      params.kernel.gamma = 0.1;
      params.kernel.coef0 = 0.0;
      params.c = 1.0;
      break;
  }
  return params;
}

TEST(SvrTest, ColdPathPinned) {
  const PinnedSolve pinned[] = {
      {KernelKind::kRbf, true, 1867, 0x1.d4ae19d523fd3p-2, 27},
      {KernelKind::kRbf, false, 8713, 0x1.d3ca065c81fc3p-2, 27},
      {KernelKind::kLinear, true, 263, 0x1.677ee504e7579p-2, 45},
      {KernelKind::kLinear, false, 967, 0x1.675b6cc1bdb41p-2, 45},
      {KernelKind::kPolynomial, true, 2483, -0x1.d0e7b113e23ebp-9, 30},
      {KernelKind::kPolynomial, false, 9323, -0x1.cc6ace93a06ap-9, 31},
      {KernelKind::kSigmoid, true, 26, -0x1.01ca00e9182c4p-5, 45},
      {KernelKind::kSigmoid, false, 28, -0x1.01ca00e9182bap-5, 45},
  };
  for (const PinnedSolve& expected : pinned) {
    const auto data =
        pinned_data(50 + static_cast<std::uint64_t>(expected.kind));
    SvrTrainReport report;
    const auto model = SvrModel::train(
        data, pinned_params(expected.kind, expected.second_order), &report);
    const std::string_view name = kernel_kind_name(expected.kind);
    EXPECT_EQ(report.iterations, expected.iterations)
        << name << " wss2=" << expected.second_order;
    EXPECT_EQ(report.bias, expected.bias)
        << name << " wss2=" << expected.second_order << " bias "
        << std::hexfloat << report.bias;
    EXPECT_EQ(model.support_vector_count(), expected.support_vectors)
        << name << " wss2=" << expected.second_order;
  }
}

TEST(SvrWorkingSetTest, SecondOrderNeedsNoMoreIterations) {
  const auto data = sine_data(120, 22);
  SvrParams wss2;
  wss2.kernel.gamma = 4.0;
  wss2.c = 100.0;
  wss2.epsilon = 0.01;
  SvrParams wss1 = wss2;
  wss1.second_order_working_set = false;

  SvrTrainReport report2;
  SvrTrainReport report1;
  (void)SvrModel::train(data, wss2, &report2);
  (void)SvrModel::train(data, wss1, &report1);
  EXPECT_LE(report2.iterations, report1.iterations);
}

}  // namespace
}  // namespace vmtherm::ml
