// Tests for ml/grid: the easygrid-equivalent hyper-parameter search.

#include "ml/grid.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <numbers>

#include "ml/cv.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace vmtherm::ml {
namespace {

Dataset wavy_data(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  Dataset data;
  for (std::size_t i = 0; i < n; ++i) {
    const double x = rng.uniform(-1.0, 1.0);
    data.add(
        Sample{{x}, std::sin(2.0 * std::numbers::pi * x) + rng.normal(0, 0.05)});
  }
  return data;
}

GridSpec small_grid() {
  GridSpec spec;
  spec.c_values = {1.0, 50.0};
  spec.gamma_values = {0.05, 5.0};
  spec.epsilon_values = {0.05};
  spec.folds = 4;
  return spec;
}

TEST(GridSearchTest, EvaluatesFullCartesianProduct) {
  const auto data = wavy_data(60, 1);
  const auto result = grid_search_svr(data, small_grid());
  EXPECT_EQ(result.evaluated.size(), 4u);  // 2 x 2 x 1
}

TEST(GridSearchTest, BestPointHasLowestCvMse) {
  const auto data = wavy_data(60, 2);
  const auto result = grid_search_svr(data, small_grid());
  for (const auto& point : result.evaluated) {
    EXPECT_GE(point.cv_mse, result.best_cv_mse);
  }
}

TEST(GridSearchTest, PrefersWigglyKernelForWigglyTarget) {
  // sin(2 pi x) needs a reasonably large gamma; gamma=0.05 underfits badly.
  const auto data = wavy_data(80, 3);
  const auto result = grid_search_svr(data, small_grid());
  EXPECT_DOUBLE_EQ(result.best_params.kernel.gamma, 5.0);
}

TEST(GridSearchTest, DeterministicGivenSeed) {
  const auto data = wavy_data(50, 4);
  const auto a = grid_search_svr(data, small_grid());
  const auto b = grid_search_svr(data, small_grid());
  EXPECT_DOUBLE_EQ(a.best_cv_mse, b.best_cv_mse);
  EXPECT_DOUBLE_EQ(a.best_params.c, b.best_params.c);
  EXPECT_DOUBLE_EQ(a.best_params.kernel.gamma, b.best_params.kernel.gamma);
}

TEST(GridSearchTest, WinningParamsTrainAccurateModel) {
  const auto data = wavy_data(80, 5);
  const auto result = grid_search_svr(data, small_grid());
  const auto model = SvrModel::train(data, result.best_params);
  double max_err = 0.0;
  for (double x = -0.8; x <= 0.8; x += 0.2) {
    max_err = std::max(
        max_err, std::abs(model.predict(std::vector<double>{x}) -
                          std::sin(2.0 * std::numbers::pi * x)));
  }
  EXPECT_LT(max_err, 0.35);
}

TEST(GridSearchTest, TooFewSamplesThrows) {
  const auto data = wavy_data(3, 6);
  EXPECT_THROW((void)grid_search_svr(data, small_grid()), DataError);
}

TEST(GridSearchTest, InvalidSpecThrows) {
  const auto data = wavy_data(30, 7);
  GridSpec spec = small_grid();
  spec.c_values.clear();
  EXPECT_THROW((void)grid_search_svr(data, spec), ConfigError);
  spec = small_grid();
  spec.folds = 1;
  EXPECT_THROW((void)grid_search_svr(data, spec), ConfigError);
  // C values are sorted into chains, so a bad one is rejected up front.
  for (const double bad_c : {-2.0, 0.0, std::nan("")}) {
    spec = small_grid();
    spec.c_values = {1.0, bad_c};
    EXPECT_THROW((void)grid_search_svr(data, spec), ConfigError);
  }
}

void expect_bitwise_equal(const GridSearchResult& a, const GridSearchResult& b) {
  EXPECT_EQ(a.best_cv_mse, b.best_cv_mse);
  EXPECT_EQ(a.best_params.c, b.best_params.c);
  EXPECT_EQ(a.best_params.kernel.gamma, b.best_params.kernel.gamma);
  EXPECT_EQ(a.best_params.epsilon, b.best_params.epsilon);
  EXPECT_EQ(a.smo_iterations, b.smo_iterations);
  ASSERT_EQ(a.evaluated.size(), b.evaluated.size());
  for (std::size_t i = 0; i < a.evaluated.size(); ++i) {
    EXPECT_EQ(a.evaluated[i].cv_mse, b.evaluated[i].cv_mse) << i;
    EXPECT_EQ(a.evaluated[i].params.c, b.evaluated[i].params.c) << i;
    EXPECT_EQ(a.evaluated[i].params.kernel.gamma,
              b.evaluated[i].params.kernel.gamma)
        << i;
    EXPECT_EQ(a.evaluated[i].params.epsilon, b.evaluated[i].params.epsilon)
        << i;
  }
}

TEST(GridSearchTest, ParallelBitwiseIdenticalToSerial) {
  const auto data = wavy_data(60, 9);
  GridSpec spec = small_grid();
  spec.epsilon_values = {0.05, 0.2};  // 2 x 2 x 2 = 8 points
  spec.threads = 1;
  const auto serial = grid_search_svr(data, spec);
  for (const std::size_t threads : {std::size_t{2}, std::size_t{8}}) {
    spec.threads = threads;
    const auto parallel = grid_search_svr(data, spec);
    expect_bitwise_equal(serial, parallel);
  }
}

TEST(GridSearchTest, SharedExternalPoolMatchesSerial) {
  const auto data = wavy_data(50, 10);
  GridSpec spec = small_grid();
  const auto serial = grid_search_svr(data, spec);
  util::ThreadPool pool(3);
  const auto pooled = grid_search_svr(data, spec, &pool);
  expect_bitwise_equal(serial, pooled);
}

TEST(GridSearchTest, MatchesPerPointFoldMaterializationReference) {
  // Reference for the chain definition: for each (gamma, epsilon, fold),
  // re-materialize the fold's subsets and solve the ascending C values on
  // one warm-started SvrModel::train_c_path; each point's cv_mse is its
  // per-fold squared errors reduced in fold order. The search must give
  // the exact same GridSearchResult.
  const auto data = wavy_data(48, 11);
  const GridSpec spec = small_grid();  // c_values already ascending
  const auto result = grid_search_svr(data, spec);

  Rng fold_rng(spec.seed);
  const auto folds = make_folds(data.size(), spec.folds, fold_rng);
  const std::size_t n_c = spec.c_values.size();
  const std::size_t n_gamma = spec.gamma_values.size();
  const std::size_t n_eps = spec.epsilon_values.size();
  // fold_sq[((c * n_gamma + gamma) * n_eps + eps) * folds + fold]
  std::vector<double> fold_sq(n_c * n_gamma * n_eps * folds.size(), 0.0);
  for (std::size_t g = 0; g < n_gamma; ++g) {
    for (std::size_t e = 0; e < n_eps; ++e) {
      SvrParams params;
      params.kernel.kind = spec.kernel;
      params.kernel.gamma = spec.gamma_values[g];
      params.epsilon = spec.epsilon_values[e];
      for (std::size_t f = 0; f < folds.size(); ++f) {
        const Dataset train = data.subset(folds[f].train);
        const Dataset validation = data.subset(folds[f].validation);
        const auto models =
            SvrModel::train_c_path(train, params, spec.c_values);
        ASSERT_EQ(models.size(), n_c);
        for (std::size_t m = 0; m < n_c; ++m) {
          double squared_error = 0.0;
          for (const auto& s : validation.samples()) {
            const double err = models[m].predict(s.x) - s.y;
            squared_error += err * err;
          }
          fold_sq[((m * n_gamma + g) * n_eps + e) * folds.size() + f] =
              squared_error;
        }
      }
    }
  }

  std::size_t idx = 0;
  double best_cv_mse = std::numeric_limits<double>::infinity();
  SvrParams best_params;
  for (std::size_t m = 0; m < n_c; ++m) {
    for (std::size_t g = 0; g < n_gamma; ++g) {
      for (std::size_t e = 0; e < n_eps; ++e) {
        double squared_error = 0.0;
        for (std::size_t f = 0; f < folds.size(); ++f) {
          squared_error +=
              fold_sq[((m * n_gamma + g) * n_eps + e) * folds.size() + f];
        }
        const double cv_mse = squared_error / static_cast<double>(data.size());
        SvrParams params;
        params.kernel.kind = spec.kernel;
        params.kernel.gamma = spec.gamma_values[g];
        params.c = spec.c_values[m];
        params.epsilon = spec.epsilon_values[e];
        ASSERT_LT(idx, result.evaluated.size());
        EXPECT_EQ(result.evaluated[idx].cv_mse, cv_mse) << idx;
        EXPECT_EQ(result.evaluated[idx].params.c, params.c) << idx;
        EXPECT_EQ(result.evaluated[idx].params.kernel.gamma,
                  params.kernel.gamma)
            << idx;
        EXPECT_EQ(result.evaluated[idx].params.epsilon, params.epsilon)
            << idx;
        if (cv_mse < best_cv_mse) {
          best_cv_mse = cv_mse;
          best_params = params;
        }
        ++idx;
      }
    }
  }
  EXPECT_EQ(result.evaluated.size(), idx);
  EXPECT_EQ(result.best_cv_mse, best_cv_mse);
  EXPECT_EQ(result.best_params.c, best_params.c);
  EXPECT_EQ(result.best_params.kernel.gamma, best_params.kernel.gamma);
  EXPECT_EQ(result.best_params.epsilon, best_params.epsilon);
}

TEST(GridSearchTest, WarmChainsAgreeWithColdFits) {
  // A warm-started C chain stops at a different point inside the SMO
  // tolerance than a cold fit at the same C, so cv_mse moves slightly: on
  // these near-noise-floor fits (cv_mse down to 2.3e-3) by at most 0.54 %
  // relative, on the paper-scale corpus in the 4th-5th significant digit.
  // kRelBound leaves a 3.7x margin; the search must pick the same point.
  constexpr double kRelBound = 2e-2;
  const auto data = wavy_data(60, 12);
  GridSpec spec;  // the paper's 7 C values
  spec.gamma_values = {0.5, 4.0};
  spec.epsilon_values = {0.05, 0.2};
  spec.folds = 4;
  const auto result = grid_search_svr(data, spec);

  Rng fold_rng(spec.seed);
  const auto folds = make_folds(data.size(), spec.folds, fold_rng);
  double best_cv_mse = std::numeric_limits<double>::infinity();
  SvrParams best_params;
  std::size_t idx = 0;
  for (double c : spec.c_values) {
    for (double gamma : spec.gamma_values) {
      for (double eps : spec.epsilon_values) {
        SvrParams params;
        params.kernel.gamma = gamma;
        params.c = c;
        params.epsilon = eps;
        double squared_error = 0.0;
        for (const auto& f : folds) {
          const SvrModel model = SvrModel::train(data.subset(f.train), params);
          const Dataset validation = data.subset(f.validation);
          for (const auto& s : validation.samples()) {
            const double err = model.predict(s.x) - s.y;
            squared_error += err * err;
          }
        }
        const double cold = squared_error / static_cast<double>(data.size());
        ASSERT_LT(idx, result.evaluated.size());
        EXPECT_NEAR(result.evaluated[idx].cv_mse, cold, kRelBound * cold)
            << "C=" << c << " gamma=" << gamma << " eps=" << eps;
        if (cold < best_cv_mse) {
          best_cv_mse = cold;
          best_params = params;
        }
        ++idx;
      }
    }
  }
  EXPECT_EQ(result.best_params.c, best_params.c);
  EXPECT_EQ(result.best_params.kernel.gamma, best_params.kernel.gamma);
  EXPECT_EQ(result.best_params.epsilon, best_params.epsilon);
}

TEST(GridSearchTest, UnsortedAndDuplicatedCValues) {
  // The chains solve the distinct C values in ascending order whatever the
  // spec's order; `evaluated` still follows the spec's C-outer order, and
  // a repeated C reads the same chain slot.
  const auto data = wavy_data(48, 13);
  GridSpec sorted = small_grid();
  sorted.c_values = {1.0, 8.0, 50.0};
  GridSpec shuffled = sorted;
  shuffled.c_values = {50.0, 1.0, 8.0, 1.0};
  const auto a = grid_search_svr(data, sorted);
  const auto b = grid_search_svr(data, shuffled);

  const std::size_t per_c =
      sorted.gamma_values.size() * sorted.epsilon_values.size();
  ASSERT_EQ(b.evaluated.size(), shuffled.c_values.size() * per_c);
  const std::size_t sorted_pos[] = {2, 0, 1, 0};  // shuffled C -> sorted C
  for (std::size_t ci = 0; ci < shuffled.c_values.size(); ++ci) {
    for (std::size_t k = 0; k < per_c; ++k) {
      const GridPoint& got = b.evaluated[ci * per_c + k];
      const GridPoint& want = a.evaluated[sorted_pos[ci] * per_c + k];
      EXPECT_EQ(got.params.c, shuffled.c_values[ci]);
      EXPECT_EQ(got.params.kernel.gamma, want.params.kernel.gamma);
      EXPECT_EQ(got.params.epsilon, want.params.epsilon);
      EXPECT_EQ(got.cv_mse, want.cv_mse) << "C=" << got.params.c;
    }
  }
  for (std::size_t k = 0; k < per_c; ++k) {
    EXPECT_EQ(b.evaluated[1 * per_c + k].cv_mse,
              b.evaluated[3 * per_c + k].cv_mse);
  }
  EXPECT_EQ(a.best_cv_mse, b.best_cv_mse);
  EXPECT_EQ(a.best_params.c, b.best_params.c);
}

TEST(GridSearchTest, TiesBreakTowardLowestGridIndex) {
  // A constant-zero target inside the epsilon tube: every grid point fits
  // perfectly, so all cv_mse values tie and the first grid point (in
  // canonical C-outer order) must win — at any thread count.
  Dataset data;
  for (int i = 0; i < 40; ++i) {
    data.add(Sample{{static_cast<double>(i) / 40.0}, 0.0});
  }
  GridSpec spec;
  spec.c_values = {1.0, 4.0, 16.0};
  spec.gamma_values = {0.25, 1.0};
  spec.epsilon_values = {0.1, 0.3};
  spec.folds = 4;
  for (const std::size_t threads : {std::size_t{1}, std::size_t{8}}) {
    spec.threads = threads;
    const auto result = grid_search_svr(data, spec);
    for (const auto& point : result.evaluated) {
      ASSERT_EQ(point.cv_mse, result.best_cv_mse);  // all tied
    }
    EXPECT_EQ(result.best_params.c, spec.c_values[0]);
    EXPECT_EQ(result.best_params.kernel.gamma, spec.gamma_values[0]);
    EXPECT_EQ(result.best_params.epsilon, spec.epsilon_values[0]);
  }
}

TEST(GridSearchTest, DefaultSpecIsUsableOnSmallData) {
  GridSpec spec;  // defaults: 6 x 5 x 2 grid, 10 folds
  spec.folds = 3;  // keep the test fast
  const auto data = wavy_data(40, 8);
  const auto result = grid_search_svr(data, spec);
  EXPECT_EQ(result.evaluated.size(),
            spec.c_values.size() * spec.gamma_values.size() *
                spec.epsilon_values.size());
  EXPECT_TRUE(std::isfinite(result.best_cv_mse));
}

}  // namespace
}  // namespace vmtherm::ml
