// Tests for core/stable_predictor: the Eq. (2) training pipeline.

#include "core/stable_predictor.h"

#include <gtest/gtest.h>

#include <filesystem>

#include "core/evaluator.h"

namespace vmtherm::core {
namespace {

// A small, fast corpus shared across tests (static to build once).
const std::vector<Record>& small_corpus() {
  static const std::vector<Record> corpus = [] {
    sim::ScenarioRanges ranges;
    ranges.duration_s = 1200.0;
    ranges.sample_interval_s = 10.0;
    return generate_corpus(ranges, 60, /*seed=*/11);
  }();
  return corpus;
}

StableTrainOptions fast_options() {
  StableTrainOptions options;
  ml::SvrParams params;
  params.kernel.gamma = 1.0 / 16;
  params.c = 256.0;
  params.epsilon = 0.05;
  options.fixed_params = params;
  return options;
}

TEST(RecordsToDatasetTest, ShapesAndLabels) {
  const auto data = records_to_dataset(small_corpus());
  EXPECT_EQ(data.size(), small_corpus().size());
  EXPECT_EQ(data.dim(), kRecordFeatureCount);
  EXPECT_DOUBLE_EQ(data[0].y, small_corpus()[0].stable_temp_c);
}

TEST(StablePredictorTest, EmptyCorpusThrows) {
  EXPECT_THROW((void)StableTemperaturePredictor::train({}, fast_options()),
               DataError);
}

TEST(StablePredictorTest, TrainsAndFitsTrainingData) {
  StableTrainReport report;
  const auto predictor =
      StableTemperaturePredictor::train(small_corpus(), fast_options(),
                                        &report);
  EXPECT_EQ(report.training_records, small_corpus().size());
  EXPECT_EQ(report.grid_points_evaluated, 0u);  // fixed params: no search
  EXPECT_TRUE(report.final_fit.converged);

  double se = 0.0;
  for (const auto& r : small_corpus()) {
    const double e = predictor.predict(r) - r.stable_temp_c;
    se += e * e;
  }
  // In-sample fit should be tight (temperatures span tens of degrees).
  EXPECT_LT(se / static_cast<double>(small_corpus().size()), 2.0);
}

TEST(StablePredictorTest, GridSearchPathRuns) {
  StableTrainOptions options;
  options.grid.c_values = {8.0, 128.0};
  options.grid.gamma_values = {0.125, 1.0};
  options.grid.epsilon_values = {0.1};
  options.grid.folds = 4;
  StableTrainReport report;
  const auto predictor =
      StableTemperaturePredictor::train(small_corpus(), options, &report);
  EXPECT_EQ(report.grid_points_evaluated, 4u);
  EXPECT_GT(report.cv_mse, 0.0);
  // Chosen params come from the grid.
  EXPECT_TRUE(report.chosen_params.c == 8.0 || report.chosen_params.c == 128.0);
  (void)predictor;
}

TEST(StablePredictorTest, ReportsGridSmoIterations) {
  StableTrainOptions options;
  options.grid.c_values = {8.0, 128.0};
  options.grid.gamma_values = {0.125, 1.0};
  options.grid.epsilon_values = {0.1};
  options.grid.folds = 4;
  StableTrainReport serial;
  options.grid.threads = 1;
  (void)StableTemperaturePredictor::train(small_corpus(), options, &serial);
  StableTrainReport pooled;
  options.grid.threads = 4;
  (void)StableTemperaturePredictor::train(small_corpus(), options, &pooled);
  EXPECT_EQ(serial.grid_smo_iterations, pooled.grid_smo_iterations);
  // 2 gamma x 4 folds chains of two solves each, against one final fit.
  EXPECT_GT(serial.grid_smo_iterations, serial.final_fit.iterations);

  StableTrainReport fixed;
  (void)StableTemperaturePredictor::train(small_corpus(), fast_options(),
                                          &fixed);
  EXPECT_EQ(fixed.grid_smo_iterations, 0u);
}

TEST(StablePredictorTest, PredictsFromExplicitInputs) {
  const auto predictor =
      StableTemperaturePredictor::train(small_corpus(), fast_options());
  const auto server = sim::make_server_spec("medium");
  sim::VmConfig vm;
  vm.vcpus = 4;
  vm.memory_gb = 4.0;
  vm.task = sim::TaskType::kCpuBurn;

  const double few = predictor.predict(server, {vm, vm}, 4, 22.0);
  EXPECT_GT(few, 20.0);
  EXPECT_LT(few, 100.0);
}

TEST(StablePredictorTest, MoreLoadPredictsHotter) {
  const auto predictor =
      StableTemperaturePredictor::train(small_corpus(), fast_options());
  const auto server = sim::make_server_spec("medium");
  sim::VmConfig burn;
  burn.vcpus = 4;
  burn.memory_gb = 4.0;
  burn.task = sim::TaskType::kCpuBurn;
  sim::VmConfig idle = burn;
  idle.task = sim::TaskType::kIdle;

  const double hot =
      predictor.predict(server, {burn, burn, burn, burn}, 4, 22.0);
  const double cool =
      predictor.predict(server, {idle, idle, idle, idle}, 4, 22.0);
  EXPECT_GT(hot, cool + 3.0);
}

TEST(StablePredictorTest, HotterRoomPredictsHotter) {
  const auto predictor =
      StableTemperaturePredictor::train(small_corpus(), fast_options());
  const auto server = sim::make_server_spec("medium");
  sim::VmConfig vm;
  vm.vcpus = 4;
  vm.memory_gb = 4.0;
  vm.task = sim::TaskType::kBatch;
  const double cold_room = predictor.predict(server, {vm, vm}, 4, 18.0);
  const double hot_room = predictor.predict(server, {vm, vm}, 4, 30.0);
  EXPECT_GT(hot_room, cold_room + 3.0);
}

TEST(StablePredictorTest, SaveLoadRoundTrip) {
  const auto predictor =
      StableTemperaturePredictor::train(small_corpus(), fast_options());
  const auto path = (std::filesystem::temp_directory_path() /
                     "vmtherm_stable_predictor_test.model")
                        .string();
  predictor.save(path);
  const auto loaded = StableTemperaturePredictor::load(path);
  for (const auto& r : small_corpus()) {
    ASSERT_DOUBLE_EQ(loaded.predict(r), predictor.predict(r));
  }
  std::filesystem::remove(path);
}

TEST(StablePredictorTest, LoadMissingFileThrows) {
  EXPECT_THROW(
      (void)StableTemperaturePredictor::load("/nonexistent/predictor.model"),
      IoError);
}

}  // namespace
}  // namespace vmtherm::core
