// Tests for mgmt/planner: greedy predictive hotspot relief.

#include "mgmt/planner.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <optional>

#include "core/evaluator.h"
#include "util/rng.h"

namespace vmtherm::mgmt {
namespace {

const core::StableTemperaturePredictor& predictor() {
  static const core::StableTemperaturePredictor p = [] {
    sim::ScenarioRanges ranges;
    ranges.duration_s = 1200.0;
    ranges.sample_interval_s = 10.0;
    core::StableTrainOptions options;
    ml::SvrParams params;
    params.kernel.gamma = 1.0 / 32;
    params.c = 512.0;
    params.epsilon = 0.05;
    options.fixed_params = params;
    return core::StableTemperaturePredictor::train(
        core::generate_corpus(ranges, 150, 72), options);
  }();
  return p;
}

PlacedVm vm(const std::string& id, sim::TaskType task, int vcpus = 4,
            double mem = 4.0) {
  PlacedVm v;
  v.id = id;
  v.config.vcpus = vcpus;
  v.config.memory_gb = mem;
  v.config.task = task;
  return v;
}

/// One overloaded host plus two mostly idle ones.
std::vector<HostPlacement> unbalanced_fleet() {
  HostPlacement hot;
  hot.server = sim::make_server_spec("medium");
  hot.fans = 4;
  hot.vms = {vm("burn-0", sim::TaskType::kCpuBurn, 8),
             vm("burn-1", sim::TaskType::kCpuBurn, 8),
             vm("burn-2", sim::TaskType::kCpuBurn, 8),
             vm("web-0", sim::TaskType::kWebServer, 4)};

  HostPlacement idle_a;
  idle_a.server = sim::make_server_spec("medium");
  idle_a.fans = 4;
  idle_a.vms = {vm("idle-0", sim::TaskType::kIdle, 2)};

  HostPlacement idle_b;
  idle_b.server = sim::make_server_spec("large");
  idle_b.fans = 6;
  idle_b.vms = {vm("idle-1", sim::TaskType::kIdle, 2)};
  return {hot, idle_a, idle_b};
}

// The exhaustive planner that scores every (VM, destination) pair with the
// scalar predict() on copied placements: the oracle the pruned planner must
// reproduce bit for bit.
double predict_host(const core::StableTemperaturePredictor& predictor,
                    const HostPlacement& host, double env_c) {
  return predictor.predict(host.server, host.configs(), host.fans, env_c);
}

MigrationPlan reference_plan_migrations(
    const core::StableTemperaturePredictor& predictor,
    std::vector<HostPlacement> fleet, const PlannerOptions& options) {
  detail::require(!fleet.empty(), "migration planning needs hosts");
  detail::require(options.max_moves > 0, "max_moves must be positive");

  MigrationPlan plan;
  for (const auto& host : fleet) {
    plan.predicted_before_c.push_back(
        predict_host(predictor, host, options.env_temp_c));
  }

  std::vector<double> current = plan.predicted_before_c;

  while (plan.moves.size() < options.max_moves) {
    // Hottest host over target.
    std::size_t hot = 0;
    double hottest = -std::numeric_limits<double>::infinity();
    for (std::size_t h = 0; h < fleet.size(); ++h) {
      if (current[h] > hottest) {
        hottest = current[h];
        hot = h;
      }
    }
    if (hottest <= options.target_c) break;  // fleet is healthy
    if (fleet[hot].vms.empty()) break;       // nothing to move

    // Best (vm, destination): maximize the source's cooling while keeping
    // the destination below target - headroom.
    struct Candidate {
      std::size_t vm_index = 0;
      std::size_t dest = 0;
      double source_after = 0.0;
      double dest_after = 0.0;
      bool valid = false;
    };
    Candidate best;
    double best_source_after = std::numeric_limits<double>::infinity();

    for (std::size_t v = 0; v < fleet[hot].vms.size(); ++v) {
      // Source prediction without this VM.
      HostPlacement source_without = fleet[hot];
      source_without.vms.erase(source_without.vms.begin() +
                               static_cast<long>(v));
      const double source_after =
          predict_host(predictor, source_without, options.env_temp_c);

      for (std::size_t d = 0; d < fleet.size(); ++d) {
        if (d == hot) continue;
        if (!fleet[d].fits(fleet[hot].vms[v].config)) continue;
        HostPlacement dest_with = fleet[d];
        dest_with.vms.push_back(fleet[hot].vms[v]);
        const double dest_after =
            predict_host(predictor, dest_with, options.env_temp_c);
        if (dest_after > options.target_c - options.dest_headroom_c) continue;

        // Prefer the move that cools the source the most; among equals the
        // coolest destination.
        if (source_after < best_source_after - 1e-9 ||
            (std::abs(source_after - best_source_after) <= 1e-9 &&
             best.valid && dest_after < best.dest_after)) {
          best_source_after = source_after;
          best = Candidate{v, d, source_after, dest_after, true};
        }
      }
    }

    if (!best.valid) break;  // no feasible relieving move

    MigrationMove move;
    move.vm_id = fleet[hot].vms[best.vm_index].id;
    move.from_host = hot;
    move.to_host = best.dest;
    move.source_predicted_after_c = best.source_after;
    move.dest_predicted_after_c = best.dest_after;
    plan.moves.push_back(move);

    // Apply to the working copy.
    fleet[best.dest].vms.push_back(fleet[hot].vms[best.vm_index]);
    fleet[hot].vms.erase(fleet[hot].vms.begin() +
                         static_cast<long>(best.vm_index));
    current[hot] = best.source_after;
    current[best.dest] = best.dest_after;
  }

  plan.predicted_after_c = current;
  plan.target_met = true;
  for (double temp : current) {
    if (temp > options.target_c) plan.target_met = false;
  }
  return plan;
}

sim::VmConfig catalog_vm(Rng& rng) {
  static const int kVcpus[] = {1, 2, 4, 8};
  static const double kMemory[] = {2.0, 4.0, 8.0, 16.0};
  sim::VmConfig vm;
  vm.vcpus = kVcpus[rng.uniform_int(0, 3)];
  vm.memory_gb = kMemory[rng.uniform_int(0, 3)];
  vm.task = sim::all_task_types()[static_cast<std::size_t>(
      rng.uniform_int(0, static_cast<int>(sim::kTaskTypeCount) - 1))];
  return vm;
}

/// A hot host [twin, a, b, twin] whose two copies of its heaviest VM are
/// the best to move. Removing either copy leaves the same multiset summed
/// in another order, so their source-after predictions can differ by a few
/// ulps. The search returns the first host (in a seeded order) where they
/// do and the second copy's is the lower one, so the tie band decides the
/// pick: the scan keeps the first copy. Which hosts qualify depends on the
/// build's floating-point code generation, hence the search.
std::optional<HostPlacement> twin_vm_host() {
  Rng rng(17);
  const auto without = [](const HostPlacement& h, std::size_t v) {
    std::vector<sim::VmConfig> configs = h.configs();
    configs.erase(configs.begin() + static_cast<long>(v));
    return predictor().predict(h.server, configs, h.fans, 23.0);
  };
  for (int trial = 0; trial < 5000; ++trial) {
    sim::VmConfig twin = catalog_vm(rng);
    twin.vcpus = 8;
    twin.task = sim::TaskType::kCpuBurn;
    sim::VmConfig a = catalog_vm(rng);
    sim::VmConfig b = catalog_vm(rng);
    a.vcpus = std::min(a.vcpus, 4);
    b.vcpus = std::min(b.vcpus, 4);
    HostPlacement host;
    host.server = sim::make_server_spec("medium");
    host.fans = 1;
    host.vms = {{"twin-a", twin}, {"a", a}, {"b", b}, {"twin-b", twin}};
    const double first = without(host, 0);
    const double second = without(host, 3);
    if (second < first && first - second < 1e-12 && without(host, 1) > first &&
        without(host, 2) > first) {
      return host;
    }
  }
  return std::nullopt;
}

/// 64 hosts, 16 hot (one fan, many VMs, mostly CPU-bound) interleaved with
/// 48 cool ones whose memory is padded close to full, so many moves do not
/// fit. Host 0 is `twin_host`.
std::vector<HostPlacement> random_fleet(std::uint64_t seed,
                                        const HostPlacement& twin_host) {
  static const char* const kKinds[] = {"small", "medium", "large"};
  Rng rng(seed);
  std::vector<HostPlacement> fleet;
  int next_id = 0;
  const auto place = [&](HostPlacement& host, const sim::VmConfig& vm) {
    if (!host.fits(vm)) return false;
    host.vms.push_back({"vm-" + std::to_string(next_id++), vm});
    return true;
  };
  for (int h = 0; h < 64; ++h) {
    const bool hot = h % 4 == 0;
    HostPlacement host;
    host.server = sim::make_server_spec(kKinds[rng.uniform_int(0, 2)]);
    host.fans = hot ? 1 : rng.uniform_int(2, host.server.fan_slots);
    const int vms = hot ? rng.uniform_int(6, 10) : rng.uniform_int(1, 3);
    for (int v = 0; v < vms; ++v) {
      sim::VmConfig vm = catalog_vm(rng);
      if (hot && rng.bernoulli(0.6)) vm.task = sim::TaskType::kCpuBurn;
      place(host, vm);
    }
    if (!hot) {
      // Tight memory: pad with idle VMs until at most ~16 GB is free.
      const double keep_free = rng.uniform(0.0, 16.0);
      sim::VmConfig pad;
      pad.vcpus = 1;
      pad.task = sim::TaskType::kIdle;
      for (const double mem : {16.0, 8.0, 4.0, 2.0}) {
        pad.memory_gb = mem;
        while (host.server.memory_gb - host.used_memory_gb() - mem >=
                   keep_free &&
               place(host, pad)) {
        }
      }
    }
    fleet.push_back(std::move(host));
  }
  fleet[0] = twin_host;
  return fleet;
}

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

void expect_bitwise_equal(const MigrationPlan& want, const MigrationPlan& got) {
  ASSERT_EQ(want.moves.size(), got.moves.size());
  for (std::size_t i = 0; i < want.moves.size(); ++i) {
    const MigrationMove& a = want.moves[i];
    const MigrationMove& b = got.moves[i];
    EXPECT_EQ(a.vm_id, b.vm_id) << "move " << i;
    EXPECT_EQ(a.from_host, b.from_host) << "move " << i;
    EXPECT_EQ(a.to_host, b.to_host) << "move " << i;
    EXPECT_EQ(bits(a.source_predicted_after_c),
              bits(b.source_predicted_after_c)) << "move " << i;
    EXPECT_EQ(bits(a.dest_predicted_after_c), bits(b.dest_predicted_after_c))
        << "move " << i;
  }
  ASSERT_EQ(want.predicted_before_c.size(), got.predicted_before_c.size());
  ASSERT_EQ(want.predicted_after_c.size(), got.predicted_after_c.size());
  for (std::size_t h = 0; h < want.predicted_before_c.size(); ++h) {
    EXPECT_EQ(bits(want.predicted_before_c[h]), bits(got.predicted_before_c[h]))
        << "host " << h;
    EXPECT_EQ(bits(want.predicted_after_c[h]), bits(got.predicted_after_c[h]))
        << "host " << h;
  }
  EXPECT_EQ(want.target_met, got.target_met);
}

double quantile_of(std::vector<double> values, double q) {
  std::sort(values.begin(), values.end());
  return values[static_cast<std::size_t>(
      q * static_cast<double>(values.size() - 1))];
}

TEST(PlannerTest, MatchesReferencePlanner) {
  const std::optional<HostPlacement> twin_host = twin_vm_host();
  ASSERT_TRUE(twin_host.has_value());
  std::size_t moves = 0;
  std::size_t met = 0;
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    const std::vector<HostPlacement> fleet = random_fleet(seed, *twin_host);
    std::vector<double> before;
    for (const HostPlacement& host : fleet) {
      before.push_back(
          predictor().predict(host.server, host.configs(), host.fans, 23.0));
    }
    struct Case {
      double target_c;
      double headroom_c;
      std::size_t max_moves;
    };
    const Case cases[] = {
        {quantile_of(before, 0.9), 0.0, 32},  // target met
        {quantile_of(before, 0.75), 2.0, 16},
        {quantile_of(before, 0.25), 0.0, 16},  // moves, target never met
        {quantile_of(before, 0.0) - 5.0, 0.0, 8},  // unreachable
    };
    for (const Case& c : cases) {
      PlannerOptions options;
      options.target_c = c.target_c;
      options.dest_headroom_c = c.headroom_c;
      options.max_moves = c.max_moves;
      SCOPED_TRACE("seed " + std::to_string(seed) + " target " +
                   std::to_string(c.target_c));
      const MigrationPlan want =
          reference_plan_migrations(predictor(), fleet, options);
      const MigrationPlan got = plan_migrations(predictor(), fleet, options);
      expect_bitwise_equal(want, got);
      moves += got.moves.size();
      met += got.target_met ? 1 : 0;
    }
  }
  // The corpus exercises real plans, not only early exits.
  EXPECT_GT(moves, 100u);
  EXPECT_GT(met, 0u);
}

TEST(HostPlacementTest, MemoryAccounting) {
  const auto fleet = unbalanced_fleet();
  EXPECT_DOUBLE_EQ(fleet[0].used_memory_gb(), 16.0);
  sim::VmConfig big;
  big.vcpus = 2;
  big.memory_gb = 100.0;
  EXPECT_FALSE(fleet[0].fits(big));
  big.memory_gb = 16.0;
  EXPECT_TRUE(fleet[0].fits(big));
}

TEST(PlannerTest, EmptyFleetThrows) {
  EXPECT_THROW((void)plan_migrations(predictor(), {}, PlannerOptions{}),
               ConfigError);
}

// A NaN target used to fail both `hottest <= target` and `dest_after >
// target - headroom`: the planner made max_moves moves and reported
// target_met. Invalid options and hosts now throw before any prediction.
void expect_rejected(const std::vector<HostPlacement>& fleet,
                     const PlannerOptions& options) {
  EXPECT_THROW((void)plan_migrations(predictor(), fleet, options),
               ConfigError);
}

constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

TEST(PlannerTest, RejectsNonFiniteTarget) {
  for (const double bad : {kNan, kInf, -kInf}) {
    PlannerOptions options;
    options.target_c = bad;
    expect_rejected(unbalanced_fleet(), options);
  }
}

TEST(PlannerTest, RejectsNonFiniteEnvTemp) {
  for (const double bad : {kNan, kInf}) {
    PlannerOptions options;
    options.env_temp_c = bad;
    expect_rejected(unbalanced_fleet(), options);
  }
}

TEST(PlannerTest, RejectsBadHeadroom) {
  for (const double bad : {kNan, kInf, -0.5}) {
    PlannerOptions options;
    options.dest_headroom_c = bad;
    expect_rejected(unbalanced_fleet(), options);
  }
}

TEST(PlannerTest, RejectsZeroMoveBudget) {
  PlannerOptions options;
  options.max_moves = 0;
  expect_rejected(unbalanced_fleet(), options);
}

TEST(PlannerTest, RejectsInvalidServer) {
  auto fleet = unbalanced_fleet();
  fleet[1].server.physical_cores = 0;
  expect_rejected(fleet, PlannerOptions{});
}

TEST(PlannerTest, RejectsFansOutOfRange) {
  for (const int bad : {0, 7}) {  // medium has 6 fan slots
    auto fleet = unbalanced_fleet();
    fleet[1].fans = bad;
    expect_rejected(fleet, PlannerOptions{});
  }
}

TEST(PlannerTest, RejectsInvalidVm) {
  auto no_vcpus = unbalanced_fleet();
  no_vcpus[2].vms[0].config.vcpus = 0;
  expect_rejected(no_vcpus, PlannerOptions{});
  auto negative_memory = unbalanced_fleet();
  negative_memory[0].vms[3].config.memory_gb = -4.0;
  expect_rejected(negative_memory, PlannerOptions{});
}

TEST(PlannerTest, HealthyFleetNeedsNoMoves) {
  std::vector<HostPlacement> fleet = {unbalanced_fleet()[1],
                                      unbalanced_fleet()[2]};
  PlannerOptions options;
  options.target_c = 70.0;
  const auto plan = plan_migrations(predictor(), fleet, options);
  EXPECT_TRUE(plan.moves.empty());
  EXPECT_TRUE(plan.target_met);
}

TEST(PlannerTest, RelievesHotspot) {
  PlannerOptions options;
  options.target_c = 62.0;
  options.env_temp_c = 23.0;
  const auto plan = plan_migrations(predictor(), unbalanced_fleet(), options);

  ASSERT_FALSE(plan.moves.empty());
  EXPECT_GT(plan.predicted_before_c[0], options.target_c);
  // The hot host's prediction must have dropped.
  EXPECT_LT(plan.predicted_after_c[0], plan.predicted_before_c[0]);
  // Every move originates from the hot host here.
  for (const auto& move : plan.moves) {
    EXPECT_EQ(move.from_host, 0u);
    EXPECT_NE(move.to_host, 0u);
  }
}

TEST(PlannerTest, DestinationsStayUnderTarget) {
  PlannerOptions options;
  options.target_c = 62.0;
  options.dest_headroom_c = 2.0;
  const auto plan = plan_migrations(predictor(), unbalanced_fleet(), options);
  for (const auto& move : plan.moves) {
    EXPECT_LE(move.dest_predicted_after_c,
              options.target_c - options.dest_headroom_c + 1e-9);
  }
}

TEST(PlannerTest, RespectsMoveBudget) {
  PlannerOptions options;
  options.target_c = 40.0;  // unreachable: everything is over
  options.max_moves = 2;
  const auto plan = plan_migrations(predictor(), unbalanced_fleet(), options);
  EXPECT_LE(plan.moves.size(), 2u);
  EXPECT_FALSE(plan.target_met);
}

TEST(PlannerTest, DeterministicPlans) {
  PlannerOptions options;
  options.target_c = 62.0;
  const auto a = plan_migrations(predictor(), unbalanced_fleet(), options);
  const auto b = plan_migrations(predictor(), unbalanced_fleet(), options);
  ASSERT_EQ(a.moves.size(), b.moves.size());
  for (std::size_t i = 0; i < a.moves.size(); ++i) {
    EXPECT_EQ(a.moves[i].vm_id, b.moves[i].vm_id);
    EXPECT_EQ(a.moves[i].to_host, b.moves[i].to_host);
  }
}

TEST(PlannerTest, PlanVerifiesOnTestbed) {
  // Execute the plan on the simulator: the hot host's *measured* stable
  // temperature must drop by roughly the predicted amount.
  PlannerOptions options;
  options.target_c = 62.0;
  auto fleet = unbalanced_fleet();
  const auto plan = plan_migrations(predictor(), fleet, options);
  ASSERT_FALSE(plan.moves.empty());

  auto measure = [&](const HostPlacement& host) {
    sim::ExperimentConfig config;
    config.server = host.server;
    config.vms = host.configs();
    config.active_fans = host.fans;
    config.environment.base_c = options.env_temp_c;
    config.initial_temp_c = options.env_temp_c;
    config.duration_s = 1500.0;
    config.sample_interval_s = 10.0;
    config.seed = 5;
    return core::stable_temperature(sim::run_experiment(config).trace);
  };

  const double before = measure(fleet[0]);
  // Apply the plan.
  for (const auto& move : plan.moves) {
    auto& from = fleet[move.from_host];
    auto& to = fleet[move.to_host];
    for (auto it = from.vms.begin(); it != from.vms.end(); ++it) {
      if (it->id == move.vm_id) {
        to.vms.push_back(*it);
        from.vms.erase(it);
        break;
      }
    }
  }
  const double after = measure(fleet[0]);
  EXPECT_LT(after, before - 2.0);
  EXPECT_NEAR(after, plan.predicted_after_c[0], 5.0);
}

}  // namespace
}  // namespace vmtherm::mgmt
