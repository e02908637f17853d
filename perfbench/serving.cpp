// perfbench/serving.cpp
//
// The two serving workloads. Both drive one serve::FleetEngine from a
// single producer thread in a closed loop: a step's scrape batch is built,
// ingested and flushed, and only then does the next step (or the periodic
// forecast / control work) start.
//
//  * fleet_steady: a large fleet with fixed placements. Every host replays
//    a simulator trace from the setup pool, so every step is one observe
//    per host; every `every`-th step runs a fleet-wide forecast_batch and a
//    hotspot_scan.
//  * placement_churn: a smaller fleet whose VM sets change every step
//    (arrivals/departures as update_config events). Temperatures follow a
//    first-order lag toward the placement's physical steady state, with
//    sensor noise taken from the pool traces. Every `every`-th step runs a
//    forecast_batch and one control cycle: hotspot_scan -> plan_migrations
//    over the hot hosts plus the coolest hosts -> the moves ingested as
//    update_config events -> flush.
//
// Correctness: the forecast/scan digest of the measured run must equal an
// untimed replay of the same loop on a 1-shard manual-drain engine, the
// engine's counters must account for every ingested event, and every
// planned move must be feasible and reproduce its predicted temperatures.

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "bench.h"
#include "core/evaluator.h"
#include "core/record.h"
#include "mgmt/planner.h"
#include "serve/engine.h"
#include "sim/experiment.h"
#include "sim/thermal.h"
#include "util/hash.h"
#include "util/rng.h"

namespace vmtherm::bench {
namespace {

using serve::FleetEngine;
using serve::HostHandle;
using serve::TelemetryEvent;

constexpr double kIntervalS = 5.0;  ///< telemetry scrape interval
constexpr double kGapS = 60.0;      ///< forecast gap Δ_gap
constexpr double kRoomC = 23.0;     ///< placement_churn room temperature
/// Engine pool size; with the producer thread the process uses 4 threads.
constexpr std::size_t kEngineThreads = 3;
constexpr std::size_t kEngineShards = 3;
/// Spans one traced step may add per drain thread, as a share of the
/// global recorder's per-thread buffer (keeps trace.dropped at 0).
constexpr double kTraceBudgetShare = 0.6;
/// Engine accuracy window (observations per host): the fleet rolling MSE
/// is sampled once per window, so the samples cover disjoint windows.
constexpr std::size_t kAccuracyWindow = 128;
/// Events in one throughput sample: consecutive untraced steps are grouped
/// until they hold this many, so one sample takes about 2 ms or more on
/// both serving workloads (a placement_churn step alone is about 0.4 ms).
constexpr std::uint64_t kRateGroupEvents = 20000;

struct ServingParams {
  std::size_t hosts = 0;
  std::size_t pool_traces = 0;  ///< simulated running conditions
  std::size_t trace_samples = 720;  ///< samples per pool trace (1 h)
  std::size_t corpus_records = 0;
  std::size_t steps = 0;
  std::size_t every = 0;  ///< forecast / control period in steps
  std::uint64_t rate_group_events = kRateGroupEvents;
  double churn_share = 0.0;     ///< hosts with an update_config per step
  double scan_horizon_s = 0.0;
  std::size_t max_hot = 16;     ///< hot hosts handed to the planner
  std::size_t cool_pool = 48;   ///< coolest hosts handed to the planner
  std::size_t predict_probes = 32;  ///< scalar predicts timed per period
};

std::string host_id(std::size_t index) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "host-%05zu", index);
  return buf;
}

std::uint64_t mix(std::uint64_t digest, double value) {
  return util::fnv1a64_mix(digest, std::bit_cast<std::uint64_t>(value));
}

/// Everything set up before the first timed operation.
struct Setup {
  std::unique_ptr<core::StableTemperaturePredictor> predictor;
  std::vector<sim::ExperimentConfig> pool_configs;  ///< pool[i]'s inputs
  std::vector<sim::TemperatureTrace> pool;
  double corpus_s = 0.0;
  double trace_pool_s = 0.0;
  double fit_s = 0.0;

  /// Sample `step` of pool trace `trace`, played forward then backward so
  /// a host can replay it for any number of steps without a jump.
  const sim::TracePoint& point(std::size_t trace, std::size_t step) const {
    const std::size_t n = pool[trace].size();
    const std::size_t i = step % (2 * n - 2);
    return pool[trace][i < n ? i : 2 * n - 2 - i];
  }
};

Setup build_setup(const ServingParams& p, std::uint64_t seed) {
  Setup setup;
  {
    BenchSpan span("bench.corpus", "seed", static_cast<double>(seed));
    const auto start = Clock::now();
    const std::vector<core::Record> corpus =
        core::generate_corpus(sim::ScenarioRanges{}, p.corpus_records, seed);
    setup.corpus_s = seconds_since(start);

    BenchSpan fit_span("bench.setup_fit", "seed", static_cast<double>(seed));
    const auto fit_start = Clock::now();
    core::StableTrainOptions options;
    ml::SvrParams params;
    params.c = 512.0;
    params.kernel.gamma = 0.125;
    params.epsilon = 0.2;
    options.fixed_params = params;
    setup.predictor = std::make_unique<core::StableTemperaturePredictor>(
        core::StableTemperaturePredictor::train(corpus, options));
    setup.fit_s = seconds_since(fit_start);
  }
  {
    BenchSpan span("bench.trace_pool", "seed", static_cast<double>(seed));
    const auto start = Clock::now();
    sim::ScenarioRanges ranges;
    ranges.sample_interval_s = kIntervalS;
    ranges.duration_s = static_cast<double>(p.trace_samples) * kIntervalS;
    sim::ScenarioSampler sampler(ranges, seed ^ 0x9e3779b97f4a7c15ULL);
    setup.pool_configs = sampler.sample(p.pool_traces);
    for (const sim::ExperimentConfig& config : setup.pool_configs) {
      setup.pool.push_back(sim::run_experiment(config).trace);
    }
    setup.trace_pool_s = seconds_since(start);
  }
  return setup;
}

serve::FleetEngineOptions measured_engine_options() {
  serve::FleetEngineOptions options;
  options.shards = kEngineShards;
  options.threads = kEngineThreads;
  options.backpressure = serve::BackpressurePolicy::kBlock;
  options.accuracy_window = kAccuracyWindow;
  options.drain = serve::DrainMode::kAuto;
  return options;
}

/// Untimed reference engine: one shard drained by the caller.
serve::FleetEngineOptions replay_engine_options(std::size_t hosts) {
  serve::FleetEngineOptions options;
  options.shards = 1;
  options.threads = 1;
  options.drain = serve::DrainMode::kManual;
  options.backpressure = serve::BackpressurePolicy::kDropNewest;
  options.queue_capacity = 4 * hosts + 1024;  // never drops in a closed loop
  return options;
}

/// Per-run measurements of the closed loop.
struct Timings {
  std::vector<double> ingest_us;
  std::vector<double> flush_ms;
  std::vector<double> forecast_ms;
  std::vector<double> scan_ms;
  std::vector<double> control_ms;
  std::vector<double> plan_ms;
  std::vector<double> apply_ms;
  std::vector<double> predict_us;
  double phase_s = 0.0;  ///< ingest_batch through flush, summed
  std::uint64_t events = 0;
  /// Events per second, ingest_batch through flush, of each group of
  /// consecutive untraced steps holding rate_group_events events or more;
  /// traced steps apart, one sample each.
  std::vector<double> group_rate;
  std::vector<double> traced_rate;
  std::uint64_t group_events = 0;
  double group_s = 0.0;
  std::uint64_t plan_hosts = 0;
  std::uint64_t plan_moves = 0;
  std::uint64_t at_risk = 0;
  std::uint64_t resolved = 0;
  std::uint64_t cycles = 0;
  std::uint64_t planner_errors = 0;
  std::uint64_t bad_moves = 0;
  std::string first_bad_move;
  std::uint64_t scans = 0;
  std::uint64_t forecasts = 0;
  /// Fleet rolling MSE sampled once per accuracy window (untimed).
  bool sample_accuracy = true;
  double mse_sum = 0.0;
  std::uint64_t mse_samples = 0;
};

// ------------------------------------------------------------ fleet_steady --

/// Fixed placements: host h replays pool trace tmpl_[h] from phase_[h]
/// with a per-host sensor bias, so Eq. 5-6 calibration has real error to
/// learn. Hosts share the pool's running conditions, so ψ_stable lookups
/// at registration hit the per-shard cache after the first per template.
class SteadyFleet {
 public:
  SteadyFleet(const Setup& setup, const ServingParams& p, std::uint64_t seed)
      : setup_(setup), hosts_(p.hosts) {
    Rng rng(seed ^ 0x5bd1e995ULL);
    for (std::size_t h = 0; h < hosts_; ++h) {
      tmpl_.push_back(static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<int>(setup.pool.size()) - 1)));
      phase_.push_back(static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<int>(2 * p.trace_samples))));
      bias_.push_back(rng.normal(0.0, 1.0));
    }
  }

  std::size_t hosts() const { return hosts_; }

  double measured(std::size_t h, std::size_t step) const {
    return setup_.point(tmpl_[h], phase_[h] + step).cpu_temp_sensed_c +
           bias_[h];
  }

  std::vector<HostHandle> register_all(FleetEngine& engine) const {
    std::vector<HostHandle> handles;
    handles.reserve(hosts_);
    for (std::size_t h = 0; h < hosts_; ++h) {
      const sim::ExperimentConfig& c = setup_.pool_configs[tmpl_[h]];
      mgmt::MonitoredConfig config;
      config.server = c.server;
      config.fans = c.active_fans;
      config.vms = c.vms;
      config.env_temp_c = c.environment.base_c;
      handles.push_back(
          engine.register_host(host_id(h), std::move(config), 0.0,
                               measured(h, 0)));
    }
    return handles;
  }

  void build_step(std::size_t step, const std::vector<HostHandle>& handles,
                  std::vector<TelemetryEvent>& out) {
    const double t = static_cast<double>(step) * kIntervalS;
    for (std::size_t h = 0; h < hosts_; ++h) {
      out.push_back(TelemetryEvent::observe(handles[h], t, measured(h, step)));
    }
  }

  void periodic(std::size_t step, FleetEngine& engine,
                const core::StableTemperaturePredictor& predictor,
                const ServingParams& p, Timings& t, std::uint64_t& digest) {
    std::vector<mgmt::HotspotRisk> rows;
    {
      BenchSpan span("bench.hotspot_scan", "step", static_cast<double>(step));
      const auto start = Clock::now();
      rows = engine.hotspot_scan(p.scan_horizon_s, 70.0);
      t.scan_ms.push_back(seconds_since(start) * 1e3);
      ++t.scans;
    }
    for (const mgmt::HotspotRisk& row : rows) {
      digest = util::fnv1a64_mix(mix(digest, row.forecast_c),
                                 util::fnv1a64(row.host_id) ^ row.at_risk);
    }
    // Scalar ψ_stable predictions on the fleet's own running conditions.
    for (std::size_t i = 0; i < p.predict_probes; ++i) {
      const sim::ExperimentConfig& c =
          setup_.pool_configs[tmpl_[(step * 131 + i * 977) % hosts_]];
      const auto start = Clock::now();
      (void)predictor.predict(c.server, c.vms, c.active_fans,
                              c.environment.base_c);
      t.predict_us.push_back(seconds_since(start) * 1e6);
    }
  }

  /// Extra events a step's control work may ingest (trace budgeting).
  static constexpr std::size_t kControlEvents = 0;

 private:
  const Setup& setup_;
  std::size_t hosts_;
  std::vector<std::size_t> tmpl_;  ///< pool trace (and running condition)
  std::vector<std::size_t> phase_;
  std::vector<double> bias_;
};

// --------------------------------------------------------- placement_churn --

/// Physical steady state of a placement: the simulator's power envelope
/// and RC network at constant mean utilization.
struct ThermalTarget {
  double stable_c = 0.0;
  double tau_s = 1.0;
};

ThermalTarget thermal_target(const mgmt::HostPlacement& host) {
  const core::VmSetFeatures f = core::make_vm_set_features(host.configs());
  const sim::PowerEnvelope& power = host.server.power;
  const double u = std::clamp(
      f.demanded_cores / static_cast<double>(host.server.physical_cores), 0.0,
      1.0);
  const double watts = power.idle_watts +
                       (power.max_cpu_watts - power.idle_watts) *
                           std::pow(u, power.cpu_exponent) +
                       power.memory_watts_per_gb * f.active_memory_gb;
  const sim::ThermalNetwork network(host.server.thermal, kRoomC);
  return ThermalTarget{
      network.steady_state_die_c(watts, kRoomC, host.fans),
      network.slow_time_constant_s(host.fans)};
}

class ChurnFleet {
 public:
  ChurnFleet(const Setup& setup, const ServingParams& p, std::uint64_t seed)
      : setup_(setup), p_(p), rng_(seed ^ 0x2545f4914f6cdd1dULL) {
    static const char* const kKinds[] = {"small", "medium", "large"};
    for (std::size_t h = 0; h < p.hosts; ++h) {
      mgmt::HostPlacement host;
      host.server = sim::make_server_spec(kKinds[rng_.uniform_int(0, 2)]);
      host.fans = rng_.uniform_int(2, std::min(4, host.server.fan_slots));
      const int vms = rng_.uniform_int(3, 9);
      for (int v = 0; v < vms; ++v) {
        const sim::VmConfig vm = random_vm();
        if (host.fits(vm)) host.vms.push_back({next_vm_id(), vm});
      }
      hosts_.push_back(std::move(host));
      index_.emplace(host_id(h), h);
      HostTruth truth;
      truth.target = thermal_target(hosts_.back());
      truth.temp_c = truth.target.stable_c;
      truth.bias_c = rng_.normal(0.0, 1.0);
      truth.tmpl = static_cast<std::size_t>(
          rng_.uniform_int(0, static_cast<int>(setup.pool.size()) - 1));
      truth.phase = static_cast<std::size_t>(
          rng_.uniform_int(0, static_cast<int>(2 * p.trace_samples)));
      truth_.push_back(truth);
    }
    // Planner target: the fleet's initial 90th-percentile ψ_stable, so a
    // steady share of hosts is at risk whatever the seed.
    std::vector<double> psi;
    for (const mgmt::HostPlacement& host : hosts_) {
      psi.push_back(setup.predictor->predict(host.server, host.configs(),
                                             host.fans, kRoomC));
    }
    target_c_ = quantile(psi, 0.9);
  }

  std::size_t hosts() const { return hosts_.size(); }

  std::vector<HostHandle> register_all(FleetEngine& engine) const {
    std::vector<HostHandle> handles;
    handles.reserve(hosts_.size());
    for (std::size_t h = 0; h < hosts_.size(); ++h) {
      handles.push_back(engine.register_host(host_id(h), config_of(h), 0.0,
                                             measured(h, 0)));
    }
    return handles;
  }

  void build_step(std::size_t step, const std::vector<HostHandle>& handles,
                  std::vector<TelemetryEvent>& out) {
    const double t = static_cast<double>(step) * kIntervalS;
    for (std::size_t h = 0; h < hosts_.size(); ++h) {
      HostTruth& truth = truth_[h];
      truth.temp_c = truth.target.stable_c +
                     (truth.temp_c - truth.target.stable_c) *
                         std::exp(-kIntervalS / truth.target.tau_s);
      if (rng_.bernoulli(p_.churn_share)) {
        churn(h);
        out.push_back(TelemetryEvent::update_config(
            handles[h], t, measured(h, step), config_of(h)));
      } else {
        out.push_back(
            TelemetryEvent::observe(handles[h], t, measured(h, step)));
      }
    }
  }

  void periodic(std::size_t step, FleetEngine& engine,
                const core::StableTemperaturePredictor& predictor,
                const ServingParams& p, Timings& t, std::uint64_t& digest) {
    BenchSpan cycle_span("bench.control_cycle", "step",
                         static_cast<double>(step));
    const auto cycle_start = Clock::now();
    std::vector<mgmt::HotspotRisk> rows;
    {
      BenchSpan span("bench.hotspot_scan", "step", static_cast<double>(step));
      const auto start = Clock::now();
      rows = engine.hotspot_scan(p.scan_horizon_s, target_c_);
      t.scan_ms.push_back(seconds_since(start) * 1e3);
      ++t.scans;
    }
    // Candidates: the hottest at-risk hosts, then the coolest hosts.
    std::vector<std::size_t> candidates;
    for (const mgmt::HotspotRisk& row : rows) {
      if (!row.at_risk || candidates.size() == p.max_hot) break;
      candidates.push_back(index_.at(row.host_id));
    }
    const std::size_t hot_count = candidates.size();
    for (std::size_t i = rows.size(); i-- > 0;) {
      if (candidates.size() == hot_count + p.cool_pool || rows[i].at_risk) break;
      candidates.push_back(index_.at(rows[i].host_id));
    }
    std::vector<mgmt::HostPlacement> fleet;
    for (const std::size_t h : candidates) fleet.push_back(hosts_[h]);

    mgmt::MigrationPlan plan;
    bool planned = false;
    if (hot_count > 0) {
      mgmt::PlannerOptions options;
      options.target_c = target_c_;
      options.env_temp_c = kRoomC;
      BenchSpan span("bench.plan_migrations", "step",
                     static_cast<double>(step));
      const auto start = Clock::now();
      try {
        plan = mgmt::plan_migrations(predictor, fleet, options);
        planned = true;
      } catch (const Error&) {
        ++t.planner_errors;
      }
      t.plan_ms.push_back(seconds_since(start) * 1e3);
      t.plan_hosts += fleet.size();
      t.plan_moves += plan.moves.size();
    }
    {
      BenchSpan span("bench.apply_moves", "step", static_cast<double>(step));
      const auto start = Clock::now();
      std::vector<TelemetryEvent> events;
      const double now = static_cast<double>(step) * kIntervalS;
      for (const mgmt::MigrationMove& move : plan.moves) {
        const std::size_t from = candidates[move.from_host];
        const std::size_t to = candidates[move.to_host];
        auto& vms = hosts_[from].vms;
        const auto it =
            std::find_if(vms.begin(), vms.end(), [&](const mgmt::PlacedVm& vm) {
              return vm.id == move.vm_id;
            });
        if (it == vms.end()) continue;  // reported by the plan check
        hosts_[to].vms.push_back(*it);
        vms.erase(it);
        for (const std::size_t h : {from, to}) {
          truth_[h].target = thermal_target(hosts_[h]);
          events.push_back(TelemetryEvent::update_config(
              engine.handle_of(host_id(h)), now, measured(h, step),
              config_of(h)));
        }
      }
      t.events += events.size();
      engine.ingest_batch(std::move(events));
      engine.flush();
      t.apply_ms.push_back(seconds_since(start) * 1e3);
    }
    t.control_ms.push_back(seconds_since(cycle_start) * 1e3);
    ++t.cycles;
    for (const mgmt::HotspotRisk& row : rows) {
      digest = util::fnv1a64_mix(mix(digest, row.forecast_c),
                                 util::fnv1a64(row.host_id) ^ row.at_risk);
    }
    if (planned) check_plan(predictor, fleet, hot_count, plan, t);
    for (std::size_t i = 0; i < p.predict_probes; ++i) {
      const mgmt::HostPlacement& host =
          hosts_[(step * 131 + i * 977) % hosts_.size()];
      const auto start = Clock::now();
      (void)predictor.predict(host.server, host.configs(), host.fans, kRoomC);
      t.predict_us.push_back(seconds_since(start) * 1e6);
    }
  }

  /// Move-feasibility gate plus the resolved-hotspot tally. Replays the
  /// plan on a copy of the planner's input exactly as the planner applies
  /// it (erase from the source, append to the destination).
  void check_plan(const core::StableTemperaturePredictor& predictor,
                  std::vector<mgmt::HostPlacement> fleet, std::size_t hot_count,
                  const mgmt::MigrationPlan& plan, Timings& t) {
    for (const mgmt::MigrationMove& move : plan.moves) {
      auto& from = fleet[move.from_host].vms;
      const auto it =
          std::find_if(from.begin(), from.end(), [&](const mgmt::PlacedVm& vm) {
            return vm.id == move.vm_id;
          });
      std::string problem;
      if (it == from.end()) {
        problem = "names no VM on its source";
      } else if (!fleet[move.to_host].fits(it->config)) {
        problem = "overfills destination memory";
      } else {
        fleet[move.to_host].vms.push_back(*it);
        from.erase(it);
        const auto predict = [&](const mgmt::HostPlacement& h) {
          return predictor.predict(h.server, h.configs(), h.fans, kRoomC);
        };
        if (predict(fleet[move.from_host]) != move.source_predicted_after_c ||
            predict(fleet[move.to_host]) != move.dest_predicted_after_c) {
          problem = "does not reproduce its predicted_after values";
        }
      }
      if (!problem.empty()) {
        if (t.bad_moves++ == 0) t.first_bad_move = move.vm_id + " " + problem;
      }
    }
    for (std::size_t i = 0; i < hot_count; ++i) {
      if (plan.predicted_before_c[i] <= target_c_) continue;
      ++t.at_risk;
      if (plan.predicted_after_c[i] <= target_c_) ++t.resolved;
    }
  }

  /// Each cycle ingests at most two update_configs per move.
  static constexpr std::size_t kControlEvents = 16;

 private:
  struct HostTruth {
    ThermalTarget target;
    double temp_c = 0.0;
    double bias_c = 0.0;
    std::size_t tmpl = 0;
    std::size_t phase = 0;
  };

  sim::VmConfig random_vm() {
    static const int kVcpus[] = {1, 2, 4, 8};
    static const double kMemory[] = {2.0, 4.0, 8.0, 16.0};
    sim::VmConfig vm;
    vm.vcpus = kVcpus[rng_.uniform_int(0, 3)];
    vm.memory_gb = kMemory[rng_.uniform_int(0, 3)];
    vm.task = sim::all_task_types()[static_cast<std::size_t>(
        rng_.uniform_int(0, static_cast<int>(sim::kTaskTypeCount) - 1))];
    return vm;
  }

  std::string next_vm_id() { return "vm-" + std::to_string(vm_counter_++); }

  /// One VM arrival or departure on host h.
  void churn(std::size_t h) {
    mgmt::HostPlacement& host = hosts_[h];
    bool arrive = rng_.bernoulli(0.5);
    if (host.vms.size() <= 1) arrive = true;
    if (host.vms.size() >= 12) arrive = false;
    const sim::VmConfig vm = random_vm();
    if (arrive && host.fits(vm)) {
      host.vms.push_back({next_vm_id(), vm});
    } else if (!host.vms.empty()) {
      host.vms.erase(host.vms.begin() +
                     rng_.uniform_int(0, static_cast<int>(host.vms.size()) - 1));
    }
    truth_[h].target = thermal_target(host);
  }

  mgmt::MonitoredConfig config_of(std::size_t h) const {
    mgmt::MonitoredConfig config;
    config.server = hosts_[h].server;
    config.fans = hosts_[h].fans;
    config.vms = hosts_[h].configs();
    config.env_temp_c = kRoomC;
    return config;
  }

  /// Lagged physical temperature + host bias + simulator sensor noise.
  double measured(std::size_t h, std::size_t step) const {
    const HostTruth& truth = truth_[h];
    const sim::TracePoint& point = setup_.point(truth.tmpl, truth.phase + step);
    return truth.temp_c + truth.bias_c +
           (point.cpu_temp_sensed_c - point.cpu_temp_true_c);
  }

  const Setup& setup_;
  const ServingParams& p_;
  Rng rng_;
  std::vector<mgmt::HostPlacement> hosts_;
  std::vector<HostTruth> truth_;
  std::unordered_map<std::string, std::size_t> index_;
  std::uint64_t vm_counter_ = 0;
  double target_c_ = 0.0;
};

// ------------------------------------------------------------- the loop ---

/// How many periodic steps a traced run records: as many as fit the
/// recorder's per-thread buffers (a step's drains may all land on one
/// thread).
std::size_t traced_step_budget(const ServingParams& p,
                               std::size_t control_events) {
  const double spans_per_step =
      static_cast<double>(p.hosts) * (1.0 + 3.0 * p.churn_share) +
      3.0 * static_cast<double>(control_events) +
      static_cast<double>(p.hosts) / 128.0 + 64.0;
  const double budget =
      kTraceBudgetShare *
      static_cast<double>(obs::global_trace().capacity_per_thread());
  return std::max<std::size_t>(
      1, static_cast<std::size_t>(budget / spans_per_step));
}

/// Runs the closed loop and returns the forecast/scan digest.
template <class Fleet>
std::uint64_t run_loop(Fleet& fleet, FleetEngine& engine,
                       const std::vector<HostHandle>& handles,
                       const core::StableTemperaturePredictor& predictor,
                       const ServingParams& p, std::size_t traced_steps,
                       Timings& t) {
  std::vector<serve::ForecastRequest> requests;
  for (const HostHandle handle : handles) {
    requests.push_back(serve::ForecastRequest{handle, kGapS});
  }
  std::uint64_t digest = util::kFnv1a64Offset;
  std::vector<TelemetryEvent> batch;
  std::size_t traced = 0;
  const std::size_t trace_stride = std::max<std::size_t>(
      1, p.steps / p.every / std::max<std::size_t>(1, traced_steps));
  for (std::size_t step = 1; step <= p.steps; ++step) {
    const bool periodic = step % p.every == 0;
    // Traced steps are spread evenly over the periodic steps.
    const bool trace_step = periodic && traced < traced_steps &&
                            (step / p.every) % trace_stride == 0;
    if (trace_step) {
      obs::global_trace().set_enabled(true);
      ++traced;
    }
    {
      BenchSpan step_span("bench.step", "step", static_cast<double>(step));
      batch.clear();
      batch.reserve(fleet.hosts());
      fleet.build_step(step, handles, batch);
      const std::uint64_t n = batch.size();

      const auto start = Clock::now();
      {
        BenchSpan span("bench.ingest_batch", "step", static_cast<double>(step));
        engine.ingest_batch(std::move(batch));
      }
      const auto ingested = Clock::now();
      {
        BenchSpan span("bench.flush", "step", static_cast<double>(step));
        engine.flush();
      }
      const auto flushed = Clock::now();
      batch = {};
      const double ingest_s =
          std::chrono::duration<double>(ingested - start).count();
      const double step_s =
          std::chrono::duration<double>(flushed - start).count();
      t.ingest_us.push_back(ingest_s * 1e6);
      t.flush_ms.push_back((step_s - ingest_s) * 1e3);
      t.phase_s += step_s;
      t.events += n;
      if (trace_step) {
        t.traced_rate.push_back(static_cast<double>(n) / step_s);
      } else {
        t.group_events += n;
        t.group_s += step_s;
        if (t.group_events >= p.rate_group_events) {
          t.group_rate.push_back(static_cast<double>(t.group_events) /
                                 t.group_s);
          t.group_events = 0;
          t.group_s = 0.0;
        }
      }

      if (t.sample_accuracy && step % kAccuracyWindow == 0) {
        t.mse_sum += engine.accuracy_report().rolling_mse;
        ++t.mse_samples;
      }
      if (periodic) {
        {
          BenchSpan span("bench.forecast_batch", "step",
                         static_cast<double>(step));
          const auto f_start = Clock::now();
          const std::vector<double> forecasts = engine.forecast_batch(requests);
          t.forecast_ms.push_back(seconds_since(f_start) * 1e3);
          ++t.forecasts;
          for (const double f : forecasts) digest = mix(digest, f);
        }
        fleet.periodic(step, engine, predictor, p, t, digest);
      }
    }
    if (trace_step) obs::global_trace().set_enabled(false);
  }
  return digest;
}

template <class Fleet>
void run_serving(const Options& options, const ServingParams& p,
                 Report& report) {
  // Setup, repeated (see kSetupRepeats); each repeat builds everything
  // from scratch. The last repeat before the measured phase is the one the
  // run uses and the only one traced.
  std::vector<double> setup_s, corpus_s, pool_s, fit_s, register_s;
  std::unique_ptr<Setup> setup;
  std::unique_ptr<Fleet> fleet;
  std::unique_ptr<FleetEngine> engine;
  std::vector<HostHandle> handles;
  const auto set_up = [&](std::size_t r) {
    engine.reset();
    fleet.reset();
    setup.reset();
    if (r + 1 == kSetupRepeatsBefore && options.traced()) {
      obs::global_trace().set_enabled(true);
    }
    const auto start = Clock::now();
    {
      BenchSpan span("bench.setup", "repeat", static_cast<double>(r));
      setup = std::make_unique<Setup>(build_setup(p, options.seed));
      fleet = std::make_unique<Fleet>(*setup, p, options.seed);
      BenchSpan reg_span("bench.register", "repeat", static_cast<double>(r));
      const auto reg_start = Clock::now();
      engine = std::make_unique<FleetEngine>(*setup->predictor,
                                             measured_engine_options());
      handles = fleet->register_all(*engine);
      register_s.push_back(seconds_since(reg_start));
    }
    setup_s.push_back(seconds_since(start));
    obs::global_trace().set_enabled(false);
    corpus_s.push_back(setup->corpus_s);
    pool_s.push_back(setup->trace_pool_s);
    fit_s.push_back(setup->fit_s);
  };
  for (std::size_t r = 0; r < kSetupRepeatsBefore; ++r) set_up(r);

  Timings t;
  const std::size_t traced_steps =
      options.traced() ? traced_step_budget(p, Fleet::kControlEvents) : 0;
  const std::uint64_t digest =
      run_loop(*fleet, *engine, handles, *setup->predictor, p, traced_steps, t);
  const double rss_mb = peak_rss_mb();

  // Engine-side accounting.
  serve::MetricsRegistry& m = engine->metrics();
  const auto counter = [&](const char* name) {
    return m.counter(name).value();
  };
  const std::uint64_t ingested = counter("ingest.events");
  const std::uint64_t dropped = counter("ingest.dropped");
  const std::uint64_t observed = counter("apply.observe");
  const std::uint64_t configured = counter("apply.config_update");
  const std::uint64_t errors = counter("apply.errors");
  const std::uint64_t hits =
      m.counter("psi_cache.hits", serve::MetricKind::kTiming).value();
  const std::uint64_t misses =
      m.counter("psi_cache.misses", serve::MetricKind::kTiming).value();
  const double high_water = static_cast<double>(
      m.gauge("queue.high_water", serve::MetricKind::kTiming).value());
  const double forecast_mse =
      t.mse_samples ? t.mse_sum / static_cast<double>(t.mse_samples)
                    : engine->accuracy_report().rolling_mse;
  const std::size_t support_vectors =
      setup->predictor->model().support_vector_count();
  const std::uint64_t fleet_events = t.events;
  engine.reset();

  // Correctness: replay the same loop on the 1-shard manual-drain engine.
  std::uint64_t replay_digest = 0;
  std::uint64_t replay_dropped = 0;
  {
    Fleet replay_fleet(*setup, p, options.seed);
    FleetEngine replay(*setup->predictor, replay_engine_options(p.hosts));
    const std::vector<HostHandle> replay_handles =
        replay_fleet.register_all(replay);
    Timings unused;
    unused.sample_accuracy = false;
    replay_digest = run_loop(replay_fleet, replay, replay_handles,
                             *setup->predictor, p, 0, unused);
    replay_dropped = replay.metrics().counter("ingest.dropped").value();
  }
  char digests[96];
  std::snprintf(digests, sizeof digests, "measured %016llx replay %016llx",
                static_cast<unsigned long long>(digest),
                static_cast<unsigned long long>(replay_digest));
  for (std::size_t r = kSetupRepeatsBefore; r < kSetupRepeats; ++r) {
    set_up(r);
  }
  engine.reset();

  report.gate("forecast_digest",
              digest == replay_digest && replay_dropped == 0, digests);
  report.gate("event_accounting",
              ingested == fleet_events &&
                  observed + configured + errors == ingested && dropped == 0,
              "ingested " + std::to_string(ingested) + " of " +
                  std::to_string(fleet_events) + ", applied " +
                  std::to_string(observed + configured) + ", errors " +
                  std::to_string(errors) + ", dropped " +
                  std::to_string(dropped));
  report.gate("planned_moves", t.bad_moves == 0,
              t.bad_moves == 0 ? std::to_string(t.plan_moves) + " moves checked"
                               : t.first_bad_move);

  report.attempted(fleet_events + t.forecasts + t.scans + t.cycles);
  report.failed(dropped + errors + t.planner_errors);

  // End-to-end.
  report.metric("setup_s", quantile(setup_s, 0.5), "s");
  report.metric("peak_rss_mb", rss_mb, "MB");
  // Median over step groups of the group's events / (ingest_batch + flush)
  // time: CPU-steal bursts on a shared host stall whole steps, which moves
  // a whole-phase ratio by tens of percent between runs but not the
  // median. The whole-phase cost per event is serve.ns_per_event.
  report.metric("throughput_per_s", quantile(t.group_rate, 0.5), "1/s");
  // The periodic fleet-wide operation: the control cycle when there is one,
  // else the hotspot scan (a 10^4-host forecast_batch is well under 1 ms,
  // too short for a steady end-to-end median).
  report.metric("op_p50_ms",
                quantile(t.control_ms.empty() ? t.scan_ms : t.control_ms, 0.5),
                "ms");
  report.metric("model_mse", forecast_mse, "degC2");
  const double resolved_ratio =
      t.at_risk ? static_cast<double>(t.resolved) /
                      static_cast<double>(t.at_risk)
                : 0.0;
  report.named("events_per_s", quantile(t.group_rate, 0.5), "events/s");
  report.named("forecast_p50_ms", quantile(t.forecast_ms, 0.5), "ms");
  report.named("forecast_mse", forecast_mse, "degC2");
  if (t.control_ms.empty()) {
    report.named("scan_p50_ms", quantile(t.scan_ms, 0.5), "ms");
  } else {
    report.named("control_p50_ms", quantile(t.control_ms, 0.5), "ms");
    report.named("resolved_ratio", resolved_ratio, "ratio");
  }

  // Per-layer: serve.
  report.metric("serve.ingest_us_p50", quantile(t.ingest_us, 0.5), "us");
  report.metric("serve.flush_ms_p50", quantile(t.flush_ms, 0.5), "ms");
  report.metric("serve.ns_per_event",
                t.phase_s * 1e9 / static_cast<double>(t.events), "ns");
  report.metric("serve.queue_high_water", high_water, "count");
  report.metric("serve.psi_hit_ratio",
                hits + misses ? static_cast<double>(hits) /
                                    static_cast<double>(hits + misses)
                              : 0.0,
                "ratio");
  const auto count = [&](const char* name, std::uint64_t value) {
    report.metric(name, static_cast<double>(value), "count");
  };
  count("serve.psi_misses", misses);
  count("serve.observe_applied", observed);
  count("serve.config_applied", configured);
  count("serve.dropped", dropped);
  count("serve.apply_errors", errors);
  report.metric("serve.forecast_batch_ms_p50", quantile(t.forecast_ms, 0.5),
                "ms");
  report.metric("serve.forecast_batch_ms_p99", quantile(t.forecast_ms, 0.99),
                "ms");
  count("serve.forecast_samples", t.forecast_ms.size());
  report.metric("serve.scan_ms_p50", quantile(t.scan_ms, 0.5), "ms");
  report.metric("serve.scan_ms_p99", quantile(t.scan_ms, 0.99), "ms");
  count("serve.scan_samples", t.scan_ms.size());
  // Per-layer: ml, mgmt, setup.
  report.metric("ml.predict_us_p50", quantile(t.predict_us, 0.5), "us");
  count("ml.support_vectors", support_vectors);
  // mgmt only runs in control cycles (none on fleet_steady).
  if (t.cycles > 0) {
    report.metric("mgmt.plan_ms_p50", quantile(t.plan_ms, 0.5), "ms");
    report.metric("mgmt.plan_hosts",
                  t.plan_ms.empty() ? 0.0
                                    : static_cast<double>(t.plan_hosts) /
                                          static_cast<double>(t.plan_ms.size()),
                  "count");
    count("mgmt.plan_moves", t.plan_moves);
    report.metric("mgmt.apply_moves_ms", quantile(t.apply_ms, 0.5), "ms");
    count("mgmt.at_risk", t.at_risk);
    report.metric("mgmt.resolved_ratio", resolved_ratio, "ratio");
  }
  report.metric("sim.corpus_s", quantile(corpus_s, 0.5), "s");
  report.metric("sim.trace_pool_s", quantile(pool_s, 0.5), "s");
  report.metric("ml.setup_fit_s", quantile(fit_s, 0.5), "s");
  report.metric("serve.register_s", quantile(register_s, 0.5), "s");
  if (options.traced()) {
    report.metric("trace.throughput_per_s", quantile(t.traced_rate, 0.5),
                  "1/s");
  }
}

/// Sizes shared by both serving workloads; `steps_per_second` converts the
/// nominal run length into a fixed step count.
ServingParams serving_params(const Options& options, std::size_t every,
                             double steps_per_second) {
  ServingParams p;
  p.corpus_records = options.tiny ? 60 : 500;
  p.rate_group_events = options.tiny ? 1 : kRateGroupEvents;
  p.every = every;
  p.steps = std::max<std::size_t>(
      2 * every, static_cast<std::size_t>(
                     options.seconds * (options.tiny ? 20 : steps_per_second)));
  return p;
}

}  // namespace

void run_fleet_steady(const Options& options, Report& report) {
  ServingParams p = serving_params(options, 4, 500);
  p.hosts = options.tiny ? 200 : 10000;
  p.pool_traces = options.tiny ? 8 : 256;
  p.scan_horizon_s = 60.0;
  run_serving<SteadyFleet>(options, p, report);
}

void run_placement_churn(const Options& options, Report& report) {
  ServingParams p = serving_params(options, 5, 400);
  p.hosts = options.tiny ? 120 : 2000;
  p.pool_traces = options.tiny ? 4 : 128;
  p.churn_share = 0.05;
  p.scan_horizon_s = 300.0;
  p.cool_pool = options.tiny ? 16 : 48;
  run_serving<ChurnFleet>(options, p, report);
}

}  // namespace vmtherm::bench
