// Tests for serve/engine: the sharded FleetEngine — registration, manual
// and pooled draining, backpressure, determinism across shard counts, and
// the concurrency protocol (this file is the TSan target for the serving
// layer; see `scripts/check_sanitizer.sh thread`).

#include "serve/engine.h"

#include <gtest/gtest.h>

#include <cmath>
#include <thread>
#include <utility>
#include <vector>

#include "core/dynamic_predictor.h"
#include "core/evaluator.h"
#include "sim/machine.h"

namespace vmtherm::serve {
namespace {

const core::StableTemperaturePredictor& shared_predictor() {
  static const core::StableTemperaturePredictor predictor = [] {
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
        core::generate_corpus(ranges, 80, 73), options);
  }();
  return predictor;
}

mgmt::MonitoredConfig busy_config() {
  mgmt::MonitoredConfig config;
  config.server = sim::make_server_spec("medium");
  config.fans = 4;
  sim::VmConfig burn;
  burn.vcpus = 8;
  burn.memory_gb = 8.0;
  burn.task = sim::TaskType::kCpuBurn;
  config.vms = {burn, burn};
  config.env_temp_c = 23.0;
  return config;
}

mgmt::MonitoredConfig idle_config() {
  mgmt::MonitoredConfig config = busy_config();
  sim::VmConfig idle;
  idle.vcpus = 2;
  idle.memory_gb = 4.0;
  idle.task = sim::TaskType::kIdle;
  config.vms = {idle};
  return config;
}

/// ψ_stable from the uncached predictor: what the engine's memoized
/// featurization must reproduce.
double stable_prediction(const mgmt::MonitoredConfig& config) {
  return shared_predictor().predict(config.server, config.vms, config.fans,
                                    config.env_temp_c);
}

FleetEngineOptions manual_options(std::size_t shards = 2) {
  FleetEngineOptions options;
  options.shards = shards;
  options.drain = DrainMode::kManual;
  options.backpressure = BackpressurePolicy::kDropNewest;
  return options;
}

TEST(FleetEngineTest, OptionsValidation) {
  FleetEngineOptions options;
  options.shards = 0;
  EXPECT_THROW(options.validate(), ConfigError);
  options = FleetEngineOptions{};
  options.queue_capacity = 0;
  EXPECT_THROW(options.validate(), ConfigError);
  // Blocking producers with nothing draining would deadlock.
  options = FleetEngineOptions{};
  options.drain = DrainMode::kManual;
  options.backpressure = BackpressurePolicy::kBlock;
  EXPECT_THROW(options.validate(), ConfigError);
}

TEST(FleetEngineTest, RegisterQueryUnregister) {
  FleetEngine engine(shared_predictor(), manual_options());
  const HostHandle h1 = engine.register_host("h1", busy_config(), 0.0, 23.0);
  EXPECT_TRUE(engine.has_host("h1"));
  EXPECT_EQ(engine.handle_of("h1"), h1);
  EXPECT_EQ(engine.host_count(), 1u);
  EXPECT_EQ(engine.config_of(h1).fans, 4);
  EXPECT_EQ(engine.metrics().gauge("fleet.hosts").value(), 1);

  EXPECT_THROW(engine.register_host("h1", busy_config(), 0.0, 23.0),
               ConfigError);
  EXPECT_THROW(engine.register_host("", busy_config(), 0.0, 23.0),
               ConfigError);
  EXPECT_THROW(engine.register_host("bad id", busy_config(), 0.0, 23.0),
               ConfigError);

  engine.unregister_host(h1);
  EXPECT_FALSE(engine.has_host("h1"));
  EXPECT_EQ(engine.handle_of("h1"), kInvalidHostHandle);
  EXPECT_THROW((void)engine.forecast(h1, 60.0), ConfigError);
  EXPECT_EQ(engine.metrics().gauge("fleet.hosts").value(), 0);
}

/// One invalid field per entry, each applied to an otherwise valid config.
std::vector<std::pair<const char*, mgmt::MonitoredConfig>> invalid_configs() {
  std::vector<std::pair<const char*, mgmt::MonitoredConfig>> out;
  mgmt::MonitoredConfig config = busy_config();
  config.fans = 0;
  out.emplace_back("fans-zero", config);
  config = busy_config();
  config.fans = 99;  // medium has 6 fan slots
  out.emplace_back("fans-above-slots", config);
  config = busy_config();
  config.vms[0].vcpus = 0;
  out.emplace_back("vm-zero-vcpus", config);
  config = busy_config();
  config.vms[1].memory_gb = -4.0;
  out.emplace_back("vm-negative-memory", config);
  config = busy_config();
  config.env_temp_c = std::nan("");
  out.emplace_back("env-nan", config);
  config = busy_config();
  config.server.physical_cores = 0;
  out.emplace_back("server-zero-cores", config);
  return out;
}

TEST(FleetEngineTest, RegisterRejectsInvalidConfigs) {
  FleetEngine engine(shared_predictor(), manual_options());
  for (const auto& [name, config] : invalid_configs()) {
    SCOPED_TRACE(name);
    EXPECT_THROW(engine.register_host("h1", config, 0.0, 23.0), ConfigError);
  }
  EXPECT_EQ(engine.host_count(), 0u);
  // An idle host (no VMs) is a valid configuration.
  mgmt::MonitoredConfig idle_host = busy_config();
  idle_host.vms.clear();
  (void)engine.register_host("h1", idle_host, 0.0, 23.0);
  EXPECT_EQ(engine.host_count(), 1u);
}

TEST(FleetEngineTest, InvalidConfigUpdateCountsErrorAndKeepsConfig) {
  for (const auto& [name, config] : invalid_configs()) {
    SCOPED_TRACE(name);
    FleetEngine engine(shared_predictor(), manual_options());
    const HostHandle h = engine.register_host("h1", busy_config(), 0.0, 23.0);
    engine.ingest(TelemetryEvent::update_config(h, 60.0, 30.0, config));
    engine.flush();
    EXPECT_EQ(engine.metrics().counter("apply.errors").value(), 1u);
    EXPECT_EQ(engine.metrics().counter("apply.config_update").value(), 0u);
    const mgmt::MonitoredConfig kept = engine.config_of(h);
    EXPECT_EQ(kept.fans, 4);
    ASSERT_EQ(kept.vms.size(), 2u);
    EXPECT_EQ(kept.vms[0].vcpus, 8);
    EXPECT_EQ(kept.vms[1].memory_gb, 8.0);
    EXPECT_EQ(kept.env_temp_c, 23.0);
    EXPECT_EQ(kept.server.physical_cores, busy_config().server.physical_cores);
  }
}

TEST(FleetEngineTest, ShardAssignmentIsStable) {
  FleetEngine a(shared_predictor(), manual_options(8));
  FleetEngine b(shared_predictor(), manual_options(8));
  for (const char* id : {"host-0001", "host-0002", "rack12/u7", "web-42"}) {
    EXPECT_EQ(a.shard_of(id), b.shard_of(id));
    EXPECT_LT(a.shard_of(id), 8u);
  }
}

TEST(FleetEngineTest, ManualDrainAppliesInOrder) {
  FleetEngine engine(shared_predictor(), manual_options());
  const HostHandle h = engine.register_host("h1", busy_config(), 0.0, 23.0);

  std::vector<TelemetryEvent> batch;
  for (double t = 15.0; t <= 90.0; t += 15.0) {
    batch.push_back(TelemetryEvent::observe(h, t, 30.0 + t * 0.1));
  }
  engine.ingest_batch(std::move(batch));
  // Nothing applied until flush in manual mode.
  EXPECT_EQ(engine.metrics().counter("apply.observe").value(), 0u);
  engine.flush();
  EXPECT_EQ(engine.metrics().counter("apply.observe").value(), 6u);
  EXPECT_EQ(engine.metrics().counter("ingest.events").value(), 6u);
  EXPECT_EQ(engine.metrics().counter("apply.errors").value(), 0u);
  EXPECT_GT(engine.forecast(h, 60.0), 23.0);
}

TEST(FleetEngineTest, ImportHostRejectsBadIdsLikeRegister) {
  FleetEngine engine(shared_predictor(), manual_options());
  engine.register_host("h1", busy_config(), 0.0, 23.0);
  HostSnapshot snapshot = engine.export_hosts().front();

  // Duplicate id.
  EXPECT_THROW(engine.import_host(snapshot), ConfigError);
  snapshot.host_id = "";
  EXPECT_THROW(engine.import_host(snapshot), ConfigError);
  snapshot.host_id = "bad id";
  EXPECT_THROW(engine.import_host(snapshot), ConfigError);
  EXPECT_EQ(engine.host_count(), 1u);
  EXPECT_EQ(engine.metrics().gauge("fleet.hosts").value(), 1);
}

TEST(FleetEngineTest, UnknownHandleQueriesThrow) {
  FleetEngine engine(shared_predictor(), manual_options());
  const HostHandle h = engine.register_host("h1", busy_config(), 0.0, 23.0);
  for (const HostHandle ghost : {h + 1, kInvalidHostHandle}) {
    EXPECT_THROW((void)engine.config_of(ghost), ConfigError);
    EXPECT_THROW((void)engine.forecast(ghost, 60.0), ConfigError);
    EXPECT_THROW(engine.unregister_host(ghost), ConfigError);
  }
  engine.unregister_host(h);
  EXPECT_THROW((void)engine.config_of(h), ConfigError);
  EXPECT_THROW(engine.unregister_host(h), ConfigError);
}

TEST(FleetEngineTest, MatchesMonitorServiceBitwise) {
  // Same event stream, same defaults: the sharded engine and a serial
  // reference built from the objects it wraps (one dynamic predictor, ψ
  // from the uncached stable predictor) must produce identical forecasts.
  FleetEngine engine(shared_predictor(), manual_options(3));
  core::DynamicTemperaturePredictor reference;
  const HostHandle h = engine.register_host("h1", busy_config(), 0.0, 23.0);
  reference.begin(0.0, 23.0, stable_prediction(busy_config()));

  for (double t = 15.0; t <= 300.0; t += 15.0) {
    const double measured = 30.0 + t * 0.08;
    engine.ingest(TelemetryEvent::observe(h, t, measured));
    reference.observe(t, measured);
  }
  engine.ingest(
      TelemetryEvent::update_config(h, 315.0, 52.0, idle_config()));
  reference.retarget(315.0, 52.0, stable_prediction(idle_config()));
  engine.flush();

  for (const double gap : {0.0, 30.0, 60.0, 600.0}) {
    EXPECT_EQ(engine.forecast(h, gap), reference.predict_ahead(gap));
  }
  EXPECT_EQ(engine.calibration_of(h), 0.0);  // retarget resets gamma
}

TEST(FleetEngineTest, ForecastRisesTowardStablePrediction) {
  FleetEngine engine(shared_predictor(), manual_options());
  const HostHandle h = engine.register_host("h1", busy_config(), 0.0, 23.0);
  const double near = engine.forecast(h, 30.0);
  const double far = engine.forecast(h, 590.0);
  EXPECT_GT(far, near);  // heating toward the stable target
  EXPECT_NEAR(far, stable_prediction(busy_config()), 6.0);
}

TEST(FleetEngineTest, ObservationsCalibrateForecasts) {
  FleetEngine engine(shared_predictor(), manual_options());
  const HostHandle h = engine.register_host("h1", busy_config(), 0.0, 23.0);
  // Feed measurements consistently 4 C above the model's own trajectory.
  for (double t = 15.0; t <= 300.0; t += 15.0) {
    const double model_now = engine.forecast(h, 0.0);
    engine.ingest(TelemetryEvent::observe(h, t, model_now + 4.0));
    engine.flush();
  }
  EXPECT_GT(engine.calibration_of(h), 0.0);
  // After many updates the forecast carries (most of) the offset.
  const double before_offset = engine.forecast(h, 0.0);
  engine.ingest(TelemetryEvent::observe(h, 315.0, before_offset));
  engine.flush();
  EXPECT_GT(engine.forecast(h, 0.0), before_offset - 1.0);
}

TEST(FleetEngineTest, UpdateConfigRetargets) {
  FleetEngine engine(shared_predictor(), manual_options());
  const HostHandle h = engine.register_host("h1", busy_config(), 0.0, 23.0);
  for (double t = 15.0; t <= 120.0; t += 15.0) {
    engine.ingest(TelemetryEvent::observe(h, t, 30.0 + t * 0.05));
  }
  engine.ingest(TelemetryEvent::update_config(h, 120.0, 36.0, idle_config()));
  engine.flush();
  EXPECT_EQ(engine.config_of(h).vms.size(), 1u);

  const double busy_stable = stable_prediction(busy_config());
  const double idle_stable = stable_prediction(idle_config());
  EXPECT_LT(idle_stable, busy_stable - 5.0);
  // Forecast now heads toward the idle stable prediction (consistency of
  // the retargeted curve, not absolute model accuracy).
  EXPECT_NEAR(engine.forecast(h, 590.0), idle_stable, 2.0);
  EXPECT_LT(engine.forecast(h, 590.0), busy_stable - 4.0);
}

TEST(FleetEngineTest, TracksLiveSimulatedMachine) {
  // End-to-end: the engine tracks a simulated machine within a tight MAE.
  FleetEngine engine(shared_predictor(), manual_options());
  sim::MachineOptions machine_options;
  machine_options.initial_temp_c = 23.0;
  sim::PhysicalMachine machine(sim::make_server_spec("medium"),
                               machine_options, Rng(3));
  sim::VmConfig burn;
  burn.vcpus = 8;
  burn.memory_gb = 8.0;
  burn.task = sim::TaskType::kCpuBurn;
  machine.add_vm(sim::Vm("b0", burn, Rng(4)));
  machine.add_vm(sim::Vm("b1", burn, Rng(5)));
  const HostHandle h = engine.register_host("m", busy_config(), 0.0, 23.0);

  double abs_err = 0.0;
  int n = 0;
  for (int step = 1; step <= 240; ++step) {
    const auto sample = machine.step(5.0, 23.0);
    abs_err += std::abs(engine.forecast(h, 0.0) - sample.cpu_temp_sensed_c);
    ++n;
    engine.ingest(TelemetryEvent::observe(h, sample.time_s,
                                          sample.cpu_temp_sensed_c));
    engine.flush();
  }
  EXPECT_LT(abs_err / n, 2.0);
}

// The fleet-monitor contract: register, query, reject duplicates,
// unregister and rank hotspot risk, checked on the engine as the library's
// one fleet monitor.

TEST(MonitorTest, RegisterAndQuery) {
  FleetEngine engine(shared_predictor(), manual_options());
  const HostHandle h = engine.register_host("h1", busy_config(), 0.0, 23.0);
  EXPECT_TRUE(engine.has_host("h1"));
  EXPECT_EQ(engine.host_count(), 1u);
  EXPECT_GT(engine.forecast(h, 590.0), 30.0);
  EXPECT_EQ(engine.config_of(h).fans, 4);
}

TEST(MonitorTest, DuplicateRegistrationThrows) {
  FleetEngine engine(shared_predictor(), manual_options());
  engine.register_host("h1", busy_config(), 0.0, 23.0);
  EXPECT_THROW(engine.register_host("h1", busy_config(), 0.0, 23.0),
               ConfigError);
  EXPECT_EQ(engine.host_count(), 1u);
}

TEST(MonitorTest, UnregisterRemoves) {
  FleetEngine engine(shared_predictor(), manual_options());
  const HostHandle h = engine.register_host("h1", busy_config(), 0.0, 23.0);
  engine.unregister_host(h);
  EXPECT_FALSE(engine.has_host("h1"));
  EXPECT_EQ(engine.host_count(), 0u);
}

TEST(MonitorTest, HotspotRisksSortedAndFlagged) {
  FleetEngine engine(shared_predictor(), manual_options());
  engine.register_host("hot", busy_config(), 0.0, 23.0);
  engine.register_host("cool", idle_config(), 0.0, 23.0);

  // Threshold midway between the two configs' ψ_stable, so the at_risk
  // split does not hang on the shared predictor's exact fit.
  const double threshold_c =
      (stable_prediction(busy_config()) + stable_prediction(idle_config())) /
      2.0;
  const auto risks = engine.hotspot_scan(590.0, threshold_c);
  ASSERT_EQ(risks.size(), 2u);
  EXPECT_EQ(risks[0].host_id, "hot");
  EXPECT_GE(risks[0].forecast_c, risks[1].forecast_c);
  EXPECT_TRUE(risks[0].at_risk);
  EXPECT_FALSE(risks[1].at_risk);
}

TEST(FleetEngineTest, BackpressureDropsNewestWhenFull) {
  FleetEngineOptions options = manual_options(1);
  options.queue_capacity = 2;
  FleetEngine engine(shared_predictor(), options);
  const HostHandle h = engine.register_host("h1", busy_config(), 0.0, 23.0);

  std::vector<TelemetryEvent> batch;
  for (double t = 1.0; t <= 5.0; t += 1.0) {
    batch.push_back(TelemetryEvent::observe(h, t, 30.0));
  }
  engine.ingest_batch(std::move(batch));
  EXPECT_EQ(engine.metrics().counter("ingest.events").value(), 2u);
  EXPECT_EQ(engine.metrics().counter("ingest.dropped").value(), 3u);
  engine.flush();
  EXPECT_EQ(engine.metrics().counter("apply.observe").value(), 2u);
}

TEST(FleetEngineTest, InvalidHandleRejectedUpFront) {
  FleetEngine engine(shared_predictor(), manual_options());
  EXPECT_THROW(engine.ingest(TelemetryEvent::observe(7, 1.0, 30.0)),
               ConfigError);
  EXPECT_THROW((void)engine.forecast_batch({ForecastRequest{7, 60.0}}),
               ConfigError);
  // The rejected batch enqueued nothing.
  EXPECT_EQ(engine.metrics().counter("ingest.events").value(), 0u);
}

TEST(FleetEngineTest, EventsToUnregisteredHostCountAsApplyErrors) {
  FleetEngine engine(shared_predictor(), manual_options());
  const HostHandle h = engine.register_host("h1", busy_config(), 0.0, 23.0);
  engine.ingest(TelemetryEvent::observe(h, 10.0, 30.0));
  engine.unregister_host(h);  // tombstones the slot; the event is queued
  engine.flush();
  EXPECT_EQ(engine.metrics().counter("apply.errors").value(), 1u);
  EXPECT_EQ(engine.metrics().counter("apply.observe").value(), 0u);
}

TEST(FleetEngineTest, MalformedEventsAreCountedNotThrown) {
  FleetEngine engine(shared_predictor(), manual_options());
  const HostHandle h = engine.register_host("h1", busy_config(), 0.0, 23.0);
  engine.ingest(TelemetryEvent::observe(h, 100.0, 30.0));
  engine.ingest(TelemetryEvent::observe(h, 50.0, 30.0));  // time reversal
  engine.flush();
  EXPECT_EQ(engine.metrics().counter("apply.observe").value(), 1u);
  EXPECT_EQ(engine.metrics().counter("apply.errors").value(), 1u);
  // The engine keeps serving.
  EXPECT_GT(engine.forecast(h, 60.0), 0.0);
}

TEST(FleetEngineTest, ForecastBatchReturnsInRequestOrder) {
  FleetEngine engine(shared_predictor(), manual_options(4));
  std::vector<HostHandle> handles;
  for (int i = 0; i < 6; ++i) {
    handles.push_back(engine.register_host("host-" + std::to_string(i),
                                           i % 2 == 0 ? busy_config()
                                                      : idle_config(),
                                           0.0, 23.0));
  }
  std::vector<ForecastRequest> requests;
  for (auto it = handles.rbegin(); it != handles.rend(); ++it) {
    requests.push_back(ForecastRequest{*it, 120.0});
  }
  const std::vector<double> batched = engine.forecast_batch(requests);
  ASSERT_EQ(batched.size(), requests.size());
  for (std::size_t i = 0; i < requests.size(); ++i) {
    EXPECT_EQ(batched[i], engine.forecast(requests[i].host, 120.0));
  }
}

TEST(FleetEngineTest, HotspotScanSortedAndDeterministic) {
  FleetEngine engine(shared_predictor(), manual_options(4));
  for (int i = 0; i < 8; ++i) {
    engine.register_host("host-" + std::to_string(i),
                         i < 4 ? busy_config() : idle_config(), 0.0, 23.0);
  }
  // Threshold between the two config classes' long-horizon forecasts, so
  // the at_risk split is robust to the shared predictor's exact fit.
  const double busy_c = engine.forecast(engine.handle_of("host-0"), 590.0);
  const double idle_c = engine.forecast(engine.handle_of("host-7"), 590.0);
  ASSERT_GT(busy_c, idle_c);
  const auto risks = engine.hotspot_scan(590.0, (busy_c + idle_c) / 2.0);
  ASSERT_EQ(risks.size(), 8u);
  for (std::size_t i = 1; i < risks.size(); ++i) {
    EXPECT_GE(risks[i - 1].forecast_c, risks[i].forecast_c);
  }
  EXPECT_TRUE(risks.front().at_risk);
  EXPECT_FALSE(risks.back().at_risk);
  EXPECT_EQ(engine.metrics().counter("hotspot.scans").value(), 1u);
}

TEST(FleetEngineTest, DeterministicAcrossShardAndThreadCounts) {
  // Same logical event stream at (1 shard, 1 thread), (2, 2) and (8, 4):
  // bitwise-identical forecasts and byte-identical deterministic metrics.
  struct Setup {
    std::size_t shards;
    std::size_t threads;
  };
  std::vector<std::vector<double>> forecasts;
  std::vector<std::string> metrics;
  for (const Setup& setup :
       {Setup{1, 1}, Setup{2, 2}, Setup{8, 4}}) {
    FleetEngineOptions options;
    options.shards = setup.shards;
    options.threads = setup.threads;
    FleetEngine engine(shared_predictor(), options);
    std::vector<HostHandle> handles;
    std::vector<ForecastRequest> requests;
    for (int i = 0; i < 10; ++i) {
      handles.push_back(engine.register_host(
          "host-" + std::to_string(i),
          i % 3 == 0 ? idle_config() : busy_config(), 0.0, 22.0 + i));
      requests.push_back(ForecastRequest{handles.back(), 60.0});
    }
    for (int step = 1; step <= 30; ++step) {
      std::vector<TelemetryEvent> batch;
      for (int i = 0; i < 10; ++i) {
        batch.push_back(TelemetryEvent::observe(
            handles[i], step * 15.0, 25.0 + i + 0.3 * step));
      }
      engine.ingest_batch(std::move(batch));
    }
    engine.flush();
    forecasts.push_back(engine.forecast_batch(requests));
    metrics.push_back(engine.metrics().to_json(/*include_timing=*/false));
  }
  EXPECT_EQ(forecasts[0], forecasts[1]);
  EXPECT_EQ(forecasts[0], forecasts[2]);
  EXPECT_EQ(metrics[0], metrics[1]);
  EXPECT_EQ(metrics[0], metrics[2]);
}

TEST(FleetEngineTest, ConcurrentProducersAndQueriesAreSafe) {
  // Multiple producer threads ingesting disjoint hosts while a reader
  // issues forecasts and scans: exercises the queue/drain/state protocol
  // under TSan. Small queues force the blocking-backpressure path too.
  FleetEngineOptions options;
  options.shards = 4;
  options.threads = 2;
  options.queue_capacity = 16;
  FleetEngine engine(shared_predictor(), options);

  constexpr int kProducers = 4;
  constexpr int kHostsPerProducer = 3;
  constexpr int kStepsPerHost = 50;
  std::vector<std::vector<HostHandle>> handles(kProducers);
  for (int p = 0; p < kProducers; ++p) {
    for (int i = 0; i < kHostsPerProducer; ++i) {
      std::string host_id = "p";
      host_id += std::to_string(p);
      host_id += "-h";
      host_id += std::to_string(i);
      handles[p].push_back(
          engine.register_host(host_id, busy_config(), 0.0, 23.0));
    }
  }

  std::vector<std::thread> producers;
  producers.reserve(kProducers);
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&engine, &handles, p] {
      for (int step = 1; step <= kStepsPerHost; ++step) {
        std::vector<TelemetryEvent> batch;
        for (const HostHandle h : handles[p]) {
          batch.push_back(
              TelemetryEvent::observe(h, step * 5.0, 30.0 + 0.1 * step));
        }
        engine.ingest_batch(std::move(batch));
      }
    });
  }
  std::thread reader([&engine, &handles] {
    for (int i = 0; i < 20; ++i) {
      (void)engine.forecast(handles[0][0], 60.0);
      (void)engine.hotspot_scan(60.0, 70.0);
    }
  });
  for (std::thread& producer : producers) producer.join();
  reader.join();
  engine.flush();

  constexpr auto kTotal = static_cast<std::uint64_t>(kProducers) *
                          kHostsPerProducer * kStepsPerHost;
  EXPECT_EQ(engine.metrics().counter("ingest.events").value(), kTotal);
  EXPECT_EQ(engine.metrics().counter("apply.observe").value(), kTotal);
  EXPECT_EQ(engine.metrics().counter("ingest.dropped").value(), 0u);
  // Per-host order held: no time-reversal apply errors.
  EXPECT_EQ(engine.metrics().counter("apply.errors").value(), 0u);
}

TEST(FleetEngineTest, DestructorDrainsPendingEvents) {
  FleetEngineOptions options;
  options.shards = 2;
  options.threads = 2;
  {
    FleetEngine engine(shared_predictor(), options);
    const HostHandle h = engine.register_host("h1", busy_config(), 0.0, 23.0);
    std::vector<TelemetryEvent> batch;
    for (int step = 1; step <= 200; ++step) {
      batch.push_back(TelemetryEvent::observe(h, step * 5.0, 30.0));
    }
    engine.ingest_batch(std::move(batch));
    // No flush: the destructor must drain without deadlock or loss.
  }
  SUCCEED();
}

}  // namespace
}  // namespace vmtherm::serve
