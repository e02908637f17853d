// vmtherm/sim/multicore.h
//
// Per-core thermal extension. The paper models one CPU temperature per
// server; real dies have per-core sensors and per-core hotspots, and the
// paper's introduction frames single-core-single-task models as the state
// of the art it generalizes. This module refines the testbed to core
// granularity:
//
//   core_0 [C_core] --R_cs--+
//   core_1 [C_core] --R_cs--+--> [spreader+sink: C_sink] --R_sa(f)--> T_amb
//   ...                     |
//   core_{n-1} ------R_cs---+
//
// plus a lateral core-to-core coupling R_cc between ring neighbours (heat
// spreading through the die). VMs are pinned to cores; an unbalanced
// pinning produces per-core temperature spreads that a server-level model
// cannot see — quantified by the extension bench.

#pragma once

#include <vector>

#include "sim/server.h"
#include "sim/vm.h"
#include "util/rng.h"

namespace vmtherm::sim {

/// Parameters of the per-core RC network.
struct MultiCoreThermalParams {
  int cores = 16;
  double core_capacitance_j_per_k = 12.0;   ///< C_core (die is split)
  double core_to_sink_resistance = 0.9;     ///< R_cs per core [K/W]
  double core_to_core_resistance = 2.5;     ///< R_cc lateral [K/W]
  double sink_capacitance_j_per_k = 2200.0; ///< shared heatsink
  double sink_to_ambient_resistance = 0.10; ///< at reference_fans
  int reference_fans = 4;
  double fan_exponent = 0.65;

  void validate() const;

  double sink_to_ambient(int active_fans) const;
};

/// State + integrator for the per-core network.
class MultiCoreThermalNetwork {
 public:
  MultiCoreThermalNetwork(const MultiCoreThermalParams& params,
                          double initial_temp_c);

  /// Advances by dt seconds. `core_power_watts` holds the heat injected
  /// into each core this interval (size must equal cores; throws
  /// ConfigError otherwise).
  void step(double dt, const std::vector<double>& core_power_watts,
            double ambient_c, int active_fans);

  int cores() const noexcept { return params_.cores; }
  double core_temp_c(int core) const { return core_c_.at(static_cast<std::size_t>(core)); }
  double sink_temp_c() const noexcept { return sink_c_; }

  /// Hottest core temperature.
  double max_core_temp_c() const;
  /// Hottest minus coolest core (the per-core spread a server-level model
  /// cannot represent).
  double core_spread_c() const;

 private:
  MultiCoreThermalParams params_;
  std::vector<double> core_c_;
  double sink_c_;
};

/// A machine refined to core granularity: VMs are pinned to explicit cores.
class MultiCorePhysicalMachine {
 public:
  /// The power envelope is split evenly across cores: a core at utilization
  /// u draws (max-idle)/cores * u^exponent plus its share of idle power.
  MultiCorePhysicalMachine(ServerSpec spec, MultiCoreThermalParams thermal,
                           int active_fans, double initial_temp_c, Rng rng);

  /// Pins a VM to specific cores (one entry per vCPU; a core may appear
  /// multiple times / host multiple vCPUs — it saturates at 100%). Throws
  /// ConfigError on out-of-range cores or mismatched pin counts.
  void add_vm(Vm vm, std::vector<int> pinned_cores);

  /// Advances dt seconds; returns per-core utilization for inspection.
  const std::vector<double>& step(double dt, double ambient_c);

  const MultiCoreThermalNetwork& thermal() const noexcept { return thermal_; }
  const ServerSpec& spec() const noexcept { return spec_; }
  std::size_t vm_count() const noexcept { return vms_.size(); }

 private:
  struct PinnedVm {
    Vm vm;
    std::vector<int> cores;
  };

  ServerSpec spec_;
  int active_fans_;
  MultiCoreThermalNetwork thermal_;
  std::vector<PinnedVm> vms_;
  std::vector<double> core_util_;
};

}  // namespace vmtherm::sim
