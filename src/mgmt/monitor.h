// vmtherm/mgmt/monitor.h
//
// Fleet-monitoring vocabulary: a host's logical configuration and one row
// of a hotspot-risk scan. The monitor itself is serve::FleetEngine (one
// calibrated dynamic predictor per host, retargeted on VM churn); these
// plain-data types are shared by the serving engine, the control plane and
// the benchmark.

#pragma once

#include <cmath>
#include <string>
#include <vector>

#include "sim/server.h"
#include "sim/vm.h"

namespace vmtherm::mgmt {

/// A host's logical configuration as known to the monitor.
struct MonitoredConfig {
  sim::ServerSpec server;
  int fans = 4;
  std::vector<sim::VmConfig> vms;
  double env_temp_c = 23.0;

  /// Throws ConfigError unless the server is valid, 1 <= fans <=
  /// server.fan_slots, every VM is valid and env_temp_c is finite. An empty
  /// VM set (an idle host) is valid.
  void validate() const {
    server.validate();
    detail::require(fans >= 1 && fans <= server.fan_slots,
                    "fans must be in [1, server fan_slots]");
    for (const sim::VmConfig& vm : vms) vm.validate();
    detail::require(std::isfinite(env_temp_c),
                    "env temperature must be finite");
  }
};

/// One hotspot-risk row from serve::FleetEngine::hotspot_scan.
struct HotspotRisk {
  std::string host_id;
  double forecast_c = 0.0;   ///< predicted temperature at now + horizon
  bool at_risk = false;      ///< forecast >= threshold
};

}  // namespace vmtherm::mgmt
