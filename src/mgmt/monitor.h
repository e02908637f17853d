// vmtherm/mgmt/monitor.h
//
// Fleet-monitoring vocabulary: a host's logical configuration and one row
// of a hotspot-risk scan. The monitor itself is serve::FleetEngine (one
// calibrated dynamic predictor per host, retargeted on VM churn); these
// plain-data types are shared by the serving engine, the control plane and
// the benchmark.

#pragma once

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
};

/// One hotspot-risk row from serve::FleetEngine::hotspot_scan.
struct HotspotRisk {
  std::string host_id;
  double forecast_c = 0.0;   ///< predicted temperature at now + horizon
  bool at_risk = false;      ///< forecast >= threshold
};

}  // namespace vmtherm::mgmt
