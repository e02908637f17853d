// vmtherm/mgmt/planner.h
//
// Predictive migration planning: given the fleet's current placements and
// the stable-temperature predictor, compute a small set of VM migrations
// that brings every host's *predicted* stable temperature under a target —
// hotspot mitigation before the hotspot exists, which is exactly the
// proactive thermal management the paper motivates.

#pragma once

#include <string>
#include <vector>

#include "core/stable_predictor.h"

namespace vmtherm::mgmt {

/// A named VM as the planner sees it.
struct PlacedVm {
  std::string id;
  sim::VmConfig config;
};

/// A host and its resident VMs.
struct HostPlacement {
  sim::ServerSpec server;
  int fans = 4;
  std::vector<PlacedVm> vms;

  double used_memory_gb() const noexcept;
  bool fits(const sim::VmConfig& vm) const noexcept;
  std::vector<sim::VmConfig> configs() const;
};

/// One recommended move.
struct MigrationMove {
  std::string vm_id;
  std::size_t from_host = 0;
  std::size_t to_host = 0;
  double source_predicted_after_c = 0.0;
  double dest_predicted_after_c = 0.0;
};

/// Plan output: the moves plus per-host predictions before/after.
struct MigrationPlan {
  std::vector<MigrationMove> moves;
  std::vector<double> predicted_before_c;
  std::vector<double> predicted_after_c;
  bool target_met = false;  ///< all hosts under target after the plan
};

/// Planner options.
struct PlannerOptions {
  double target_c = 70.0;       ///< per-host predicted ceiling
  double env_temp_c = 23.0;     ///< room temperature used for predictions
  std::size_t max_moves = 8;    ///< plan size budget
  /// A destination must stay at least this far below target after
  /// receiving a VM (hysteresis so the plan does not create new hotspots).
  double dest_headroom_c = 2.0;

  /// Throws ConfigError unless target_c and env_temp_c are finite,
  /// dest_headroom_c is finite and >= 0, and max_moves > 0.
  void validate() const;
};

/// Greedy hotspot-relief planner. Each iteration takes the hottest host
/// (first index among equals) and, if its prediction is over target, moves
/// one of its VMs; it stops at max_moves, when no host is over target, or
/// when no move is feasible.
///
/// Feasible: the VM fits the destination's free memory and the
/// destination's predicted temperature after receiving it (the VM appended
/// last) is not above target_c - dest_headroom_c.
///
/// Selection rule: scan the feasible (vm, destination) candidates with vm
/// ascending, then destination ascending, keeping a running best. A
/// candidate replaces it when its source-after prediction S (the hot host
/// without that VM) is below the best's S by more than 1e-9, or when S is
/// within 1e-9 of it and the destination ends up strictly cooler. So the
/// move that cools the source the most wins, ties within the 1e-9 band go
/// to the coolest destination, and remaining ties to the lowest VM and
/// host index. A NaN S is never chosen.
///
/// Cost per move: one prediction per resident VM of the hot host, plus one
/// per (VM, destination) pair only for the VMs that can still win: those
/// whose S is at most a chain of 1e-9 steps above the coolest-source VM
/// that has a feasible destination, and every cooler VM (which has none).
/// Destination predictions are memoized per host on the VM's shape
/// (vcpus, memory, task) and survive across moves for the hosts a move
/// leaves unchanged. The plan is the same as scoring every pair.
///
/// Deterministic. Throws ConfigError on an empty fleet, invalid options or
/// a host that fails MonitoredConfig::validate() (server, fans, VMs).
MigrationPlan plan_migrations(const core::StableTemperaturePredictor& predictor,
                              std::vector<HostPlacement> fleet,
                              const PlannerOptions& options = {});

}  // namespace vmtherm::mgmt
