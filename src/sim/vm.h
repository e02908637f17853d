// vmtherm/sim/vm.h
//
// Virtual machines: configuration (the per-VM part of ξ_VM in Eq. 2) and a
// running instance bound to a utilization generator.

#pragma once

#include <memory>
#include <string>

#include "sim/workload.h"
#include "util/error.h"
#include "util/rng.h"

namespace vmtherm::sim {

/// Static VM shape + deployed task. This is what a scheduler knows about a
/// VM before placing it, and what the prediction model receives.
struct VmConfig {
  int vcpus = 2;
  double memory_gb = 4.0;
  TaskType task = TaskType::kBatch;

  void validate() const {
    detail::require(vcpus >= 1, "vm vcpus must be >= 1");
    detail::require(memory_gb > 0.0, "vm memory must be positive");
  }
};

/// A running VM: config + live utilization process + identity.
///
/// Move-only (owns its utilization model). Migration moves the Vm object
/// between machines, preserving workload state — utilization does not reset
/// when a VM lands on a new host.
class Vm {
 public:
  /// Creates a VM running its task's utilization process, seeded from `rng`.
  Vm(std::string id, const VmConfig& config, Rng rng);

  /// Creates a VM driven by a caller-supplied utilization process (e.g. a
  /// ReplayUtilization over a recorded trace). Throws ConfigError on a null
  /// model.
  Vm(std::string id, const VmConfig& config,
     std::unique_ptr<UtilizationModel> model);

  Vm(Vm&&) noexcept = default;
  Vm& operator=(Vm&&) noexcept = default;
  Vm(const Vm&) = delete;
  Vm& operator=(const Vm&) = delete;

  const std::string& id() const noexcept { return id_; }
  const VmConfig& config() const noexcept { return config_; }

  /// Advances the workload by dt seconds; returns per-vCPU utilization in
  /// [0, 1].
  double step(double dt);

  /// Actively used memory in GB (config memory x task's activity factor).
  double active_memory_gb() const noexcept {
    return config_.memory_gb * task_type_memory_activity(config_.task);
  }

  /// Long-run mean per-vCPU utilization of the deployed task.
  double mean_utilization_demand() const noexcept {
    return model_->mean_utilization();
  }

 private:
  std::string id_;
  VmConfig config_;
  std::unique_ptr<UtilizationModel> model_;
};

}  // namespace vmtherm::sim
