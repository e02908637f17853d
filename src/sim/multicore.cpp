#include "sim/multicore.h"

#include <algorithm>
#include <cmath>

namespace vmtherm::sim {

void MultiCoreThermalParams::validate() const {
  detail::require(cores >= 1, "multicore: cores must be >= 1");
  detail::require(core_capacitance_j_per_k > 0.0, "multicore: C_core > 0");
  detail::require(core_to_sink_resistance > 0.0, "multicore: R_cs > 0");
  detail::require(core_to_core_resistance > 0.0, "multicore: R_cc > 0");
  detail::require(sink_capacitance_j_per_k > 0.0, "multicore: C_sink > 0");
  detail::require(sink_to_ambient_resistance > 0.0, "multicore: R_sa > 0");
  detail::require(reference_fans >= 1, "multicore: reference_fans >= 1");
  detail::require(fan_exponent > 0.0 && fan_exponent <= 2.0,
                  "multicore: fan exponent in (0, 2]");
}

double MultiCoreThermalParams::sink_to_ambient(int active_fans) const {
  detail::require(active_fans >= 1, "multicore: active_fans >= 1");
  const double ratio =
      static_cast<double>(reference_fans) / static_cast<double>(active_fans);
  return sink_to_ambient_resistance * std::pow(ratio, fan_exponent);
}

MultiCoreThermalNetwork::MultiCoreThermalNetwork(
    const MultiCoreThermalParams& params, double initial_temp_c)
    : params_(params),
      core_c_(static_cast<std::size_t>(params.cores), initial_temp_c),
      sink_c_(initial_temp_c) {
  params_.validate();
}

void MultiCoreThermalNetwork::step(double dt,
                                   const std::vector<double>& core_power_watts,
                                   double ambient_c, int active_fans) {
  detail::require(core_power_watts.size() == core_c_.size(),
                  "multicore: power vector size mismatch");
  if (dt <= 0.0) return;
  active_fans = std::max(1, active_fans);

  const double r_cs = params_.core_to_sink_resistance;
  const double r_cc = params_.core_to_core_resistance;
  const double r_sa = params_.sink_to_ambient(active_fans);
  const double c_core = params_.core_capacitance_j_per_k;
  const double c_sink = params_.sink_capacitance_j_per_k;
  const std::size_t n = core_c_.size();

  // Stability: the fastest mode involves a core coupled to sink and both
  // neighbours.
  const double g_core = 1.0 / r_cs + 2.0 / r_cc;
  const double tau_fast =
      std::min(c_core / g_core, c_sink * r_sa);
  const double h_max = tau_fast / 20.0;
  const int n_sub = std::max(1, static_cast<int>(std::ceil(dt / h_max)));
  const double h = dt / static_cast<double>(n_sub);

  std::vector<double> next(n);
  for (int s = 0; s < n_sub; ++s) {
    double q_into_sink = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      const double q_cs = (core_c_[i] - sink_c_) / r_cs;
      // Ring neighbours (single core: no lateral flow).
      double q_cc = 0.0;
      if (n > 1) {
        const std::size_t left = (i + n - 1) % n;
        const std::size_t right = (i + 1) % n;
        q_cc = (core_c_[i] - core_c_[left]) / r_cc +
               (core_c_[i] - core_c_[right]) / r_cc;
      }
      next[i] = core_c_[i] + h * (core_power_watts[i] - q_cs - q_cc) / c_core;
      q_into_sink += q_cs;
    }
    const double q_sa = (sink_c_ - ambient_c) / r_sa;
    sink_c_ += h * (q_into_sink - q_sa) / c_sink;
    core_c_ = next;
  }
}

double MultiCoreThermalNetwork::max_core_temp_c() const {
  return *std::max_element(core_c_.begin(), core_c_.end());
}

double MultiCoreThermalNetwork::core_spread_c() const {
  const auto [lo, hi] = std::minmax_element(core_c_.begin(), core_c_.end());
  return *hi - *lo;
}

MultiCorePhysicalMachine::MultiCorePhysicalMachine(
    ServerSpec spec, MultiCoreThermalParams thermal, int active_fans,
    double initial_temp_c, Rng /*rng*/)
    : spec_(std::move(spec)),
      active_fans_(active_fans),
      thermal_(
          [&] {
            thermal.cores = spec_.physical_cores;
            return thermal;
          }(),
          initial_temp_c),
      core_util_(static_cast<std::size_t>(spec_.physical_cores), 0.0) {
  spec_.validate();
  detail::require(active_fans_ >= 1 && active_fans_ <= spec_.fan_slots,
                  "multicore: active_fans in [1, fan_slots]");
}

void MultiCorePhysicalMachine::add_vm(Vm vm, std::vector<int> pinned_cores) {
  detail::require(static_cast<int>(pinned_cores.size()) == vm.config().vcpus,
                  "multicore: need one pinned core per vCPU");
  for (int core : pinned_cores) {
    detail::require(core >= 0 && core < spec_.physical_cores,
                    "multicore: pinned core out of range");
  }
  vms_.push_back(PinnedVm{std::move(vm), std::move(pinned_cores)});
}

const std::vector<double>& MultiCorePhysicalMachine::step(double dt,
                                                          double ambient_c) {
  detail::require(dt > 0.0, "multicore: step dt must be positive");
  std::fill(core_util_.begin(), core_util_.end(), 0.0);
  for (auto& pinned : vms_) {
    const double util = pinned.vm.step(dt);
    for (int core : pinned.cores) {
      core_util_[static_cast<std::size_t>(core)] += util;
    }
  }
  for (double& u : core_util_) u = std::clamp(u, 0.0, 1.0);

  // Per-core power: even split of idle power plus per-core dynamic power.
  const auto n = static_cast<double>(spec_.physical_cores);
  const double idle_per_core = spec_.power.idle_watts / n;
  const double span_per_core =
      (spec_.power.max_cpu_watts - spec_.power.idle_watts) / n;
  std::vector<double> watts(core_util_.size());
  for (std::size_t i = 0; i < core_util_.size(); ++i) {
    watts[i] = idle_per_core +
               span_per_core * std::pow(core_util_[i], spec_.power.cpu_exponent);
  }
  thermal_.step(dt, watts, ambient_c, active_fans_);
  return core_util_;
}

}  // namespace vmtherm::sim
