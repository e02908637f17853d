#include "mgmt/planner.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <optional>

#include "mgmt/monitor.h"

namespace vmtherm::mgmt {

double HostPlacement::used_memory_gb() const noexcept {
  double total = 0.0;
  for (const auto& vm : vms) total += vm.config.memory_gb;
  return total;
}

bool HostPlacement::fits(const sim::VmConfig& vm) const noexcept {
  return used_memory_gb() + vm.memory_gb <= server.memory_gb;
}

std::vector<sim::VmConfig> HostPlacement::configs() const {
  std::vector<sim::VmConfig> out;
  out.reserve(vms.size());
  for (const auto& vm : vms) out.push_back(vm.config);
  return out;
}

void PlannerOptions::validate() const {
  detail::require(std::isfinite(target_c), "planner target must be finite");
  detail::require(std::isfinite(env_temp_c),
                  "planner env temperature must be finite");
  detail::require(std::isfinite(dest_headroom_c) && dest_headroom_c >= 0.0,
                  "planner headroom must be finite and >= 0");
  detail::require(max_moves > 0, "max_moves must be positive");
}

namespace {

/// Width of the selection rule's "equal source temperature" band.
constexpr double kTieBand = 1e-9;

/// The planner's working copy of one host: its VM configs, its used
/// memory and a memo of ψ_stable(host + vm) keyed on the VM's exact shape.
struct WorkingHost {
  struct MemoEntry {
    int vcpus;
    std::uint64_t memory_bits;
    sim::TaskType task;
    double predicted_c;
  };

  const sim::ServerSpec* server = nullptr;
  int fans = 0;
  std::vector<sim::VmConfig> vms;
  /// Summed in `vms` order, as HostPlacement::used_memory_gb() does, so
  /// fits() is bitwise the HostPlacement check.
  double used_memory_gb = 0.0;
  std::vector<MemoEntry> memo;

  void reset(std::vector<sim::VmConfig> configs) {
    vms = std::move(configs);
    used_memory_gb = 0.0;
    for (const sim::VmConfig& vm : vms) used_memory_gb += vm.memory_gb;
    memo.clear();
  }

  bool fits(const sim::VmConfig& vm) const noexcept {
    return used_memory_gb + vm.memory_gb <= server->memory_gb;
  }

  const double* find(const sim::VmConfig& vm) const noexcept {
    const std::uint64_t bits = std::bit_cast<std::uint64_t>(vm.memory_gb);
    for (const MemoEntry& e : memo) {
      if (e.vcpus == vm.vcpus && e.memory_bits == bits && e.task == vm.task) {
        return &e.predicted_c;
      }
    }
    return nullptr;
  }
};

/// ψ_stable of a VM list through one reused encode/scale scratch:
/// make_record_inputs + encode_features + predict_from_features is the
/// arithmetic of StableTemperaturePredictor::predict(server, vms, ...), so
/// every value is bitwise what the scalar call returns.
class Scorer {
 public:
  Scorer(const core::StableTemperaturePredictor& predictor, double env_c)
      : predictor_(predictor), env_c_(env_c) {}

  double host(const WorkingHost& h) { return predict(h, h.vms); }

  /// ψ(h without its VM at index v); the survivors keep their order.
  double without(const WorkingHost& h, std::size_t v) {
    vms_.assign(h.vms.begin(), h.vms.end());
    vms_.erase(vms_.begin() + static_cast<std::ptrdiff_t>(v));
    return predict(h, vms_);
  }

  /// ψ(h with `vm` appended last), memoized on h.
  double with(WorkingHost& h, const sim::VmConfig& vm) {
    if (const double* hit = h.find(vm)) return *hit;
    vms_.assign(h.vms.begin(), h.vms.end());
    vms_.push_back(vm);
    const double predicted = predict(h, vms_);
    h.memo.push_back({vm.vcpus, std::bit_cast<std::uint64_t>(vm.memory_gb),
                      vm.task, predicted});
    return predicted;
  }

 private:
  double predict(const WorkingHost& h, const std::vector<sim::VmConfig>& vms) {
    core::encode_features(
        core::make_record_inputs(*h.server, vms, h.fans, env_c_),
        scratch_.features);
    return predictor_.predict_from_features(scratch_.features,
                                            scratch_.scaled);
  }

  const core::StableTemperaturePredictor& predictor_;
  double env_c_;
  std::vector<sim::VmConfig> vms_;
  core::StablePredictScratch scratch_;
};

/// Selection rule 1: source-after value `s` beats the best's `best` by
/// more than the tie band.
bool improves(double s, double best) { return s < best - kTieBand; }

/// Selection rule 2's band: `s` ties the best's `best`.
bool ties(double s, double best) { return std::abs(s - best) <= kTieBand; }

/// True when every value >= `high` is separated from every value <= `low`
/// under the two rules: a value >= high never ties a best <= low, and a
/// value <= low always improves on a best >= high. Rounding is monotone,
/// so testing the two boundary values suffices.
bool separated(double low, double high) {
  return !ties(high, low) && improves(low, high);
}

}  // namespace

MigrationPlan plan_migrations(const core::StableTemperaturePredictor& predictor,
                              std::vector<HostPlacement> fleet,
                              const PlannerOptions& options) {
  detail::require(!fleet.empty(), "migration planning needs hosts");
  options.validate();
  for (const HostPlacement& host : fleet) {
    MonitoredConfig{host.server, host.fans, host.configs(), options.env_temp_c}
        .validate();
  }

  Scorer score(predictor, options.env_temp_c);
  std::vector<WorkingHost> hosts(fleet.size());
  MigrationPlan plan;
  for (std::size_t h = 0; h < fleet.size(); ++h) {
    hosts[h].server = &fleet[h].server;
    hosts[h].fans = fleet[h].fans;
    hosts[h].reset(fleet[h].configs());
    plan.predicted_before_c.push_back(score.host(hosts[h]));
  }

  std::vector<double> current = plan.predicted_before_c;
  const double dest_limit = options.target_c - options.dest_headroom_c;
  std::vector<double> source_after;
  std::vector<std::size_t> by_source_after;

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
    WorkingHost& source = hosts[hot];
    if (source.vms.empty()) break;           // nothing to move

    // ψ(d plus vm) when d is a feasible destination for vm.
    const auto dest_after = [&](std::size_t d, const sim::VmConfig& vm) {
      std::optional<double> predicted;
      if (d != hot && hosts[d].fits(vm)) {
        predicted = score.with(hosts[d], vm);
        if (*predicted > dest_limit) predicted.reset();
      }
      return predicted;
    };

    // 1. Source temperature without each VM.
    source_after.clear();
    by_source_after.clear();
    for (std::size_t v = 0; v < source.vms.size(); ++v) {
      source_after.push_back(score.without(source, v));
      if (!std::isnan(source_after.back())) by_source_after.push_back(v);
    }
    std::stable_sort(by_source_after.begin(), by_source_after.end(),
                     [&](std::size_t a, std::size_t b) {
                       return source_after[a] < source_after[b];
                     });

    // 2. The coolest-source VM with any feasible destination.
    const auto has_destination = [&](const sim::VmConfig& vm) {
      for (std::size_t d = 0; d < fleet.size(); ++d) {
        if (dest_after(d, vm)) return true;
      }
      return false;
    };
    std::size_t first = 0;
    while (first < by_source_after.size() &&
           !has_destination(source.vms[by_source_after[first]])) {
      ++first;
    }
    if (first == by_source_after.size()) break;  // no feasible relieving move

    // 3. Threshold: the smallest sorted value >= that VM's source-after
    //    value that is separated from the next one.
    double threshold = source_after[by_source_after[first]];
    for (std::size_t i = first + 1; i < by_source_after.size(); ++i) {
      const double next = source_after[by_source_after[i]];
      if (separated(threshold, next)) break;
      threshold = next;
    }

    // 4. The exhaustive (vm ascending, destination ascending) scan: prefer
    //    the move that cools the source the most; among equals (within the
    //    tie band) the coolest destination. It skips every VM whose source
    //    value is above the threshold or cannot fire either rule against
    //    the running best, which leaves the outcome unchanged:
    //    - Values above the threshold are separated from every value at or
    //      below it (step 3). The first feasible candidate at or below it
    //      exists (step 2) and replaces any above-threshold best by the
    //      strict-improvement rule, so the scan reaches the same state
    //      there with or without the skipped ones.
    //    - From then on the best's value stays at or below the threshold:
    //      strict improvements only lower it, and a tie-band move could
    //      only raise it to a value that is not separated from it, which
    //      is also at or below the threshold. An above-threshold candidate
    //      then fires neither rule.
    //    - A VM that fires neither rule against the best at the start of
    //      its destination loop fires none in it: the best does not change
    //      until something fires.
    //    NaN values fire neither rule and are skipped with the rest.
    struct Candidate {
      std::size_t vm_index = 0;
      std::size_t dest = 0;
      double source_after = 0.0;
      double dest_after = 0.0;
      bool valid = false;
    };
    Candidate best;
    double best_source_after = std::numeric_limits<double>::infinity();

    for (std::size_t v = 0; v < source.vms.size(); ++v) {
      const double s = source_after[v];
      if (!(s <= threshold)) continue;
      if (best.valid && !improves(s, best_source_after) &&
          !ties(s, best_source_after)) {
        continue;
      }
      for (std::size_t d = 0; d < fleet.size(); ++d) {
        const std::optional<double> dest = dest_after(d, source.vms[v]);
        if (!dest) continue;
        if (improves(s, best_source_after) ||
            (ties(s, best_source_after) && best.valid &&
             *dest < best.dest_after)) {
          best_source_after = s;
          best = Candidate{v, d, s, *dest, true};
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

    // Apply to the working copy; only the two changed hosts' memos go.
    const auto vm_at = static_cast<std::ptrdiff_t>(best.vm_index);
    fleet[best.dest].vms.push_back(fleet[hot].vms[best.vm_index]);
    fleet[hot].vms.erase(fleet[hot].vms.begin() + vm_at);
    hosts[best.dest].reset(fleet[best.dest].configs());
    hosts[hot].reset(fleet[hot].configs());
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

}  // namespace vmtherm::mgmt
