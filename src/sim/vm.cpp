#include "sim/vm.h"

namespace vmtherm::sim {

Vm::Vm(std::string id, const VmConfig& config, Rng rng)
    : id_(std::move(id)), config_(config) {
  detail::require(!id_.empty(), "vm id must be non-empty");
  config_.validate();
  model_ = make_utilization_model(config_.task, rng);
}

Vm::Vm(std::string id, const VmConfig& config,
       std::unique_ptr<UtilizationModel> model)
    : id_(std::move(id)), config_(config), model_(std::move(model)) {
  detail::require(!id_.empty(), "vm id must be non-empty");
  detail::require(model_ != nullptr, "vm utilization model must be non-null");
  config_.validate();
}

double Vm::step(double dt) { return model_->step(dt); }

}  // namespace vmtherm::sim
