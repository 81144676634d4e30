#include "plugin/governor.h"

#include <algorithm>

namespace waran::plugin {

Status FuelGovernor::register_slot(const std::string& slot, double weight) {
  if (slots_.contains(slot)) return Error::state("slot already governed: " + slot);
  if (weight <= 0) return Error::invalid_argument("weight must be positive");
  SlotState state;
  state.weight = weight;
  state.allocation = config_.floor;
  slots_.emplace(slot, state);
  return {};
}

Status FuelGovernor::remove_slot(const std::string& slot) {
  if (slots_.erase(slot) == 0) return Error::not_found("slot not governed: " + slot);
  return {};
}

void FuelGovernor::record_usage(const std::string& slot, uint64_t fuel_used) {
  auto it = slots_.find(slot);
  if (it == slots_.end()) return;
  SlotState& s = it->second;
  s.demand_ewma += config_.alpha * (static_cast<double>(fuel_used) - s.demand_ewma);
}

void FuelGovernor::rebalance() {
  if (slots_.empty()) return;
  const uint64_t n = slots_.size();
  const uint64_t floor_total = config_.floor * n;
  uint64_t spare =
      config_.budget_per_slot > floor_total ? config_.budget_per_slot - floor_total : 0;

  // Weighted demand shares. A slot that never ran still has demand 0 and
  // lives on its floor; epsilon keeps the split defined when all are idle.
  double share_sum = 0;
  for (const auto& [name, s] : slots_) {
    share_sum += s.weight * (s.demand_ewma + 1.0);
  }
  for (auto& [name, s] : slots_) {
    double share = s.weight * (s.demand_ewma + 1.0) / share_sum;
    s.allocation = config_.floor + static_cast<uint64_t>(share * static_cast<double>(spare));
  }
}

uint64_t FuelGovernor::allocation(const std::string& slot) const {
  auto it = slots_.find(slot);
  return it == slots_.end() ? 0 : it->second.allocation;
}

void FuelGovernor::apply(PluginManager& manager) {
  rebalance();
  for (const auto& [name, s] : slots_) {
    if (manager.has(name)) {
      (void)manager.set_fuel(name, s.allocation);
    }
  }
}

}  // namespace waran::plugin
