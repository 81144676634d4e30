// FuelGovernor — the joint resource-management policy the paper calls for
// in §6B: RAN edge hosts have a fixed compute budget per slot, and every
// plugin's execution must fit it alongside the host's own real-time work.
//
// The governor owns a per-slot interpreter budget (fuel units ≈ retired
// instructions affordable inside the slot deadline) and divides it across
// plugin slots each rebalance():
//
//   1. every registered slot gets a guaranteed floor,
//   2. the remainder is split proportionally to weight x EWMA demand, so
//      idle plugins donate headroom to busy ones without ever being
//      starved of their floor.
//
// The embedder calls record_usage() after each plugin call and rebalance()
// once per slot (or less often); allocations feed PluginManager::set_fuel.
#pragma once

#include <cstdint>
#include <map>
#include <string>

#include "common/result.h"
#include "plugin/manager.h"

namespace waran::plugin {

class FuelGovernor {
 public:
  struct Config {
    /// Total fuel spendable across all plugins per slot.
    uint64_t budget_per_slot = 1'000'000;
    /// Guaranteed minimum per slot ("no plugin is starved", §6B).
    uint64_t floor = 20'000;
    /// EWMA smoothing for observed demand.
    double alpha = 0.05;
  };

  explicit FuelGovernor(Config config) : config_(config) {}

  /// Registers a plugin slot with a relative weight (its SLA class).
  Status register_slot(const std::string& slot, double weight = 1.0);
  Status remove_slot(const std::string& slot);

  /// Records fuel actually consumed by one call on `slot`.
  void record_usage(const std::string& slot, uint64_t fuel_used);

  /// Recomputes every slot's allocation from current demand and weights.
  void rebalance();

  /// Current allocation for `slot` (floor-initialised before the first
  /// rebalance). Returns 0 for unknown slots.
  uint64_t allocation(const std::string& slot) const;

  /// Convenience: rebalances and pushes every allocation into `manager`
  /// (slots missing from the manager are skipped).
  void apply(PluginManager& manager);

  const Config& config() const { return config_; }

 private:
  struct SlotState {
    double weight = 1.0;
    double demand_ewma = 0.0;  // fuel per call, smoothed
    uint64_t allocation = 0;
  };

  Config config_;
  std::map<std::string, SlotState> slots_;
};

}  // namespace waran::plugin
