// The WA-RAN bridge: an IntraSliceScheduler whose decisions come from a
// Wasm plugin slot. Each call serializes the request in the flat wire
// format (codec/wire.h), crosses the sandbox boundary into the slot's
// `schedule` export through the plugin ABI, and decodes the plugin's
// response — the exact data path the paper's Fig. 5d execution-time
// measurement covers ("includes the overhead of data serialization and
// de-serialization on the gNB host"). The encoded request and the plugin's
// output live in buffers the bridge keeps from call to call, so
// schedule_into allocates nothing once warm. The slot's cost ledger is the
// manager's: PluginManager::cost(slot).
#pragma once

#include <string>
#include <vector>

#include "plugin/manager.h"
#include "ran/scheduler_iface.h"

namespace waran::sched {

class WasmIntraScheduler final : public ran::IntraSliceScheduler {
 public:
  /// `manager` must outlive this scheduler. `slot` names the plugin slot
  /// (swappable at runtime via the manager without touching the MAC).
  WasmIntraScheduler(plugin::PluginManager& manager, std::string slot)
      : manager_(manager), slot_(std::move(slot)), name_("wasm:" + slot_) {}

  Result<codec::SchedResponse> schedule(const codec::SchedRequest& req) override;
  Status schedule_into(const codec::SchedRequest& req, codec::SchedResponse& out) override;

  const char* name() const override { return name_.c_str(); }
  const std::string& slot() const { return slot_; }

 private:
  plugin::PluginManager& manager_;
  std::string slot_;
  std::string name_;
  std::vector<uint8_t> request_;  ///< the encoded request of the latest call
  std::vector<uint8_t> output_;   ///< the plugin's output of the latest call
};

}  // namespace waran::sched
