// E2-node side of the WA-RAN RIC design (paper Fig. 4, left): the gNB hosts
// two plugins —
//   "comm" wraps the wire protocol (frame/unframe), and
//   "ctl"  decodes control payloads and drives the gNB through host
//          functions the agent exposes (env.ran_set_quota / ran_set_cqi_table /
//          ran_handover).
// The agent periodically publishes an E2-lite indication built from live
// MAC state and applies whatever control the RIC sends back.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <span>

#include "plugin/manager.h"
#include "ran/mac.h"
#include "ric/e2lite.h"
#include "ric/quota_inter.h"
#include "ric/transport.h"

namespace waran::ric {

struct AgentStats {
  uint64_t indications_sent = 0;
  uint64_t frames_received = 0;
  uint64_t frames_rejected = 0;  // failed the comm plugin's sanitization
  uint64_t quota_updates = 0;
  uint64_t cqi_table_updates = 0;
  uint64_t handovers = 0;
  uint64_t period_updates = 0;
  // Fuel the sandboxed comm + ctl plugins consumed on the gNB's critical
  // path: the sum of those slots' CallCostAcc totals, filled by stats().
  uint64_t plugin_fuel_used = 0;
};

class GnbAgent {
 public:
  /// Per-UE radio context for steering decisions (the simulator's stand-in
  /// for RRC measurement reports).
  struct UeRadio {
    int32_t rsrp_serving_dbm = -90;
    int32_t rsrp_neighbor_dbm = -140;
    uint32_t neighbor_cell = 0;
  };

  /// `quotas` may be null if the RIC never adjusts slicing. The agent keeps
  /// references; all must outlive it. `report_period_slots` is the initial
  /// indication period (0: never due).
  GnbAgent(uint32_t cell_id, ran::GnbMac& mac, QuotaTableInterScheduler* quotas,
           Duplex& link, Duplex::Side side, uint32_t report_period_slots = 100);

  /// Installs the communication plugin (must export frame/unframe).
  Status load_comm_plugin(std::span<const uint8_t> module_bytes);
  /// Installs the control-dispatch plugin (must export apply_control).
  Status load_control_plugin(std::span<const uint8_t> module_bytes);

  void set_ue_radio(uint32_t rnti, UeRadio radio) { radio_[rnti] = radio; }

  /// Called by the embedder when the RIC orders a handover (the simulator
  /// moves the UE to another GnbMac).
  void set_handover_handler(std::function<void(uint32_t rnti, uint32_t cell)> fn) {
    on_handover_ = std::move(fn);
  }

  /// Installs a fleet-telemetry provider: called on every send_indication
  /// (on the agent's own thread, so per-cell collection is race-free) and
  /// the returned summary ships as the indication's tagged telemetry block.
  /// Null return or no provider = no block (wire-compatible with v2).
  void set_telemetry_provider(std::function<const obs::CellTelemetry*()> fn) {
    telemetry_provider_ = std::move(fn);
  }

  /// Builds and sends one indication from current MAC state.
  Status send_indication();

  /// Drains inbound frames, sanitizes them through the comm plugin, and
  /// applies control messages through the control plugin.
  Status poll();

  /// Counters as of now, with plugin_fuel_used read from the manager's
  /// comm + ctl cost ledgers.
  AgentStats stats() const;
  uint32_t cqi_table_index() const { return cqi_table_index_; }
  uint32_t cell_id() const { return cell_id_; }

  /// Call-cost distribution for one of the agent's plugin slots ("comm" or
  /// "ctl"); null if that plugin is not loaded.
  const CallCostAcc* plugin_cost(const std::string& slot) const {
    return plugins_.cost(slot);
  }

  /// The agent's plugin manager ("comm" + "ctl" slots, domain
  /// "gnb<cell_id>") — for health introspection and fault injection. Its
  /// journal also holds the frames the comm plugin rejected.
  plugin::PluginManager& plugins() { return plugins_; }

  /// Slots between indications (RIC-configurable via the v2 control plugin
  /// and the set_report_period action; default 100 = 100 ms).
  uint32_t report_period_slots() const { return report_period_slots_; }
  /// Whether an indication is due once `slots` slots have run: every
  /// report_period_slots() slots, never at period 0.
  bool indication_due(uint64_t slots) const {
    return report_period_slots_ > 0 && slots % report_period_slots_ == 0;
  }

 private:
  wasm::Linker control_host_functions();

  uint32_t cell_id_;
  ran::GnbMac& mac_;
  QuotaTableInterScheduler* quotas_;
  Duplex& link_;
  Duplex::Side side_;
  plugin::PluginManager plugins_;
  std::map<uint32_t, UeRadio> radio_;
  std::function<void(uint32_t, uint32_t)> on_handover_;
  std::function<const obs::CellTelemetry*()> telemetry_provider_;
  AgentStats stats_;
  uint32_t cqi_table_index_ = 0;
  uint32_t report_period_slots_;
  // Per-indication and per-poll scratch, kept for its capacity so that a
  // warm E2 loop allocates nothing: the report being built, an E2-lite
  // message (the encoded indication, or a received frame's payload), the
  // framed indication, the frame received (its buffer cycles with the
  // link's, so it only ever holds control frames) and the ctl plugin's
  // output, which the agent does not read.
  IndicationReport report_;
  std::vector<uint8_t> payload_;
  std::vector<uint8_t> frame_;
  std::vector<uint8_t> rx_frame_;
  std::vector<uint8_t> ctl_output_;
};

}  // namespace waran::ric
