// Near-RT RIC host (paper Fig. 4, right): receives indications through its
// communication plugin, fans them out to the xApp plugins in registration
// order, aggregates the control actions they emit, and sends them back
// framed. xApps are fully sandboxed: a crashing or garbage-emitting xApp is
// counted and skipped, never taking the RIC down; repeated offenders are
// quarantined by the plugin manager.
//
// Host functions exposed to xApps (module "env"):
//   xapp_send(dst_index, ptr, len) — inter-xApp messaging; delivered after
//   the current dispatch round to the destination's exported `on_message`.
//   A poll delivers in at most 8 rounds, each taking what was queued when
//   it began; what is still queued after the 8th is dropped and counted
//   (RicStats::messages_dropped).
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "plugin/manager.h"
#include "ric/e2lite.h"
#include "ric/transport.h"

namespace waran::ric {

struct RicStats {
  uint64_t indications_processed = 0;
  uint64_t telemetry_updates = 0;  // indications carrying a telemetry block
  uint64_t frames_rejected = 0;   // comm-plugin sanitization drops
  uint64_t control_frames_sent = 0;
  uint64_t actions_sent = 0;
  uint64_t xapp_faults = 0;       // xApp call errors + undecodable outputs
  uint64_t messages_delivered = 0;
  // Inter-xApp messages still queued after the last delivery round of a
  // poll, discarded there.
  uint64_t messages_dropped = 0;
  // Fuel the sandboxed xApps consumed of the near-RT budget: the sum of
  // the registered xApp slots' CallCostAcc totals, filled by stats().
  uint64_t xapp_fuel_used = 0;
};

class NearRtRic {
 public:
  /// A RIC serves one or more E2 nodes (gNBs); the constructor wires the
  /// first link, add_link attaches more. Control actions always return on
  /// the link whose indication produced them.
  NearRtRic(Duplex& link, Duplex::Side side) {
    plugins_.set_domain("ric");
    add_link(link, side);
  }

  void add_link(Duplex& link, Duplex::Side side) { links_.push_back({&link, side}); }
  size_t link_count() const { return links_.size(); }

  Status load_comm_plugin(std::span<const uint8_t> module_bytes);

  /// Registers an xApp; dispatch order is registration order, and the index
  /// returned is the xApp's messaging address for xapp_send.
  Result<uint32_t> add_xapp(const std::string& name, std::span<const uint8_t> module_bytes);

  /// Drains inbound frames, dispatches indications to xApps, applies
  /// inter-xApp messaging, and ships aggregated control actions.
  Status poll();

  /// Counters as of now, with xapp_fuel_used read from the xApp slots'
  /// cost ledgers.
  RicStats stats() const;
  plugin::PluginManager& plugins() { return plugins_; }

  /// Per-xApp call-cost distribution (p50/p99 wall time, fuel, stack
  /// depth), by registration name. Null for unknown names.
  const CallCostAcc* xapp_cost(const std::string& name) const {
    return plugins_.cost("xapp:" + name);
  }

  /// The RIC's reconstructed fleet view, rebuilt purely from the telemetry
  /// blocks that survived the wire (frame -> unframe -> decode). After a
  /// report boundary this must equal the deployment's ground-truth
  /// aggregation exactly — the fleet plane's end-to-end invariant.
  const obs::FleetView& fleet_view() const { return fleet_view_; }

 private:
  struct LinkRef {
    Duplex* link;
    Duplex::Side side;
  };

  /// One xApp's undelivered messages, in send order, at [head, tail) of
  /// buffers the inbox keeps: a delivered message's buffer serves a later
  /// send, so steady messaging allocates nothing.
  struct Inbox {
    std::vector<std::vector<uint8_t>> buffers;
    size_t head = 0;
    size_t tail = 0;
    size_t round_end = 0;  // the tail when the delivery round began
  };
  /// Delivery rounds per poll, so two xApps cannot ping-pong forever.
  static constexpr int kMessageRounds = 8;

  Status dispatch_indication(std::span<const uint8_t> payload, LinkRef& origin);
  void deliver_messages();

  std::vector<LinkRef> links_;
  plugin::PluginManager plugins_;
  std::vector<std::string> xapps_;             // slot names in dispatch order
  std::vector<Inbox> inboxes_;                 // one per xApp, same order
  RicStats stats_;
  obs::FleetView fleet_view_;
  // Per-turn scratch, kept for its capacity so that a warm RIC turn
  // allocates nothing: the frame received and its payload, the host-side
  // decode of an indication, one xApp's output and decoded actions, the
  // inter-xApp message being delivered, the actions aggregated over all
  // xApps, and the control message and frame sent back.
  std::vector<uint8_t> frame_;
  std::vector<uint8_t> payload_;
  IndicationReport report_;
  std::vector<uint8_t> xapp_output_;
  std::vector<uint8_t> message_;
  std::vector<ControlAction> actions_;
  std::vector<ControlAction> aggregated_;
  std::vector<uint8_t> control_;
  std::vector<uint8_t> control_frame_;
};

}  // namespace waran::ric
