#include "ric/near_rt_ric.h"

#include "common/log.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace waran::ric {

namespace {

struct RicMetrics {
  obs::Counter& indications = obs::MetricsRegistry::global().counter(
      "waran_ric_indications_total");
  obs::Counter& actions =
      obs::MetricsRegistry::global().counter("waran_ric_actions_sent_total");
  obs::Counter& frames_rejected = obs::MetricsRegistry::global().counter(
      "waran_ric_frames_rejected_total");
  obs::Counter& garbage_outputs = obs::MetricsRegistry::global().counter(
      "waran_ric_xapp_garbage_outputs_total");
  static RicMetrics& get() {
    static RicMetrics m;
    return m;
  }
};

}  // namespace

using wasm::FuncType;
using wasm::HostContext;
using wasm::HostFunc;
using wasm::ValType;
using wasm::Value;

Status NearRtRic::load_comm_plugin(std::span<const uint8_t> module_bytes) {
  if (plugins_.has("comm")) return plugins_.swap("comm", module_bytes);
  return plugins_.install("comm", module_bytes);
}

Result<uint32_t> NearRtRic::add_xapp(const std::string& name,
                                     std::span<const uint8_t> module_bytes) {
  std::string slot = "xapp:" + name;
  if (plugins_.has(slot)) return Error::state("xApp already registered: " + name);

  wasm::Linker host;
  host.register_func(
      "env", "xapp_send",
      HostFunc{FuncType{{ValType::kI32, ValType::kI32, ValType::kI32}, {}},
               [this](HostContext& ctx, std::span<const Value> args)
                   -> Result<std::optional<Value>> {
                 uint32_t dst = args[0].as_u32();
                 uint32_t ptr = args[1].as_u32();
                 uint32_t len = args[2].as_u32();
                 if (dst >= inboxes_.size()) {
                   return Error::trap("xapp_send: destination out of range");
                 }
                 if (len > (1u << 16)) {
                   return Error::trap("xapp_send: message too large");
                 }
                 Inbox& inbox = inboxes_[dst];
                 if (inbox.tail == inbox.buffers.size()) inbox.buffers.emplace_back();
                 std::vector<uint8_t>& msg = inbox.buffers[inbox.tail];
                 msg.resize(len);
                 WARAN_CHECK_OK(ctx.instance.memory()->read_bytes(ptr, msg));
                 ++inbox.tail;
                 return std::optional<Value>{};
               }});

  WARAN_CHECK_OK(plugins_.install(slot, module_bytes, host));
  xapps_.push_back(slot);
  inboxes_.emplace_back();
  return static_cast<uint32_t>(xapps_.size() - 1);
}

RicStats NearRtRic::stats() const {
  RicStats s = stats_;
  for (const std::string& slot : xapps_) {
    if (const CallCostAcc* cost = plugins_.cost(slot)) {
      s.xapp_fuel_used += cost->total_fuel();
    }
  }
  return s;
}

Status NearRtRic::dispatch_indication(std::span<const uint8_t> payload, LinkRef& origin) {
  obs::ObsSpan span(obs::TraceCat::kRic, "dispatch_indication",
                    static_cast<uint32_t>(payload.size()));
  ++stats_.indications_processed;
  RicMetrics::get().indications.add();
  // Host-side decode feeds the fleet reconstruction; the xApps still get
  // the raw payload (they own their own parsing). A payload that fails the
  // host decode just carries no telemetry — dispatch continues.
  if (decode_indication(payload, report_).ok() && report_.telemetry.has_value()) {
    fleet_view_.update(*report_.telemetry);
    ++stats_.telemetry_updates;
  }
  aggregated_.clear();
  for (const std::string& slot : xapps_) {
    Status called = plugins_.call(slot, "on_indication", payload, xapp_output_);
    if (!called.ok()) {
      ++stats_.xapp_faults;
      WARAN_LOG(kDebug, "ric", slot << " fault: " << called.error().message);
      continue;
    }
    if (xapp_output_.empty()) continue;
    Status decoded = decode_control(xapp_output_, actions_);
    if (!decoded.ok()) {
      // xApp emitted garbage: sanitize by dropping its contribution.
      ++stats_.xapp_faults;
      RicMetrics::get().garbage_outputs.add();
      plugins_.journal().record(obs::AnomalyKind::kSanitized, plugins_.domain(), slot,
                                decoded.error().message);
      continue;
    }
    aggregated_.insert(aggregated_.end(), actions_.begin(), actions_.end());
  }
  deliver_messages();

  if (!aggregated_.empty()) {
    encode_control(aggregated_, control_);
    WARAN_CHECK_OK(plugins_.call("comm", "frame", control_, control_frame_));
    origin.link->send(origin.side, control_frame_);
    ++stats_.control_frames_sent;
    stats_.actions_sent += aggregated_.size();
    RicMetrics::get().actions.add(aggregated_.size());
  }
  return {};
}

void NearRtRic::deliver_messages() {
  // Each round delivers what was queued when it began, so a handler's own
  // sends wait for the next round. What the last round leaves queued is
  // dropped: a handler that keeps sending cannot hold poll() or grow an
  // inbox from one poll to the next.
  for (int round = 0; round < kMessageRounds; ++round) {
    bool any = false;
    for (Inbox& inbox : inboxes_) inbox.round_end = inbox.tail;
    for (size_t i = 0; i < xapps_.size(); ++i) {
      Inbox& inbox = inboxes_[i];
      while (inbox.head < inbox.round_end) {
        // Take the message out of the inbox, leaving message_'s previous
        // buffer (grown to fit) in its place: a handler sending to this
        // inbox may grow `buffers` but cannot touch the message it is
        // being handed.
        std::vector<uint8_t>& slot = inbox.buffers[inbox.head];
        std::swap(message_, slot);
        slot.reserve(message_.size());
        if (++inbox.head == inbox.tail) inbox.head = inbox.tail = inbox.round_end = 0;
        any = true;
        plugin::Plugin* p = plugins_.plugin(xapps_[i]);
        if (p == nullptr || !p->has_export("on_message")) continue;
        Status r = plugins_.call(xapps_[i], "on_message", message_, xapp_output_);
        if (!r.ok()) {
          ++stats_.xapp_faults;
        } else {
          ++stats_.messages_delivered;
        }
      }
    }
    if (!any) break;
  }
  for (Inbox& inbox : inboxes_) {
    stats_.messages_dropped += inbox.tail - inbox.head;
    inbox.head = inbox.tail = 0;
  }
}

Status NearRtRic::poll() {
  if (!plugins_.has("comm")) return Error::state("no communication plugin loaded");
  for (LinkRef& link : links_) {
    while (link.link->receive(link.side, frame_)) {
      Status unframed = plugins_.call("comm", "unframe", frame_, payload_);
      if (!unframed.ok()) {
        ++stats_.frames_rejected;
        RicMetrics::get().frames_rejected.add();
        plugins_.journal().record(obs::AnomalyKind::kFrameRejected, plugins_.domain(),
                                  "comm", unframed.error().message);
        continue;
      }
      auto type = peek_msg_type(payload_);
      if (!type.ok()) {
        ++stats_.frames_rejected;
        RicMetrics::get().frames_rejected.add();
        continue;
      }
      if (*type == kMsgIndication) {
        WARAN_CHECK_OK(dispatch_indication(payload_, link));
      }
      // Control frames arriving at the RIC are ignored (loop prevention).
    }
  }
  return {};
}

}  // namespace waran::ric
