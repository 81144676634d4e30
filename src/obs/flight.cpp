#include "obs/flight.h"

#include <cinttypes>
#include <cstdio>

#include "obs/trace.h"

namespace waran::obs {

namespace {

constexpr size_t kAnomalyTail = 32;        ///< anomaly records kept in the bundle
constexpr uint32_t kTraceWindowSlots = 16;  ///< trailing slots of trace kept

}  // namespace

std::string FlightRecorder::replay_command(uint64_t end_slot) const {
  char buf[192];
  if (ctx_.rounds > 0) {
    std::snprintf(buf, sizeof(buf),
                  "waran_chaos --seed %" PRIu64
                  " --episodes 1 --rounds %u --slots-per-round %u --cells %u%s",
                  ctx_.seed, ctx_.rounds, ctx_.slots_per_round, ctx_.cells,
                  ctx_.virtual_time ? " --virtual-time" : "");
    return buf;
  }
  std::snprintf(buf, sizeof(buf),
                "waran_obs --cells %u --seed %" PRIu64 " --slots %" PRIu64 "%s", ctx_.cells,
                ctx_.seed, end_slot, ctx_.virtual_time ? " --virtual-time" : "");
  return buf;
}

std::string FlightRecorder::capture(std::string_view reason,
                                    const HealthReport& health,
                                    const FleetAggregator& agg,
                                    std::span<const AnomalyRecord> anomalies,
                                    const std::vector<MergedTrack>& tracks,
                                    uint64_t end_slot) const {
  std::string out;
  out.reserve(4096);
  char buf[256];

  out += "{\"waran_flight_bundle\":1,\"reason\":\"";
  append_json_escaped(out, reason);
  out += "\",\"context\":{";
  std::snprintf(buf, sizeof(buf),
                "\"seed\":%" PRIu64
                ",\"cells\":%u,\"virtual_time\":%s,\"rounds\":%u,"
                "\"slots_per_round\":%u,\"scenario\":\"",
                ctx_.seed, ctx_.cells, ctx_.virtual_time ? "true" : "false",
                ctx_.rounds, ctx_.slots_per_round);
  out += buf;
  append_json_escaped(out, ctx_.scenario);
  out += "\"},\"replay\":\"";
  append_json_escaped(out, replay_command(end_slot));
  out += "\",\"health\":";
  out += health.to_json();

  out += ",\"cells\":[";
  for (size_t i = 0; i < agg.cells(); ++i) {
    if (i > 0) out += ',';
    out += "{\"window\":";
    out += agg.cell_window(i).to_json();
    out += ",\"total\":";
    out += agg.cell_total(i).to_json();
    out += '}';
  }
  out += ']';

  // Tail of the merged view, newest last; a record's seq here is its index
  // in that view.
  const size_t start =
      anomalies.size() > kAnomalyTail ? anomalies.size() - kAnomalyTail : 0;
  out += ",\"anomalies\":[";
  for (size_t i = start; i < anomalies.size(); ++i) {
    const AnomalyRecord& r = anomalies[i];
    if (i > start) out += ',';
    std::snprintf(buf, sizeof(buf),
                  "{\"seq\":%zu,\"slot\":%" PRIu64 ",\"t_ns\":%" PRIu64
                  ",\"kind\":\"%s\",\"domain\":\"",
                  i, r.slot, r.t_ns, to_string(r.kind));
    out += buf;
    append_json_escaped(out, r.domain);
    out += "\",\"source\":\"";
    append_json_escaped(out, r.source);
    out += "\",\"detail\":\"";
    append_json_escaped(out, r.detail);
    out += "\"}";
  }
  out += ']';

  // Last-N-slot trace window across every track, in ring order per track
  // (the merged exporter owns global ordering; the bundle keeps provenance).
  const uint64_t cutoff = end_slot > kTraceWindowSlots ? end_slot - kTraceWindowSlots : 0;
  std::snprintf(buf, sizeof(buf),
                ",\"trace_window\":{\"window_slots\":%u,\"from_slot\":%" PRIu64
                ",\"to_slot\":%" PRIu64 ",\"events\":[",
                kTraceWindowSlots, cutoff, end_slot);
  out += buf;
  bool first = true;
  for (const MergedTrack& tr : tracks) {
    if (tr.ring == nullptr) continue;
    for (const TraceEvent& ev : tr.ring->snapshot()) {
      if (ev.slot < cutoff) continue;
      if (!first) out += ',';
      first = false;
      std::snprintf(buf, sizeof(buf),
                    "{\"pid\":%u,\"t_ns\":%" PRIu64 ",\"dur_ns\":%" PRIu64
                    ",\"slot\":%" PRIu64 ",\"cat\":\"%s\",\"ph\":\"%c\",\"arg\":%u,"
                    "\"name\":\"",
                    tr.pid, ev.t_ns, ev.dur_ns, ev.slot,
                    to_string(static_cast<TraceCat>(ev.cat)), ev.phase, ev.arg);
      out += buf;
      append_json_escaped(out, ev.name);
      out += "\"}";
    }
  }
  out += "]}}";
  return out;
}

}  // namespace waran::obs
