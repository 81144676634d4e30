#include "obs/fleet.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <limits>
#include <span>

#include "obs/trace.h"

namespace waran::obs {

// ---------------------------------------------------------------------------
// CellTelemetry

void CellTelemetry::merge(const CellTelemetry& o) {
  cell = std::min(cell, o.cell);
  cells_merged += o.cells_merged;
  for (const TelemetryCounter& c : kTelemetryCounters) this->*c.member += o.*c.member;
  slot_wall_ns.merge(o.slot_wall_ns);
  sched_wall_ns.merge(o.sched_wall_ns);
}

namespace {

void append_hist_json(std::string& out, const char* name, const HistState& h) {
  char buf[192];
  std::snprintf(buf, sizeof(buf),
                "\"%s\":{\"count\":%" PRIu64 ",\"sum\":%" PRIu64 ",\"p50\":%" PRIu64
                ",\"p99\":%" PRIu64 "}",
                name, h.count, h.sum, h.quantile(0.5), h.quantile(0.99));
  out += buf;
}

}  // namespace

std::string CellTelemetry::to_json() const {
  std::string out;
  out.reserve(640);
  char buf[96];
  std::snprintf(buf, sizeof(buf), "{\"gnb\":%u,\"cell\":%u,\"cells_merged\":%u", gnb,
                cell, cells_merged);
  out += buf;
  for (const TelemetryCounter& c : kTelemetryCounters) {
    std::snprintf(buf, sizeof(buf), ",\"%s\":%" PRIu64, c.name, this->*c.member);
    out += buf;
  }
  out += ',';
  append_hist_json(out, "slot_wall_ns", slot_wall_ns);
  out += ',';
  append_hist_json(out, "sched_wall_ns", sched_wall_ns);
  out += '}';
  return out;
}

// ---------------------------------------------------------------------------
// FleetAggregator

FleetAggregator::FleetAggregator(size_t cells, Collector collect)
    : collect_(std::move(collect)), totals_(cells) {
  for (size_t i = 0; i < cells; ++i) totals_[i].cell = static_cast<uint32_t>(i);
  window_base_ = totals_;
}

const CellTelemetry& FleetAggregator::collect_cell(size_t i) {
  CellTelemetry& t = totals_[i];
  t = CellTelemetry{};
  t.cell = static_cast<uint32_t>(i);
  collect_(i, t);
  return t;
}

void FleetAggregator::begin_window() { window_base_ = totals_; }

CellTelemetry FleetAggregator::cell_window(size_t i) const {
  CellTelemetry t = totals_[i];
  const CellTelemetry& b = window_base_[i];
  for (const TelemetryCounter& c : kTelemetryCounters) {
    // trace_dropped is not monotone across a window (it saturates at
    // head - capacity); report the absolute value instead of a delta.
    if (c.member != &CellTelemetry::trace_dropped) t.*c.member -= b.*c.member;
  }
  t.slot_wall_ns.subtract(b.slot_wall_ns);
  t.sched_wall_ns.subtract(b.sched_wall_ns);
  return t;
}

namespace {

// The identity of merge(): no cells, no lowest member id yet.
CellTelemetry empty_rollup() {
  CellTelemetry out;
  out.cell = std::numeric_limits<uint32_t>::max();
  out.cells_merged = 0;
  return out;
}

// {"cells":[...each summary...],"fleet":{...their rollup...}} — the one
// writer behind FleetAggregator::to_json and FleetView::to_json.
std::string rollup_json(std::span<const CellTelemetry> cells) {
  CellTelemetry fleet = empty_rollup();
  std::string out = "{\"cells\":[";
  for (size_t i = 0; i < cells.size(); ++i) {
    if (i > 0) out += ',';
    out += cells[i].to_json();
    fleet.merge(cells[i]);
  }
  out += "],\"fleet\":";
  out += fleet.to_json();
  out += '}';
  return out;
}

}  // namespace

CellTelemetry FleetAggregator::fleet_rollup(bool window) const {
  CellTelemetry out = empty_rollup();
  for (size_t i = 0; i < totals_.size(); ++i) {
    out.merge(window ? cell_window(i) : totals_[i]);
  }
  return out;
}

std::string FleetAggregator::to_json() const { return rollup_json(totals_); }

// ---------------------------------------------------------------------------
// FleetView

void FleetView::update(const CellTelemetry& t) {
  cells_[{t.gnb, t.cell}] = t;
  ++updates_;
}

const CellTelemetry* FleetView::cell(uint32_t gnb, uint32_t cell) const {
  auto it = cells_.find({gnb, cell});
  return it == cells_.end() ? nullptr : &it->second;
}

std::string FleetView::to_json() const {
  std::vector<CellTelemetry> cells;
  cells.reserve(cells_.size());
  for (const auto& [key, t] : cells_) cells.push_back(t);
  return rollup_json(cells);
}

// ---------------------------------------------------------------------------
// Merged cross-cell Chrome trace

namespace {

struct MergedEvent {
  TraceEvent ev;
  uint32_t pid = 0;
  uint64_t order = 0;  ///< position within its ring: deterministic tie-break
};

}  // namespace

std::string export_merged_chrome_trace(const std::vector<MergedTrack>& tracks) {
  std::vector<MergedEvent> events;
  uint64_t recorded_total = 0;
  uint64_t dropped_total = 0;
  size_t retained_total = 0;
  std::vector<std::vector<TraceEvent>> snapshots;
  snapshots.reserve(tracks.size());
  for (const MergedTrack& tr : tracks) {
    snapshots.push_back(tr.ring != nullptr ? tr.ring->snapshot()
                                           : std::vector<TraceEvent>{});
    retained_total += snapshots.back().size();
  }
  events.reserve(retained_total);
  for (size_t t = 0; t < tracks.size(); ++t) {
    for (size_t i = 0; i < snapshots[t].size(); ++i) {
      events.push_back({snapshots[t][i], tracks[t].pid, static_cast<uint64_t>(i)});
    }
  }
  // Global virtual-clock order; (pid, ring position) breaks timestamp ties
  // deterministically, so the merged bytes are a pure function of the run.
  std::stable_sort(events.begin(), events.end(),
                   [](const MergedEvent& a, const MergedEvent& b) {
                     if (a.ev.t_ns != b.ev.t_ns) return a.ev.t_ns < b.ev.t_ns;
                     if (a.pid != b.pid) return a.pid < b.pid;
                     return a.order < b.order;
                   });

  std::string out;
  out.reserve(events.size() * 130 + tracks.size() * 200 + 256);
  out += "{\"traceEvents\":[";
  char buf[192];
  bool first = true;
  for (const MergedTrack& tr : tracks) {
    if (!first) out += ',';
    first = false;
    std::snprintf(buf, sizeof(buf),
                  "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":%u,\"tid\":1,"
                  "\"args\":{\"name\":\"",
                  tr.pid);
    out += buf;
    append_json_escaped(out, tr.name);
    out += "\"}}";
  }
  for (const MergedEvent& me : events) {
    const TraceEvent& ev = me.ev;
    if (!first) out += ',';
    first = false;
    out += "{\"name\":\"";
    append_json_escaped(out, ev.name);
    out += "\",\"cat\":\"";
    out += to_string(static_cast<TraceCat>(ev.cat));
    std::snprintf(buf, sizeof(buf), "\",\"ph\":\"%c\",\"ts\":%.3f,\"pid\":%u,\"tid\":1",
                  ev.phase, static_cast<double>(ev.t_ns) / 1000.0, me.pid);
    out += buf;
    if (ev.phase == 'X') {
      std::snprintf(buf, sizeof(buf), ",\"dur\":%.3f",
                    static_cast<double>(ev.dur_ns) / 1000.0);
      out += buf;
    }
    if (ev.phase == 'i') out += ",\"s\":\"t\"";
    std::snprintf(buf, sizeof(buf), ",\"args\":{\"slot\":%llu,\"arg\":%u}}",
                  static_cast<unsigned long long>(ev.slot), ev.arg);
    out += buf;
  }
  out += "],\"metadata\":{\"rings\":[";
  first = true;
  for (size_t t = 0; t < tracks.size(); ++t) {
    const MergedTrack& tr = tracks[t];
    const uint64_t recorded = tr.ring != nullptr ? tr.ring->writes() : 0;
    const uint64_t dropped = tr.ring != nullptr ? tr.ring->dropped() : 0;
    recorded_total += recorded;
    dropped_total += dropped;
    if (!first) out += ',';
    first = false;
    out += "{\"name\":\"";
    append_json_escaped(out, tr.name);
    std::snprintf(buf, sizeof(buf),
                  "\",\"pid\":%u,\"recorded\":%" PRIu64 ",\"retained\":%zu"
                  ",\"dropped\":%" PRIu64 "}",
                  tr.pid, recorded, snapshots[t].size(), dropped);
    out += buf;
  }
  std::snprintf(buf, sizeof(buf),
                "],\"recorded_total\":%" PRIu64 ",\"retained_total\":%zu"
                ",\"dropped_total\":%" PRIu64 "}}",
                recorded_total, retained_total, dropped_total);
  out += buf;
  return out;
}

}  // namespace waran::obs
