#include "obs/slo.h"

#include <cinttypes>
#include <cstdio>
#include <limits>

namespace waran::obs {

const char* to_string(SloMetric metric) {
  switch (metric) {
    case SloMetric::kSlotOverrunRate: return "slot_overrun_rate";
    case SloMetric::kSlotWallP99Ns: return "slot_wall_p99_ns";
    case SloMetric::kSchedWallP99Ns: return "sched_wall_p99_ns";
    case SloMetric::kQuarantineRate: return "quarantine_rate";
    case SloMetric::kSchedFaultRate: return "sched_fault_rate";
    case SloMetric::kPrbUtilizationFloor: return "prb_utilization";
  }
  return "unknown";
}

std::vector<SloSpec> default_slos(uint64_t slot_budget_ns) {
  return {
      {"slot_deadline_miss", SloMetric::kSlotOverrunRate, SloScope::kCell, 0.01},
      {"sched_latency_p99", SloMetric::kSchedWallP99Ns, SloScope::kCell,
       static_cast<double>(slot_budget_ns)},
      {"quarantine_free", SloMetric::kQuarantineRate, SloScope::kCell, 0.0},
      {"sched_fault_rate", SloMetric::kSchedFaultRate, SloScope::kCell, 0.01},
      {"prb_utilization_floor", SloMetric::kPrbUtilizationFloor, SloScope::kFleet,
       0.10},
  };
}

namespace {

bool is_floor(SloMetric metric) { return metric == SloMetric::kPrbUtilizationFloor; }

/// Derives the spec's scalar from a window delta. Ratios over an empty
/// denominator read as 0 (nothing happened, nothing breached — floors skip
/// the window instead, handled by the caller).
double metric_value(SloMetric metric, const CellTelemetry& t) {
  switch (metric) {
    case SloMetric::kSlotOverrunRate:
      return t.slots == 0 ? 0.0
                          : static_cast<double>(t.slot_overruns) /
                                static_cast<double>(t.slots);
    case SloMetric::kSlotWallP99Ns:
      return static_cast<double>(t.slot_wall_ns.quantile(0.99));
    case SloMetric::kSchedWallP99Ns:
      return static_cast<double>(t.sched_wall_ns.quantile(0.99));
    case SloMetric::kQuarantineRate:
      return t.slots == 0 ? 0.0
                          : static_cast<double>(t.quarantines) /
                                static_cast<double>(t.slots);
    case SloMetric::kSchedFaultRate:
      return t.slots_scheduled == 0 ? 0.0
                                    : static_cast<double>(t.sched_faults) /
                                          static_cast<double>(t.slots_scheduled);
    case SloMetric::kPrbUtilizationFloor:
      return t.prb_capacity == 0 ? 0.0
                                 : static_cast<double>(t.prb_granted) /
                                       static_cast<double>(t.prb_capacity);
  }
  return 0.0;
}

}  // namespace

SloEngine::SloEngine(std::vector<SloSpec> slos) : slos_(std::move(slos)) {}

HealthReport SloEngine::evaluate(const FleetAggregator& agg,
                                 uint64_t window_start_slot,
                                 uint64_t window_end_slot) {
  HealthReport report;
  report.window_start_slot = window_start_slot;
  report.window_end_slot = window_end_slot;
  report.window_index = windows_++;
  for (const SloSpec& spec : slos_) {
    auto judge = [&](const CellTelemetry& t, uint32_t cell) {
      if (is_floor(spec.metric) && t.prb_capacity == 0) return;  // idle window
      SloVerdict v;
      v.slo = spec.name;
      v.metric = spec.metric;
      v.cell = cell;
      v.observed = metric_value(spec.metric, t);
      v.threshold = spec.threshold;
      v.breached = is_floor(spec.metric) ? v.observed < spec.threshold
                                         : v.observed > spec.threshold;
      if (v.breached) {
        report.healthy = false;
        ++report.breaches;
        char detail[160];
        std::snprintf(detail, sizeof(detail),
                      "%s %s=%.6g %s threshold %.6g (slots %" PRIu64 "-%" PRIu64 ")",
                      spec.name.c_str(), to_string(spec.metric), v.observed,
                      is_floor(spec.metric) ? "below" : "above", spec.threshold,
                      window_start_slot, window_end_slot);
        std::string source = cell == std::numeric_limits<uint32_t>::max()
                                 ? "fleet"
                                 : "cell " + std::to_string(cell);
        journal_.record(AnomalyKind::kSloBreach, "slo", source, detail);
      }
      report.verdicts.push_back(std::move(v));
    };
    if (spec.scope == SloScope::kFleet) {
      judge(agg.fleet_rollup(/*window=*/true), std::numeric_limits<uint32_t>::max());
    } else {
      for (size_t i = 0; i < agg.cells(); ++i) {
        const CellTelemetry w = agg.cell_window(i);
        judge(w, w.cell);
      }
    }
  }
  return report;
}

std::string HealthReport::to_json() const {
  std::string out;
  out.reserve(256 + verdicts.size() * 160);
  char buf[224];
  std::snprintf(buf, sizeof(buf),
                "{\"window_start_slot\":%" PRIu64 ",\"window_end_slot\":%" PRIu64
                ",\"window_index\":%" PRIu64 ",\"healthy\":%s,\"breaches\":%u,"
                "\"verdicts\":[",
                window_start_slot, window_end_slot, window_index,
                healthy ? "true" : "false", breaches);
  out += buf;
  bool first = true;
  for (const SloVerdict& v : verdicts) {
    if (!first) out += ',';
    first = false;
    out += "{\"slo\":\"";
    append_json_escaped(out, v.slo);
    if (v.cell == std::numeric_limits<uint32_t>::max()) {
      std::snprintf(buf, sizeof(buf), "\",\"metric\":\"%s\",\"scope\":\"fleet\"",
                    to_string(v.metric));
    } else {
      std::snprintf(buf, sizeof(buf),
                    "\",\"metric\":\"%s\",\"gnb\":%u,\"cell\":%u", to_string(v.metric),
                    v.gnb, v.cell);
    }
    out += buf;
    std::snprintf(buf, sizeof(buf),
                  ",\"observed\":%.6g,\"threshold\":%.6g,\"breached\":%s}",
                  v.observed, v.threshold, v.breached ? "true" : "false");
    out += buf;
  }
  out += "]}";
  return out;
}

}  // namespace waran::obs
