// waran::obs fleet telemetry plane — cross-cell aggregation for a sharded
// deployment (rt::GnbDeployment) and for the RIC's reconstructed view of it.
//
// Three pieces:
//
//   CellTelemetry    one cell's telemetry summary as a flat POD: MAC slot
//                    counters, PRB accounting, per-slice scheduler outcomes,
//                    plugin sandbox counters, anomaly counts and the exact
//                    65-bucket log2 histogram state of the slot/scheduler
//                    wall-time distributions. Merging two summaries sums
//                    counters and merges histogram buckets exactly, so a
//                    rollup answers the same quantile queries as one
//                    combined histogram would (tests/obs_fleet_test.cpp
//                    proves this across boundary buckets).
//
//   FleetAggregator  the ground-truth side: `collect_cell` fills a
//                    preallocated CellTelemetry through one callable the
//                    owner passes at construction (rt::GnbDeployment reads
//                    the cell's own MAC, plugin managers, journals and trace
//                    ring), with zero heap allocation — safe to run on the
//                    cell's own worker thread every report period
//                    (bench/abl_obs asserts the zero-alloc contract). The
//                    aggregator keeps the totals, evaluation windows and
//                    rollups (cell -> deployment) and their JSON.
//
//   FleetView        the consumer side: keyed (gnb, cell) latest-summary
//                    store the NearRtRic maintains from telemetry blocks
//                    carried in E2 indications. The invariant the fleet
//                    plane is built around: after a report boundary the
//                    RIC's FleetView equals the aggregator's ground truth
//                    exactly (operator==, bucket for bucket).
//
// The merged cross-cell Chrome trace lives here too: each cell's TraceRing
// becomes one process track (pid = cell id + 1) in a single trace, events
// globally sorted by virtual-clock timestamp with a deterministic
// tie-break, and ring drop counts reported per cell in the trace metadata
// instead of silently truncating.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "obs/metrics.h"

namespace waran::obs {

class TraceRing;

/// One cell's telemetry summary (or a rollup of several — see merge()).
/// Flat POD that compares exactly with operator==. On the E2 wire
/// (ric/e2lite.h) the ids and counters are fixed-width little-endian
/// fields; each histogram's buckets go at 4 bytes while its count and every
/// bucket fit in 32 bits, and at 8 after that, and decode bit for bit.
///
/// Where a deployment cell's fields come from: the MAC, plugin-slot and
/// histogram fields are the registry series those components write, read
/// through their own handles (so, like the series, they carry what earlier
/// deployments in the process wrote until the registry is reset); the
/// anomaly fields count the records of the cell's own journals only.
struct CellTelemetry {
  uint32_t gnb = 0;  ///< 0: a deployment is one gNB (kept in the E2 block and JSON)
  uint32_t cell = 0;
  uint32_t cells_merged = 1;  ///< 1 for a leaf; sum of leaves in a rollup

  // MAC slot loop.
  uint64_t slots = 0;
  uint64_t slot_overruns = 0;
  // PRB accounting across all slices (capacity = n_prbs * slots).
  uint64_t prb_granted = 0;
  uint64_t prb_capacity = 0;
  // Per-slice scheduler outcomes, summed over the cell's slices.
  uint64_t slots_scheduled = 0;
  uint64_t sched_faults = 0;
  uint64_t sanitized_allocs = 0;
  // Plugin sandbox counters, summed over the cell's scheduler slots and the
  // E2 agent's comm/ctl slots.
  uint64_t plugin_calls = 0;
  uint64_t plugin_traps = 0;
  uint64_t plugin_fuel_exhausted = 0;
  uint64_t plugin_declines = 0;
  uint64_t plugin_fuel_used = 0;
  // Containment events the cell's own components journaled (its MAC, its
  // scheduler manager and its agent's manager), counted since they were
  // built: a component's journal starts empty, so a cell never inherits
  // another deployment's records.
  uint64_t quarantines = 0;
  uint64_t frames_rejected = 0;
  uint64_t anomalies = 0;
  // Trace ring accounting (drop visibility per cell).
  uint64_t trace_writes = 0;
  uint64_t trace_dropped = 0;

  HistState slot_wall_ns;   ///< waran_cell_slot_wall_ns{cell}
  HistState sched_wall_ns;  ///< waran_plugin_wall_ns over scheduler slots

  /// Sums counters and merges histogram buckets exactly. The result
  /// represents the union: cells_merged accumulates, cell keeps the lowest
  /// member id (display only; rollups are identified by cells_merged).
  void merge(const CellTelemetry& o);
  bool operator==(const CellTelemetry&) const = default;
  std::string to_json() const;
};

/// One u64 counter of CellTelemetry: its JSON name and its member.
struct TelemetryCounter {
  const char* name;
  uint64_t CellTelemetry::*member;
};

/// Every u64 counter of CellTelemetry, in declaration order — the only
/// list of them. merge(), to_json(), FleetAggregator's window deltas and
/// the E2 telemetry block (ric/e2lite.cpp) all walk this table, so a
/// counter added here is merged, exported and carried on the wire alike.
inline constexpr TelemetryCounter kTelemetryCounters[] = {
    {"slots", &CellTelemetry::slots},
    {"slot_overruns", &CellTelemetry::slot_overruns},
    {"prb_granted", &CellTelemetry::prb_granted},
    {"prb_capacity", &CellTelemetry::prb_capacity},
    {"slots_scheduled", &CellTelemetry::slots_scheduled},
    {"sched_faults", &CellTelemetry::sched_faults},
    {"sanitized_allocs", &CellTelemetry::sanitized_allocs},
    {"plugin_calls", &CellTelemetry::plugin_calls},
    {"plugin_traps", &CellTelemetry::plugin_traps},
    {"plugin_fuel_exhausted", &CellTelemetry::plugin_fuel_exhausted},
    {"plugin_declines", &CellTelemetry::plugin_declines},
    {"plugin_fuel_used", &CellTelemetry::plugin_fuel_used},
    {"quarantines", &CellTelemetry::quarantines},
    {"frames_rejected", &CellTelemetry::frames_rejected},
    {"anomalies", &CellTelemetry::anomalies},
    {"trace_writes", &CellTelemetry::trace_writes},
    {"trace_dropped", &CellTelemetry::trace_dropped},
};

class FleetAggregator {
 public:
  /// Adds cell i's counts into `t`, which arrives zeroed with its ids set.
  /// Runs inside collect_cell, so the same rules hold: no allocation, no
  /// lock, and only state cell i's own worker writes.
  using Collector = std::function<void(size_t cell, CellTelemetry& t)>;

  /// Covers cells 0..cells-1; cell i's summary carries cell id i.
  FleetAggregator(size_t cells, Collector collect);

  size_t cells() const { return totals_.size(); }

  /// Re-reads cell i through the collector into its preallocated summary
  /// and returns it. Zero-alloc warm path; callable from the cell's own
  /// worker thread.
  const CellTelemetry& collect_cell(size_t i);
  /// Last collected totals for cell i.
  const CellTelemetry& cell_total(size_t i) const { return totals_[i]; }

  /// Marks the current totals as the base of a new evaluation window.
  /// collect_cell must have been called for every cell first.
  void begin_window();
  /// Totals minus the window base: what happened inside this window.
  CellTelemetry cell_window(size_t i) const;

  /// Merge of every cell's summary (`window` selects window deltas).
  CellTelemetry fleet_rollup(bool window = false) const;

  /// {"cells":[...per-cell totals...],"fleet":{...rollup...}}
  std::string to_json() const;

 private:
  Collector collect_;
  std::vector<CellTelemetry> totals_;
  std::vector<CellTelemetry> window_base_;
};

/// The RIC-side fleet reconstruction: latest CellTelemetry per (gnb, cell),
/// fed from the telemetry blocks in E2 indications. Two views are equal
/// when they hold the same cells with identical summaries.
class FleetView {
 public:
  void update(const CellTelemetry& t);
  size_t size() const { return cells_.size(); }
  uint64_t updates() const { return updates_; }
  const CellTelemetry* cell(uint32_t gnb, uint32_t cell) const;
  bool operator==(const FleetView& o) const { return cells_ == o.cells_; }
  std::string to_json() const;
  void clear() {
    cells_.clear();
    updates_ = 0;
  }

 private:
  std::map<std::pair<uint32_t, uint32_t>, CellTelemetry> cells_;
  uint64_t updates_ = 0;
};

/// One process track in the merged cross-cell Chrome trace.
struct MergedTrack {
  std::string name;  ///< process_name metadata ("cell0", "ric", ...)
  uint32_t pid = 1;
  const TraceRing* ring = nullptr;
};

/// Stitches the tracks' rings into one Chrome trace: per-track
/// process_name metadata events, all span/instant events tagged with their
/// track's pid and globally sorted by (t_ns, pid, ring order) — a total
/// order, so the bytes are identical across repeated virtual-time runs.
/// The top-level "rings" metadata reports recorded/retained/dropped per
/// track plus totals: wrap-around loss is declared, never silent.
std::string export_merged_chrome_trace(const std::vector<MergedTrack>& tracks);

}  // namespace waran::obs
