// waran::obs SLO engine — declarative service-level objectives over the
// fleet telemetry plane.
//
// An SloSpec names one derived metric (slot-deadline miss rate, p99
// scheduler latency, quarantine rate, PRB utilization floor, ...), a scope
// (every cell individually, or the whole-fleet rollup) and a threshold.
// Each evaluation window the SloEngine reads the FleetAggregator's window
// deltas, produces one SloVerdict per (spec, scope instance) and folds them
// into a HealthReport — a machine-checkable verdict list that is a pure
// function of the telemetry, so repeated virtual-time runs yield identical
// reports. Every breached verdict is also recorded in the engine's own
// journal as AnomalyKind::kSloBreach (domain "slo"), which feeds the
// metrics registry and trace ring like every other containment event, and
// is the trigger the FlightRecorder (flight.h) listens for.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "obs/anomaly.h"
#include "obs/fleet.h"

namespace waran::obs {

enum class SloMetric : uint8_t {
  kSlotOverrunRate,      ///< slot_overruns / slots (deadline miss rate)
  kSlotWallP99Ns,        ///< p99 of the slot wall-time histogram
  kSchedWallP99Ns,       ///< p99 of the scheduler-plugin wall-time histogram
  kQuarantineRate,       ///< quarantines / slots
  kSchedFaultRate,       ///< sched_faults / slots_scheduled
  kPrbUtilizationFloor,  ///< prb_granted / prb_capacity, judged as a floor
};

const char* to_string(SloMetric metric);

enum class SloScope : uint8_t {
  kCell,   ///< one verdict per cell, over that cell's window delta
  kFleet,  ///< one verdict over the whole-deployment window rollup
};

struct SloSpec {
  std::string name;
  SloMetric metric = SloMetric::kSlotOverrunRate;
  SloScope scope = SloScope::kCell;
  /// Upper bound for rates/latencies; lower bound for kPrbUtilizationFloor.
  double threshold = 0.0;
};

/// The default objective set the deployment runs under: deadline misses
/// ≤ 1%, scheduler p99 within the slot budget, zero quarantines, scheduler
/// fault rate ≤ 1%, fleet PRB utilization ≥ 10%.
std::vector<SloSpec> default_slos(uint64_t slot_budget_ns);

struct SloVerdict {
  std::string slo;  ///< SloSpec::name
  SloMetric metric = SloMetric::kSlotOverrunRate;
  uint32_t gnb = 0;   ///< 0: a deployment is one gNB (kept in the JSON)
  uint32_t cell = 0;  ///< UINT32_MAX for fleet-scope verdicts
  double observed = 0.0;
  double threshold = 0.0;
  bool breached = false;
  bool operator==(const SloVerdict&) const = default;
};

struct HealthReport {
  uint64_t window_start_slot = 0;
  uint64_t window_end_slot = 0;
  uint64_t window_index = 0;  ///< 0-based evaluation count
  bool healthy = true;
  uint32_t breaches = 0;
  std::vector<SloVerdict> verdicts;
  bool operator==(const HealthReport&) const = default;
  std::string to_json() const;
};

class SloEngine {
 public:
  explicit SloEngine(std::vector<SloSpec> slos);

  const std::vector<SloSpec>& slos() const { return slos_; }

  /// Evaluates every objective against the aggregator's current window
  /// deltas (cell scope) and window rollup (fleet scope). Each breached
  /// verdict is journaled as kSloBreach under domain "slo". Deterministic:
  /// verdict order is (spec order, cell order).
  HealthReport evaluate(const FleetAggregator& agg, uint64_t window_start_slot,
                        uint64_t window_end_slot);

  /// The breaches evaluate() recorded.
  const AnomalyJournal& journal() const { return journal_; }

 private:
  std::vector<SloSpec> slos_;
  uint64_t windows_ = 0;
  AnomalyJournal journal_;
};

}  // namespace waran::obs
