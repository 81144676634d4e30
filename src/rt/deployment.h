// waran::rt multi-cell gNB deployment — the runtime layer's top: one gNB
// hosting N cells, each cell a shard bundling its own GnbMac (with Wasm
// MVNO schedulers behind a per-cell PluginManager), its own E2 Duplex link
// and GnbAgent, and its own trace ring, all reporting to a single shared
// NearRtRic. Each shard's execution is pinned to one CellExecutor worker
// thread; shared state is limited to thread-safe paths (MetricsRegistry
// atomics, Duplex's internal lock, the RIC driven only by the coordinator
// thread). Each component that contains faults journals them itself, so a
// journal has one writer at a time and a deployment's anomalies are its
// own.
//
// run_slots(n) steps every cell in lockstep: all cells execute slot k
// concurrently, park at the executors' idle barrier, then the coordinator
// polls the RIC and advances the virtual clock. With virtual_time this is
// fully deterministic — same config + seed => bit-identical metrics
// snapshot, trace hashes and anomaly view, threaded or not (see digest()).
//
// Construction never throws: wiring failures land in status() and the
// deployment refuses to run.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "analysis/analysis.h"
#include "common/result.h"
#include "obs/anomaly.h"
#include "obs/fleet.h"
#include "obs/flight.h"
#include "obs/slo.h"
#include "ran/mac.h"
#include "ran/scheduler_iface.h"
#include "rt/clock.h"
#include "rt/executor.h"

namespace waran::obs {
class TraceRing;
}
namespace waran::plugin {
class PluginManager;
}
namespace waran::ric {
class Duplex;
class GnbAgent;
class NearRtRic;
class QuotaTableInterScheduler;
}  // namespace waran::ric

namespace waran::rt {

/// One MVNO slice replicated into every cell of the deployment.
struct SliceSpec {
  uint32_t slice_id = 0;
  std::string name;    ///< slice name and scheduler plugin slot
  std::string policy;  ///< intra-slice scheduler kind: "rr", "pf" or "mt"
  double target_rate_bps = 0.0;
  uint32_t quota_prbs = 12;  ///< initial PRB quota (RIC adjusts later)
  uint32_t ues = 2;
};

/// The paper's three-MVNO slicing scenario (§5B).
std::vector<SliceSpec> default_mvno_slices();

struct DeploymentConfig {
  uint32_t cells = 1;
  uint64_t seed = 1;  ///< derives per-cell channel/error seeds
  /// start() the cell executors (one worker thread per cell). Off = every
  /// task runs inline on the caller's thread in the same order — the
  /// differential baseline the determinism tests compare against.
  bool threaded = true;
  /// Run on rt::Clock virtual time for the deployment's lifetime. The
  /// clock advances by one slot period at each step barrier.
  bool virtual_time = true;
  /// Each cell agent's initial slots between E2 indications; the RIC may
  /// change a cell's period through its control plugin. 0 disables the E2
  /// loop entirely: no agents' comm/ctl plugins, no RIC xApp.
  uint32_t report_period_slots = 10;
  /// Per-cell trace ring capacity (0 leaves per-cell tracing off). When on,
  /// the deployment also owns a coordinator-side "ric" ring of the same
  /// capacity, so RIC dispatch spans land in the merged trace too.
  size_t trace_capacity = 0;
  /// Slots per SLO evaluation window (0 disables the SLO engine). The
  /// coordinator judges obs::default_slos(slot budget) at the window's
  /// run_slots barrier.
  uint32_t slo_window_slots = 0;
  /// Admission-time static analysis for the per-cell scheduler plugins
  /// (analysis/analysis.h): verify translated streams and check each
  /// export's static fuel/frame bounds against the PluginLimits budget at
  /// install/swap. kEnforce makes construction fail (status()) on an
  /// over-budget scheduler — one kAdmissionReject anomaly, zero calls.
  analysis::AdmissionMode admission = analysis::AdmissionMode::kOff;
  /// MAC template; cell, domain and error_seed are overridden per cell.
  ran::MacConfig mac;
  std::vector<SliceSpec> slices = default_mvno_slices();
  /// Optional wrapper applied to every slice's Wasm scheduler — the chaos
  /// harness uses this to splice its fault-injecting decorator into each
  /// cell without the deployment knowing about chaos.
  std::function<std::unique_ptr<ran::IntraSliceScheduler>(
      std::unique_ptr<ran::IntraSliceScheduler>, uint32_t cell, uint32_t slice_id)>
      decorate_scheduler;
};

class GnbDeployment {
 public:
  explicit GnbDeployment(DeploymentConfig config);
  ~GnbDeployment();

  GnbDeployment(const GnbDeployment&) = delete;
  GnbDeployment& operator=(const GnbDeployment&) = delete;

  /// Construction outcome; run_slots refuses to run a failed deployment.
  const Status& status() const { return status_; }

  uint32_t cells() const { return static_cast<uint32_t>(cells_.size()); }
  uint64_t slots_run() const { return slots_run_; }

  /// Barrier-stepped execution (deterministic under virtual time).
  Status run_slots(uint32_t n);

  // --- Shard access. Between run_slots calls the workers are parked at
  // --- the idle barrier, so the coordinator may touch any shard safely.
  ran::GnbMac& mac(uint32_t cell);
  ric::GnbAgent& agent(uint32_t cell);  ///< E2 loop must be enabled
  ric::Duplex& link(uint32_t cell);
  plugin::PluginManager& sched_plugins(uint32_t cell);
  CellExecutor& executor(uint32_t cell);
  obs::TraceRing* trace_ring(uint32_t cell);  ///< null if trace_capacity == 0
  ric::NearRtRic& ric() { return *ric_; }

  // --- Fleet telemetry plane (obs/fleet.h). The aggregator is always on:
  // --- per-cell collection reads the cell's own components and rides each
  // --- cell's indication (zero-alloc, on the cell's own thread).
  obs::FleetAggregator& fleet() { return *fleet_; }
  const obs::FleetAggregator& fleet() const { return *fleet_; }
  /// Ground truth for the RIC-reconstruction invariant: the exact summary
  /// each cell last shipped in an indication. In a loss-free run the RIC's
  /// fleet_view() equals this bit for bit.
  obs::FleetView shipped_view() const;

  /// Most recent SLO evaluation (default-constructed before the first
  /// window or when slo_window_slots == 0).
  const obs::HealthReport& last_health() const { return last_health_; }
  uint64_t slo_breach_windows() const { return slo_breach_windows_; }
  /// Invoked by the coordinator after every unhealthy window evaluation,
  /// between barriers (all workers parked) — the flight-recorder trigger.
  void set_breach_hook(std::function<void(const obs::HealthReport&)> hook) {
    breach_hook_ = std::move(hook);
  }

  /// Every component journal, in canonical order: cell by cell its
  /// scheduler manager's, its MAC's (a slot's scheduler faults come before
  /// the MAC's end-of-slot overrun) and its agent manager's; then the RIC
  /// manager's; then the SLO engine's (when on).
  std::vector<const obs::AnomalyJournal*> journals() const;
  /// The deployment's one anomaly view: every retained record of
  /// journals(), ordered by (slot, domain), then by journal in the order
  /// above, then in record order (obs::merge_journals). Threaded and
  /// inline runs give the same view.
  std::vector<obs::AnomalyRecord> anomalies() const;

  /// Replay coordinates embedded in flight bundles; the constructor fills
  /// seed/cells/virtual_time, callers may override (chaos adds its episode
  /// shape, tools their command line).
  void set_flight_context(obs::FlightContext ctx) { flight_ctx_ = std::move(ctx); }
  const obs::FlightContext& flight_context() const { return flight_ctx_; }
  /// Self-contained post-mortem bundle of the deployment's current state
  /// (obs/flight.h). Pure function of deployment state under virtual time.
  std::string capture_flight_bundle(std::string_view reason) const;

  /// Per-cell process tracks (+ the ric ring) for the merged trace.
  std::vector<obs::MergedTrack> trace_tracks() const;
  /// One Chrome trace over every cell's ring and the ric ring, with
  /// per-cell drop accounting in the metadata (obs/fleet.h).
  std::string export_merged_trace() const;

  /// FNV-1a combination of the per-cell trace-ring hashes and the ric
  /// ring's (0 when tracing is off). Deterministic under virtual time.
  uint64_t trace_hash() const;

  /// Deterministic fingerprint of the run: the global metrics JSON
  /// snapshot plus per-cell MAC/slice/agent state, RIC stats and the trace
  /// hash. Two runs with the same config and seed — threaded or inline —
  /// must produce byte-identical digests under virtual time (callers reset
  /// the global registry before constructing the deployment, since its
  /// values accumulate across runs).
  std::string digest() const;

 private:
  struct Cell;

  Status wire_e2_loop();

  DeploymentConfig config_;
  std::optional<VirtualClockGuard> vguard_;
  std::vector<std::unique_ptr<Cell>> cells_;
  std::unique_ptr<ric::NearRtRic> ric_;
  std::unique_ptr<obs::TraceRing> ric_ring_;
  std::unique_ptr<obs::FleetAggregator> fleet_;
  std::unique_ptr<obs::SloEngine> slo_;
  obs::HealthReport last_health_;
  std::function<void(const obs::HealthReport&)> breach_hook_;
  obs::FlightContext flight_ctx_;
  uint64_t slo_breach_windows_ = 0;
  uint64_t window_start_slot_ = 0;
  Status status_;
  uint64_t slots_run_ = 0;
};

}  // namespace waran::rt
