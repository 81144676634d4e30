// waran::obs flight recorder — a self-contained post-mortem bundle for SLO
// breaches and anomalies.
//
// When the SloEngine declares a breach (or a chaos invariant fails), the
// operator question is "what was the system doing, and how do I see it
// again". The FlightRecorder answers both in one JSON document:
//
//   context       the deterministic run coordinates: master seed, cell
//                 count, virtual-time flag, episode shape — plus a ready
//                 `replay` command line (waran_chaos --seed ...) that
//                 reproduces the run bit for bit on the virtual clock.
//   health        the breaching HealthReport, verdict by verdict.
//   cells         every cell's window delta and running totals (exact
//                 histogram state included via the telemetry JSON).
//   anomalies     the last records of the deployment's merged anomaly
//                 view (merge_journals' canonical order), newest last.
//   trace_window  the last 16 slots of every cell's trace ring, tagged
//                 with the cell's merged-trace pid.
//
// The bundle is a pure function of deployment state that is itself
// deterministic under virtual time, so capturing the same breach twice
// yields byte-identical bundles — asserted by tests/obs_fleet_test.cpp and
// relied on by the chaos harness's replay contract. The anomaly records
// arrive already merged: each component journal has one writer, and the
// merge orders them without regard to how threaded cells interleaved, so
// `seq` in the bundle is a record's index in that merged order.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "obs/anomaly.h"
#include "obs/fleet.h"
#include "obs/slo.h"

namespace waran::obs {

/// Where the telemetry came from — enough to regenerate the run.
struct FlightContext {
  uint64_t seed = 0;
  uint32_t cells = 1;
  bool virtual_time = true;
  /// Chaos episode shape; rounds == 0 means "not a chaos episode" and the
  /// replay line falls back to the scenario command.
  uint32_t rounds = 0;
  uint32_t slots_per_round = 0;
  /// Free-form provenance ("waran_obs --cells 4", "chaos_episode", ...).
  std::string scenario;
};

class FlightRecorder {
 public:
  explicit FlightRecorder(FlightContext ctx) : ctx_(std::move(ctx)) {}

  const FlightContext& context() const { return ctx_; }

  /// The replay command line embedded in every bundle. A scenario run
  /// replays `end_slot` slots, on virtual time when the context is.
  std::string replay_command(uint64_t end_slot) const;

  /// Builds the bundle. `anomalies` is the merged view (merge_journals),
  /// of which the last 32 records are kept. `end_slot` anchors the trace
  /// window (events with slot >= end_slot - 16 are kept); `tracks` may be
  /// empty when tracing is off.
  std::string capture(std::string_view reason, const HealthReport& health,
                      const FleetAggregator& agg,
                      std::span<const AnomalyRecord> anomalies,
                      const std::vector<MergedTrack>& tracks,
                      uint64_t end_slot) const;

 private:
  FlightContext ctx_;
};

}  // namespace waran::obs
