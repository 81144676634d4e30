// waran::chaos episode harness — stands up the full WA-RAN closed loop on
// an rt::GnbDeployment (N cells, each with the three MVNO slices' Wasm
// schedulers, an E2-lite agent and its Duplex link, all reporting to one
// near-RT RIC running the SLA xApp), threads one FaultPlan per cell through
// every chaos hook in the stack, runs the loop for a seeded episode, and
// then audits the global invariants:
//
//   1. The host never crashes: every plugin/link/timing/lifecycle fault is
//      contained to a Status the loop tolerates.
//   2. Every injected fault surfaces as exactly one anomaly-journal entry
//      of the matching kind (or is provably handled without one: denied
//      grows, empty schedules, dropped frames), and every breached SLO
//      verdict as one kSloBreach entry.
//   3. Conservation laws hold per cell: PRB grants never exceed carrier
//      capacity, and link frames balance (sent + duplicated == delivered +
//      dropped).
//   4. Per-slot accounting balances across layers: SlotHealth, CallCostAcc
//      and the metrics registry agree call for call in every manager.
//   5. The engine's warm call path stays allocation-free even while faults
//      fire around it (measured via the heap probe when the embedding
//      binary installs the counting operator new).
//
// The same seed always produces the same episode: `waran_chaos --seed S`
// replays any CI failure bit-for-bit.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "chaos/fault_plan.h"

namespace waran::chaos {

struct EpisodeOptions {
  uint64_t seed = 1;
  uint32_t rounds = 6;           ///< E2 report rounds per episode
  uint32_t slots_per_round = 15; ///< MAC slots between indications
  bool warm_path_probe = true;   ///< run the zero-alloc warm-call probe
  /// Cells in the deployment, each on its own worker thread with its own
  /// FaultPlan and every fault site; the RIC's xApp draws from cell 0's
  /// plan. Any count runs the same code path (0 is treated as 1).
  uint32_t cells = 1;
  /// Run the episode on rt::Clock virtual time: the campaign executes as
  /// fast as the CPU allows (no wall-clock pacing or clock syscalls) and
  /// slot overruns, the one timing fault, land via injected padding.
  /// Deadline overruns are tiny fuel budgets, the same on either clock.
  bool virtual_time = false;
};

struct EpisodeReport {
  uint64_t seed = 0;
  bool passed = false;
  std::vector<std::string> violations;

  uint64_t slots = 0;
  uint64_t injections = 0;
  uint64_t anomalies = 0;
  uint64_t contained_errors = 0;  ///< non-fatal Status errors the loop absorbed
  uint64_t warm_heap_allocs = 0;  ///< heap allocations during the warm probe
  /// Episodes run the obs SLO engine with one window per round; chaos
  /// faults are expected to breach objectives, and the audit checks the
  /// breach accounting is exact (journal entries == breached verdicts).
  uint64_t slo_breach_windows = 0;  ///< evaluation windows flagged unhealthy
  uint64_t slo_breaches = 0;        ///< breached SLO verdicts across windows
  /// Flight-recorder bundle captured at the first unhealthy window (empty
  /// when the episode never breached). `waran_chaos --flight-dir` persists
  /// these; the bundle's embedded replay command reproduces it bit-for-bit
  /// under virtual time.
  std::string flight_bundle;
  std::array<uint64_t, kFaultKindCount> injected_by_kind{};
  std::vector<FaultPlan::Injection> injection_log;
};

/// Runs one seeded chaos episode against a fresh deployment and checks
/// every invariant. Resets the global metric values.
EpisodeReport run_episode(const EpisodeOptions& options);

struct CampaignReport {
  uint32_t episodes = 0;
  uint32_t failures = 0;
  uint64_t injections = 0;
  uint64_t anomalies = 0;
  std::array<uint64_t, kFaultKindCount> injected_by_kind{};
  std::vector<EpisodeReport> failed;  ///< reports of failing episodes only
};

/// Runs `episodes` consecutive episodes with seeds base_seed, base_seed+1,
/// ... (so any failure replays via run_episode with that exact seed).
CampaignReport run_campaign(uint64_t base_seed, uint32_t episodes,
                            const EpisodeOptions& base = {});

/// One-line human summary of an episode (seed, injections, verdict).
std::string summarize(const EpisodeReport& report);

}  // namespace waran::chaos
