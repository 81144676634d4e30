// waran::chaos fault plan — the seed-deterministic schedule behind every
// chaos run. One master seed expands (splitmix64, the same expansion
// Xoshiro256 uses internally) into an independent random stream per fault
// *site* — sandbox crossings, scheduler decisions, slot timing, the E2
// link, plugin loads, memory growth — so adding injections at one site
// never perturbs the schedule at another, and any failing episode replays
// bit-for-bit from its seed alone.
//
// The plan only *decides*; the harness and the layer hooks (PluginManager
// interceptors, Duplex fault stages, GnbMac slot padding, Memory grow
// denial) *apply*. Each applied injection is noted in a log with a
// monotone sequence number, and per-kind counts back the suite's central
// invariant: every injected fault surfaces as exactly one anomaly-journal
// entry (or is provably contained without one).
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "common/rng.h"

namespace waran::chaos {

enum class FaultKind : uint8_t {
  // Sandbox-crossing faults (PluginManager call interceptor).
  kForceTrap = 0,    ///< call fails with a trap before entering the sandbox
  kFuelStarve,       ///< one-call fuel budget of 1: real engine exhaustion
  kDeadlineOverrun,  ///< 24-fuel budget: a real exhaustion mid-execution
  kQuarantineStorm,  ///< 3 consecutive forced traps -> deterministic quarantine
  // Lifecycle faults.
  kLoadFailure,  ///< install/swap refused by the load interceptor
  kGrowDenial,   ///< memory.grow answered -1 (spec-conformant denial)
  // Scheduler-output faults (decorator around the intra-slice scheduler).
  kSchedGarbage,  ///< forged grant prepended: host sanitization must catch it
  kSchedEmpty,    ///< empty allocation list: must be handled gracefully
  kSchedError,    ///< scheduler returns an error: MAC falls back to host RR
  // Timing faults.
  kSlotOverrun,  ///< slot wall-clock padded past the budget
  // E2-link faults (Duplex fault pipeline).
  kLinkCorrupt,    ///< bit flip: comm plugin must reject in-sandbox
  kLinkDrop,       ///< frame silently lost
  kLinkDuplicate,  ///< frame delivered twice
  kLinkReorder,    ///< frame held back and released after later traffic
  kCount
};

inline constexpr size_t kFaultKindCount = static_cast<size_t>(FaultKind::kCount);

const char* to_string(FaultKind kind);

/// Injection rates, expressed per 1024 draws at each site (0 disables the
/// site). Defaults give a busy but analyzable episode: a few faults of
/// every kind over ~100 slots without drowning the scenario.
struct PlanConfig {
  uint16_t call_fault_per_1024 = 40;    ///< per eligible sandbox crossing
  uint16_t storm_per_1024 = 64;         ///< escalation, per fired call fault
  uint16_t sched_fault_per_1024 = 32;   ///< per intra-slice schedule() call
  uint16_t slot_overrun_per_1024 = 10;  ///< per MAC slot
  uint16_t link_fault_per_1024 = 96;    ///< per frame crossing the Duplex
  uint16_t load_failure_per_1024 = 384; ///< per hot-swap attempt
  uint16_t grow_denial_per_1024 = 384;  ///< per grower-plugin call
};

class FaultPlan {
 public:
  explicit FaultPlan(uint64_t seed, PlanConfig config = {});

  uint64_t seed() const { return seed_; }
  const PlanConfig& config() const { return config_; }

  /// Master switch: an inactive plan never injects (the harness flips it
  /// off for the drain phase so in-flight traffic lands cleanly).
  void set_active(bool on) { active_ = on; }
  bool active() const { return active_; }

  // --- Site draws ----------------------------------------------------------
  // Draw methods consume randomness from their site's stream only. A draw
  // that fires is noted immediately when the caller applies it
  // unconditionally; draws whose application can be preempted (scheduler
  // garbage on a call that then faults) are noted by the caller via
  // note_applied().

  /// One sandbox crossing of `slot` under `domain`. Guarantees at most one
  /// injected fault per two consecutive calls of a slot (so non-storm
  /// injections can never accumulate into an accidental quarantine), and
  /// runs storms to completion: once escalated, the next two crossings of
  /// the same slot fault too, and the third is noted as the quarantine.
  struct CallFault {
    FaultKind kind = FaultKind::kForceTrap;
    bool storm_member = false;
  };
  std::optional<CallFault> draw_call(const std::string& domain, const std::string& slot,
                                     bool allow_deadline);

  /// True while a storm on (domain, slot) still has members to deliver —
  /// the harness must not swap or reset-quarantine such a slot (both clear
  /// the consecutive-fault count and would defuse the storm).
  bool storm_active(const std::string& domain, const std::string& slot) const;

  /// One intra-slice scheduling decision. The decorator applies the kind
  /// and calls note_applied(); garbage that cannot be applied (the
  /// underlying call itself faulted) is simply not noted.
  std::optional<FaultKind> draw_sched();

  /// One MAC slot; true means pad the slot past its budget.
  bool draw_slot_overrun(uint64_t slot);

  /// One frame crossing the Duplex. `entropy` seeds corruption offsets and
  /// reorder delays (drawn for every frame to keep the stream aligned
  /// whether or not the fault fires).
  struct LinkFault {
    FaultKind kind = FaultKind::kLinkCorrupt;
    uint64_t entropy = 0;
  };
  std::optional<LinkFault> draw_link();

  /// One hot-swap attempt on `slot`; true means the load interceptor must
  /// refuse it.
  bool draw_load_failure(const std::string& slot);

  /// One grower-plugin call; true means deny its memory.grow.
  bool draw_grow_denial();

  /// Records an injection the caller applied after a deferred draw.
  void note_applied(FaultKind kind, const std::string& site);

  // --- Ledger --------------------------------------------------------------

  uint64_t count(FaultKind kind) const {
    return counts_[static_cast<size_t>(kind)];
  }
  uint64_t total() const { return log_.size(); }

  struct Injection {
    uint64_t seq = 0;
    FaultKind kind = FaultKind::kForceTrap;
    std::string site;
  };
  const std::vector<Injection>& log() const { return log_; }

 private:
  enum Site : size_t { kSiteCall = 0, kSiteSched, kSiteSlot, kSiteLink, kSiteLoad, kSiteGrow, kSiteCount };

  struct SlotState {
    uint32_t storm_remaining = 0;  ///< storm members still to inject
    bool cooldown = false;         ///< next crossing must stay clean
  };

  void note(FaultKind kind, std::string site);
  bool fires(Site site, uint16_t per_1024) {
    return rng_[site].below(1024) < per_1024;
  }

  uint64_t seed_;
  PlanConfig config_;
  bool active_ = true;
  std::array<Xoshiro256, kSiteCount> rng_;
  std::map<std::string, SlotState> call_state_;
  std::array<uint64_t, kFaultKindCount> counts_{};
  std::vector<Injection> log_;
};

}  // namespace waran::chaos
