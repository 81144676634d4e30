#include "chaos/fault_plan.h"

namespace waran::chaos {

namespace {

uint64_t splitmix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace

const char* to_string(FaultKind kind) {
  switch (kind) {
    case FaultKind::kForceTrap: return "force_trap";
    case FaultKind::kFuelStarve: return "fuel_starve";
    case FaultKind::kDeadlineOverrun: return "deadline_overrun";
    case FaultKind::kQuarantineStorm: return "quarantine_storm";
    case FaultKind::kLoadFailure: return "load_failure";
    case FaultKind::kGrowDenial: return "grow_denial";
    case FaultKind::kSchedGarbage: return "sched_garbage";
    case FaultKind::kSchedEmpty: return "sched_empty";
    case FaultKind::kSchedError: return "sched_error";
    case FaultKind::kSlotOverrun: return "slot_overrun";
    case FaultKind::kLinkCorrupt: return "link_corrupt";
    case FaultKind::kLinkDrop: return "link_drop";
    case FaultKind::kLinkDuplicate: return "link_duplicate";
    case FaultKind::kLinkReorder: return "link_reorder";
    case FaultKind::kCount: break;
  }
  return "unknown";
}

FaultPlan::FaultPlan(uint64_t seed, PlanConfig config)
    : seed_(seed),
      config_(config),
      rng_{Xoshiro256(splitmix(seed ^ 0x11)), Xoshiro256(splitmix(seed ^ 0x22)),
           Xoshiro256(splitmix(seed ^ 0x33)), Xoshiro256(splitmix(seed ^ 0x44)),
           Xoshiro256(splitmix(seed ^ 0x55)), Xoshiro256(splitmix(seed ^ 0x66))} {}

void FaultPlan::note(FaultKind kind, std::string site) {
  ++counts_[static_cast<size_t>(kind)];
  log_.push_back(Injection{log_.size(), kind, std::move(site)});
}

void FaultPlan::note_applied(FaultKind kind, const std::string& site) {
  note(kind, site);
}

std::optional<FaultPlan::CallFault> FaultPlan::draw_call(const std::string& domain,
                                                         const std::string& slot,
                                                         bool allow_deadline) {
  if (!active_) return std::nullopt;
  std::string key = domain + "/" + slot;
  SlotState& st = call_state_[key];

  // A storm in flight owns the slot: every crossing faults until the third
  // consecutive fault latches the quarantine.
  if (st.storm_remaining > 0) {
    --st.storm_remaining;
    note(FaultKind::kForceTrap, key);
    if (st.storm_remaining == 0) {
      // The manager quarantines on this very call; the next crossing the
      // interceptor sees comes only after the harness lifts it — keep that
      // one clean so the consecutive-fault count restarts from zero.
      note(FaultKind::kQuarantineStorm, key);
      st.cooldown = true;
    }
    return CallFault{FaultKind::kForceTrap, true};
  }

  // One guaranteed-clean crossing after every injection: non-storm faults
  // can then never stack into the manager's 3-consecutive threshold.
  if (st.cooldown) {
    st.cooldown = false;
    return std::nullopt;
  }

  if (!fires(kSiteCall, config_.call_fault_per_1024)) return std::nullopt;

  if (rng_[kSiteCall].below(1024) < config_.storm_per_1024) {
    st.storm_remaining = 2;  // this crossing + two more = quarantine
    note(FaultKind::kForceTrap, key);
    return CallFault{FaultKind::kForceTrap, true};
  }

  st.cooldown = true;
  uint64_t pick = rng_[kSiteCall].below(allow_deadline ? 3 : 2);
  FaultKind kind = pick == 0   ? FaultKind::kForceTrap
                   : pick == 1 ? FaultKind::kFuelStarve
                               : FaultKind::kDeadlineOverrun;
  note(kind, key);
  return CallFault{kind, false};
}

bool FaultPlan::storm_active(const std::string& domain, const std::string& slot) const {
  auto it = call_state_.find(domain + "/" + slot);
  return it != call_state_.end() && it->second.storm_remaining > 0;
}

std::optional<FaultKind> FaultPlan::draw_sched() {
  if (!active_) return std::nullopt;
  if (!fires(kSiteSched, config_.sched_fault_per_1024)) return std::nullopt;
  switch (rng_[kSiteSched].below(3)) {
    case 0: return FaultKind::kSchedGarbage;
    case 1: return FaultKind::kSchedEmpty;
    default: return FaultKind::kSchedError;
  }
}

bool FaultPlan::draw_slot_overrun(uint64_t slot) {
  if (!active_) return false;
  if (!fires(kSiteSlot, config_.slot_overrun_per_1024)) return false;
  note(FaultKind::kSlotOverrun, "slot " + std::to_string(slot));
  return true;
}

std::optional<FaultPlan::LinkFault> FaultPlan::draw_link() {
  if (!active_) return std::nullopt;
  // Entropy is drawn for every frame so the stream position is a function
  // of frame count alone, not of which faults happened to fire.
  uint64_t entropy = rng_[kSiteLink].next();
  if (rng_[kSiteLink].below(1024) >= config_.link_fault_per_1024) return std::nullopt;
  FaultKind kind;
  switch (rng_[kSiteLink].below(4)) {
    case 0: kind = FaultKind::kLinkCorrupt; break;
    case 1: kind = FaultKind::kLinkDrop; break;
    case 2: kind = FaultKind::kLinkDuplicate; break;
    default: kind = FaultKind::kLinkReorder; break;
  }
  note(kind, "link");
  return LinkFault{kind, entropy};
}

bool FaultPlan::draw_load_failure(const std::string& slot) {
  if (!active_) return false;
  if (!fires(kSiteLoad, config_.load_failure_per_1024)) return false;
  note(FaultKind::kLoadFailure, slot);
  return true;
}

bool FaultPlan::draw_grow_denial() {
  if (!active_) return false;
  if (!fires(kSiteGrow, config_.grow_denial_per_1024)) return false;
  note(FaultKind::kGrowDenial, "grower");
  return true;
}

}  // namespace waran::chaos
