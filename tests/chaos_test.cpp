// waran::chaos — fault-plan unit tests plus the invariant-checked chaos
// campaign. The campaign runs consecutive seeded episodes of the full
// gNB<->RIC deployment with every fault site armed — 200 on one cell, and
// 25 on four threaded cells — and any failure prints the seed so
// `waran_chaos --seed <s>` replays it bit-for-bit. This TU installs the
// counting operator new (tests/heap_probe_guard.h), so each episode's
// warm-path probe asserts the zero-allocation guarantee against real heap
// traffic, not a stubbed counter.
#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <ostream>
#include <string>
#include <vector>

#include "chaos/fault_plan.h"
#include "chaos/harness.h"
#include "common/log.h"
#include "tests/heap_probe_guard.h"

namespace waran::chaos {
namespace {

// Storm-induced quarantines are the point of this suite; without this the
// campaign prints hundreds of expected [WARN] lines.
class QuietExpectedWarnings : public ::testing::Environment {
 public:
  void SetUp() override { set_log_level("plugin", LogLevel::kError); }
  void TearDown() override { clear_log_level_overrides(); }
};
const auto* const kQuiet =
    ::testing::AddGlobalTestEnvironment(new QuietExpectedWarnings);

// --- FaultPlan unit tests ---------------------------------------------------

TEST(FaultPlan, SameSeedSameDraws) {
  FaultPlan a(0x5eed);
  FaultPlan b(0x5eed);
  for (int i = 0; i < 512; ++i) {
    auto fa = a.draw_call("mac", "iot-co", true);
    auto fb = b.draw_call("mac", "iot-co", true);
    ASSERT_EQ(fa.has_value(), fb.has_value()) << "draw " << i;
    if (fa) {
      EXPECT_EQ(fa->kind, fb->kind);
      EXPECT_EQ(fa->storm_member, fb->storm_member);
    }
    EXPECT_EQ(a.draw_sched(), b.draw_sched());
    EXPECT_EQ(a.draw_slot_overrun(i), b.draw_slot_overrun(i));
    auto la = a.draw_link();
    auto lb = b.draw_link();
    ASSERT_EQ(la.has_value(), lb.has_value());
    if (la) {
      EXPECT_EQ(la->kind, lb->kind);
      EXPECT_EQ(la->entropy, lb->entropy);
    }
  }
  EXPECT_EQ(a.total(), b.total());
  for (size_t k = 0; k < kFaultKindCount; ++k) {
    EXPECT_EQ(a.count(static_cast<FaultKind>(k)), b.count(static_cast<FaultKind>(k)));
  }
}

TEST(FaultPlan, SitesDrawFromIndependentStreams) {
  // Interleaving draws at other sites must not shift the call-site stream:
  // that is what makes adding a new injection point a non-event for replay.
  FaultPlan pure(7);
  FaultPlan mixed(7);
  for (int i = 0; i < 256; ++i) {
    // Burn randomness at every other site in the mixed plan only.
    mixed.draw_sched();
    mixed.draw_link();
    mixed.draw_slot_overrun(i);
    mixed.draw_load_failure("iot-co");
    mixed.draw_grow_denial();
    auto fp = pure.draw_call("mac", "s", true);
    auto fm = mixed.draw_call("mac", "s", true);
    ASSERT_EQ(fp.has_value(), fm.has_value()) << "draw " << i;
    if (fp) {
      EXPECT_EQ(fp->kind, fm->kind);
    }
  }
}

TEST(FaultPlan, StormRunsToQuarantineThenCoolsDown) {
  // Force the escalation path: every crossing faults and every fault is a
  // storm. The storm must deliver exactly three consecutive traps, note one
  // quarantine, and leave the crossing after it clean.
  PlanConfig cfg;
  cfg.call_fault_per_1024 = 1024;
  cfg.storm_per_1024 = 1024;
  FaultPlan plan(1, cfg);

  auto f1 = plan.draw_call("mac", "s", true);
  ASSERT_TRUE(f1.has_value());
  EXPECT_EQ(f1->kind, FaultKind::kForceTrap);
  EXPECT_TRUE(f1->storm_member);
  EXPECT_TRUE(plan.storm_active("mac", "s"));

  auto f2 = plan.draw_call("mac", "s", true);
  auto f3 = plan.draw_call("mac", "s", true);
  ASSERT_TRUE(f2.has_value());
  ASSERT_TRUE(f3.has_value());
  EXPECT_TRUE(f2->storm_member);
  EXPECT_TRUE(f3->storm_member);
  EXPECT_FALSE(plan.storm_active("mac", "s"));
  EXPECT_EQ(plan.count(FaultKind::kForceTrap), 3u);
  EXPECT_EQ(plan.count(FaultKind::kQuarantineStorm), 1u);

  // Cooldown: the crossing after the quarantine is guaranteed clean even
  // though the fire rate is 100%.
  EXPECT_FALSE(plan.draw_call("mac", "s", true).has_value());
}

TEST(FaultPlan, NonStormFaultsNeverStackConsecutively) {
  // With storms disabled, the cooldown guarantees at most one injected
  // fault per two crossings — so plain faults can never accumulate into
  // the manager's 3-consecutive quarantine threshold by accident.
  PlanConfig cfg;
  cfg.call_fault_per_1024 = 1024;
  cfg.storm_per_1024 = 0;
  FaultPlan plan(2, cfg);
  int consecutive = 0;
  for (int i = 0; i < 200; ++i) {
    if (plan.draw_call("mac", "s", true)) {
      ++consecutive;
      ASSERT_LT(consecutive, 3) << "three consecutive non-storm faults";
    } else {
      consecutive = 0;
    }
  }
  EXPECT_EQ(plan.count(FaultKind::kQuarantineStorm), 0u);
}

TEST(FaultPlan, DeadlineOnlyWhereAllowed) {
  PlanConfig cfg;
  cfg.call_fault_per_1024 = 1024;
  cfg.storm_per_1024 = 0;
  FaultPlan plan(3, cfg);
  for (int i = 0; i < 300; ++i) {
    auto f = plan.draw_call("ric", "xapp:sla", /*allow_deadline=*/false);
    if (f) {
      EXPECT_NE(f->kind, FaultKind::kDeadlineOverrun);
    }
  }
}

TEST(FaultPlan, InactivePlanNeverInjects) {
  PlanConfig cfg;
  cfg.call_fault_per_1024 = 1024;
  cfg.sched_fault_per_1024 = 1024;
  cfg.slot_overrun_per_1024 = 1024;
  cfg.link_fault_per_1024 = 1024;
  cfg.load_failure_per_1024 = 1024;
  cfg.grow_denial_per_1024 = 1024;
  FaultPlan plan(4, cfg);
  plan.set_active(false);
  for (int i = 0; i < 64; ++i) {
    EXPECT_FALSE(plan.draw_call("mac", "s", true).has_value());
    EXPECT_FALSE(plan.draw_sched().has_value());
    EXPECT_FALSE(plan.draw_slot_overrun(i));
    EXPECT_FALSE(plan.draw_link().has_value());
    EXPECT_FALSE(plan.draw_load_failure("s"));
    EXPECT_FALSE(plan.draw_grow_denial());
  }
  EXPECT_EQ(plan.total(), 0u);
}

// --- Episode determinism ----------------------------------------------------

TEST(ChaosEpisode, SameSeedReplaysBitForBit) {
  EpisodeOptions opts;
  opts.seed = 42;
  EpisodeReport a = run_episode(opts);
  EpisodeReport b = run_episode(opts);
  EXPECT_TRUE(a.passed) << summarize(a);
  EXPECT_EQ(a.slots, b.slots);
  EXPECT_EQ(a.injections, b.injections);
  EXPECT_EQ(a.anomalies, b.anomalies);
  EXPECT_EQ(a.contained_errors, b.contained_errors);
  EXPECT_EQ(a.injected_by_kind, b.injected_by_kind);
  ASSERT_EQ(a.injection_log.size(), b.injection_log.size());
  for (size_t i = 0; i < a.injection_log.size(); ++i) {
    EXPECT_EQ(a.injection_log[i].kind, b.injection_log[i].kind) << "entry " << i;
    EXPECT_EQ(a.injection_log[i].site, b.injection_log[i].site) << "entry " << i;
  }
}

TEST(ChaosEpisode, DifferentSeedsDiverge) {
  EpisodeOptions opts;
  opts.seed = 100;
  opts.rounds = 3;
  opts.warm_path_probe = false;
  EpisodeReport a = run_episode(opts);
  opts.seed = 101;
  EpisodeReport b = run_episode(opts);
  EXPECT_TRUE(a.passed) << summarize(a);
  EXPECT_TRUE(b.passed) << summarize(b);
  // Both injected something, and not the identical schedule.
  EXPECT_GT(a.injections, 0u);
  EXPECT_GT(b.injections, 0u);
  bool same = a.injection_log.size() == b.injection_log.size();
  if (same) {
    for (size_t i = 0; i < a.injection_log.size(); ++i) {
      same = same && a.injection_log[i].kind == b.injection_log[i].kind &&
             a.injection_log[i].site == b.injection_log[i].site;
    }
  }
  EXPECT_FALSE(same) << "seeds 100 and 101 produced identical schedules";
}

TEST(ChaosEpisode, VirtualTimeReplaysBitForBit) {
  // Same episode on the rt virtual clock: the timing fault path (slot
  // overruns via injected padding) must stay fully deterministic with no
  // wall clock involved.
  EpisodeOptions opts;
  opts.seed = 77;
  opts.virtual_time = true;
  EpisodeReport a = run_episode(opts);
  EpisodeReport b = run_episode(opts);
  EXPECT_TRUE(a.passed) << summarize(a);
  EXPECT_GT(a.injections, 0u);
  EXPECT_EQ(a.slots, b.slots);
  EXPECT_EQ(a.injections, b.injections);
  EXPECT_EQ(a.anomalies, b.anomalies);
  EXPECT_EQ(a.contained_errors, b.contained_errors);
  EXPECT_EQ(a.injected_by_kind, b.injected_by_kind);
  ASSERT_EQ(a.injection_log.size(), b.injection_log.size());
  for (size_t i = 0; i < a.injection_log.size(); ++i) {
    EXPECT_EQ(a.injection_log[i].kind, b.injection_log[i].kind) << "entry " << i;
    EXPECT_EQ(a.injection_log[i].site, b.injection_log[i].site) << "entry " << i;
  }
}

TEST(ChaosEpisode, MultiCellEpisodeHoldsInvariants) {
  // Four cells on four worker threads against the shared RIC, one fault
  // plan per cell: the full invariant suite (journal attribution, link
  // conservation, PRB caps, cross-layer accounting) must hold per cell.
  EpisodeOptions opts;
  opts.seed = 9;
  opts.cells = 4;
  opts.virtual_time = true;
  EpisodeReport r = run_episode(opts);
  EXPECT_TRUE(r.passed) << summarize(r);
  for (const auto& v : r.violations) ADD_FAILURE() << v;
  EXPECT_GT(r.injections, 0u);
  EXPECT_GT(r.anomalies, 0u);
  EXPECT_EQ(r.slots % 4, 0u);  // every cell ran the same slot count

  // And it replays bit-for-bit despite the worker threads.
  EpisodeReport r2 = run_episode(opts);
  EXPECT_EQ(r.injections, r2.injections);
  EXPECT_EQ(r.anomalies, r2.anomalies);
  EXPECT_EQ(r.injected_by_kind, r2.injected_by_kind);
}

// --- The campaign -----------------------------------------------------------

// One campaign input: consecutive seeds from base_seed on a deployment of
// `cells` cells.
struct CampaignShape {
  uint64_t base_seed;
  uint32_t episodes;
  uint32_t cells;
  bool virtual_time;
};

// Names the ctest entry (e.g. ".../4cells_25episodes_vtime").
void PrintTo(const CampaignShape& s, std::ostream* os) {
  *os << s.cells << (s.cells == 1 ? "cell_" : "cells_") << s.episodes << "episodes"
      << (s.virtual_time ? "_vtime" : "");
}

class ChaosCampaign : public ::testing::TestWithParam<CampaignShape> {};

TEST_P(ChaosCampaign, SeededEpisodesHoldAllInvariantsAndFireEveryKind) {
  const CampaignShape shape = GetParam();
  EpisodeOptions base;
  base.cells = shape.cells;
  base.virtual_time = shape.virtual_time;
  CampaignReport camp = run_campaign(shape.base_seed, shape.episodes, base);
  EXPECT_EQ(camp.episodes, shape.episodes);
  for (const EpisodeReport& r : camp.failed) {
    ADD_FAILURE() << summarize(r) << "\n  replay: waran_chaos --seed " << r.seed
                  << " --cells " << shape.cells
                  << (shape.virtual_time ? " --virtual-time" : "");
  }
  EXPECT_EQ(camp.failures, 0u);
  EXPECT_GT(camp.injections, 0u);
  EXPECT_GT(camp.anomalies, 0u);

  // The campaign must actually exercise every fault kind — a fault site
  // that silently stopped firing would hollow out the suite. The lifecycle
  // kinds (load failure, grow denial) must fire on a multi-cell deployment
  // too, not only on one cell.
  for (size_t k = 0; k < kFaultKindCount; ++k) {
    EXPECT_GT(camp.injected_by_kind[k], 0u)
        << "fault kind never fired across " << shape.episodes
        << " episodes: " << to_string(static_cast<FaultKind>(k));
  }
}

INSTANTIATE_TEST_SUITE_P(Topologies, ChaosCampaign,
                         ::testing::Values(CampaignShape{1000, 200, 1, false},
                                           CampaignShape{1000, 25, 4, true}));

}  // namespace
}  // namespace waran::chaos
