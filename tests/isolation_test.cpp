// Slice-isolation tests for the paper's §3A security claim: a malicious or
// broken MVNO plugin must not be able to affect *another* MVNO's service —
// not by crashing (contained), not by spinning (fuel), not by forging
// grants for the victim's UEs (sanitization), and not by touching its
// memory (separate linear memories, proven in plugin_test).
#include <gtest/gtest.h>

#include <memory>

#include "plugin/manager.h"
#include "ran/mac.h"
#include "sched/native.h"
#include "sched/plugins.h"
#include "sched/wasm_sched.h"
#include "wcc/compiler.h"

namespace waran {
namespace {

struct TwoSliceRun {
  double victim_rate_mbps;
  ran::SliceStats victim_stats;
  ran::SliceStats attacker_stats;
};

// Victim slice 1 always runs the benign wasm RR plugin; slice 2 runs
// `attacker_bytes` (or the same benign plugin for the baseline).
TwoSliceRun run_two_slices(const std::vector<uint8_t>& attacker_bytes) {
  ran::GnbMac mac(ran::MacConfig{});
  mac.set_inter_scheduler(std::make_unique<sched::WeightedShareInterScheduler>());
  plugin::PluginManager mgr;

  auto benign = sched::plugins::scheduler("rr");
  EXPECT_TRUE(benign.ok());
  EXPECT_TRUE(mgr.install("victim", *benign).ok());
  EXPECT_TRUE(mgr.install("attacker", attacker_bytes).ok());

  ran::SliceConfig v;
  v.slice_id = 1;
  mac.add_slice(v, std::make_unique<sched::WasmIntraScheduler>(mgr, "victim"));
  ran::SliceConfig a;
  a.slice_id = 2;
  mac.add_slice(a, std::make_unique<sched::WasmIntraScheduler>(mgr, "attacker"));

  uint32_t victim_ue = mac.add_ue(1, ran::Channel::pinned_mcs(24),
                                  ran::TrafficSource::full_buffer());
  mac.add_ue(2, ran::Channel::pinned_mcs(24), ran::TrafficSource::full_buffer());

  EXPECT_TRUE(mac.run_slots(3000).ok());
  return {mac.ue(victim_ue)->rate_bps(mac.now_s()) / 1e6, *mac.slice_stats(1),
          *mac.slice_stats(2)};
}

class SliceIsolation : public ::testing::TestWithParam<const char*> {};

TEST_P(SliceIsolation, AttackerPluginCannotDegradeVictimSlice) {
  auto benign = sched::plugins::scheduler("rr");
  ASSERT_TRUE(benign.ok());
  TwoSliceRun baseline = run_two_slices(*benign);

  auto attacker = sched::plugins::faulty(GetParam());
  ASSERT_TRUE(attacker.ok());
  TwoSliceRun attacked = run_two_slices(*attacker);

  // The victim's throughput is identical (deterministic simulation: exact).
  EXPECT_DOUBLE_EQ(attacked.victim_rate_mbps, baseline.victim_rate_mbps)
      << GetParam();
  EXPECT_EQ(attacked.victim_stats.scheduler_faults, 0u);
  EXPECT_EQ(attacked.victim_stats.sanitized_allocs, 0u);
}

INSTANTIATE_TEST_SUITE_P(FaultKinds, SliceIsolation,
                         ::testing::Values("oob", "null", "loop", "doublefree",
                                           "shortoutput", "leak"));

TEST(SliceIsolation, GrantForgeryAgainstVictimUesIsSanitized) {
  // An attacker plugin that knows the victim's RNTIs and tries to schedule
  // (i.e. burn quota on) them from its own slice: every forged grant must
  // be dropped, and the victim must be unaffected.
  const char* kForger = R"(
    export fn schedule() -> i32 {
      var out: i32 = 200000;
      store32(out, 2);
      store32(out + 4, 17921);    // 0x4601: the victim's first UE
      store32(out + 8, 52);
      store32(out + 12, 17921);
      store32(out + 16, 52);
      output_write(out, 20);
      return 0;
    }
  )";
  auto forger = wcc::compile(kForger);
  ASSERT_TRUE(forger.ok()) << forger.error().message;

  auto benign = sched::plugins::scheduler("rr");
  ASSERT_TRUE(benign.ok());
  TwoSliceRun baseline = run_two_slices(*benign);
  TwoSliceRun attacked = run_two_slices(*forger);

  EXPECT_DOUBLE_EQ(attacked.victim_rate_mbps, baseline.victim_rate_mbps);
  // Every forged grant was dropped by the resource allocator (§6A
  // sanitization); the attacker only sabotaged its own slice.
  EXPECT_GT(attacked.attacker_stats.sanitized_allocs, 5000u);
  EXPECT_EQ(attacked.victim_stats.sanitized_allocs, 0u);
}

}  // namespace
}  // namespace waran
