// System-level integration stress: many slices, mixed native and Wasm
// schedulers, fading channels, bursty traffic, hot swaps and quarantines
// happening mid-run — with conservation invariants checked throughout.
#include <gtest/gtest.h>

#include <memory>

#include "common/rng.h"
#include "plugin/manager.h"
#include "ran/mac.h"
#include "ran/phy_tables.h"
#include "sched/native.h"
#include "sched/plugins.h"
#include "sched/wasm_sched.h"

namespace waran {
namespace {

TEST(Integration, EightSlicesMixedSchedulersTenSeconds) {
  ran::GnbMac mac(ran::MacConfig{});
  mac.set_inter_scheduler(std::make_unique<sched::WeightedShareInterScheduler>());
  plugin::PluginManager mgr;

  const char* kinds[] = {"rr", "pf", "mt"};
  Xoshiro256 rng(2026);
  uint32_t total_ues = 0;
  for (uint32_t slice_id = 1; slice_id <= 8; ++slice_id) {
    ran::SliceConfig cfg;
    cfg.slice_id = slice_id;
    cfg.weight = 1.0 + (slice_id % 3);
    const char* kind = kinds[slice_id % 3];
    if (slice_id % 2 == 0) {
      // Even slices run Wasm plugins, odd slices native schedulers.
      std::string slot = "s" + std::to_string(slice_id);
      auto bytes = sched::plugins::scheduler(kind);
      ASSERT_TRUE(bytes.ok());
      ASSERT_TRUE(mgr.install(slot, *bytes).ok());
      mac.add_slice(cfg, std::make_unique<sched::WasmIntraScheduler>(mgr, slot));
    } else {
      mac.add_slice(cfg, sched::make_native_scheduler(kind));
    }
    uint32_t n_ues = 2 + slice_id % 4;
    for (uint32_t u = 0; u < n_ues; ++u) {
      ran::Channel::FadingParams fading;
      fading.mean_snr_db = 8.0 + rng.uniform() * 14.0;
      ran::TrafficSource traffic =
          u % 3 == 0   ? ran::TrafficSource::full_buffer()
          : u % 3 == 1 ? ran::TrafficSource::cbr(1e6 + rng.uniform() * 4e6)
                       : ran::TrafficSource::on_off(8e6, 200, 400, slice_id * 10 + u);
      mac.add_ue(slice_id, ran::Channel::fading(fading, slice_id * 100 + u), traffic);
      ++total_ues;
    }
  }

  ASSERT_TRUE(mac.run_slots(10000).ok());

  // Invariants.
  uint64_t total_delivered = 0;
  for (uint32_t rnti : mac.ue_rntis()) {
    total_delivered += mac.ue(rnti)->delivered_bits();
  }
  // Capacity bound: no more bits than a full carrier at peak MCS for 10 s.
  uint64_t capacity_bound =
      static_cast<uint64_t>(ran::transport_block_bits(28, 52)) * 10000;
  EXPECT_LE(total_delivered, capacity_bound);
  EXPECT_GT(total_delivered, capacity_bound / 20);  // and it actually ran

  for (uint32_t slice_id : mac.slice_ids()) {
    const ran::SliceStats* st = mac.slice_stats(slice_id);
    EXPECT_EQ(st->scheduler_faults, 0u) << "slice " << slice_id
                                        << ": " << st->last_error;
    EXPECT_LE(st->last_quota, 52u);
  }
  EXPECT_EQ(mac.ue_rntis().size(), total_ues);
}

TEST(Integration, HotSwapStormNeverDropsService) {
  // Swap a slice's plugin every 200 ms among all three policies while UEs
  // stream; throughput must never collapse and no slot may fault.
  ran::GnbMac mac(ran::MacConfig{});
  mac.set_inter_scheduler(std::make_unique<sched::WeightedShareInterScheduler>());
  plugin::PluginManager mgr;
  auto rr = sched::plugins::scheduler("rr");
  ASSERT_TRUE(rr.ok());
  ASSERT_TRUE(mgr.install("mvno", *rr).ok());
  ran::SliceConfig cfg;
  cfg.slice_id = 1;
  mac.add_slice(cfg, std::make_unique<sched::WasmIntraScheduler>(mgr, "mvno"));
  uint32_t rnti = mac.add_ue(1, ran::Channel::pinned_mcs(24),
                             ran::TrafficSource::full_buffer());

  const char* kinds[] = {"pf", "mt", "rr"};
  uint64_t last_delivered = 0;
  for (int round = 0; round < 15; ++round) {
    ASSERT_TRUE(mac.run_slots(200).ok());
    uint64_t now_delivered = mac.ue(rnti)->delivered_bits();
    EXPECT_GT(now_delivered, last_delivered) << "stalled at round " << round;
    last_delivered = now_delivered;
    auto bytes = sched::plugins::scheduler(kinds[round % 3]);
    ASSERT_TRUE(bytes.ok());
    ASSERT_TRUE(mgr.swap("mvno", *bytes).ok());
  }
  EXPECT_EQ(mac.slice_stats(1)->scheduler_faults, 0u);
  EXPECT_EQ(mgr.health("mvno")->swaps, 15u);
}

TEST(Integration, QuarantinedPluginSliceRunsOnFallbackIndefinitely) {
  ran::GnbMac mac(ran::MacConfig{});
  mac.set_inter_scheduler(std::make_unique<sched::WeightedShareInterScheduler>());
  plugin::PluginManager mgr;
  auto bad = sched::plugins::faulty("oob");
  ASSERT_TRUE(bad.ok());
  ASSERT_TRUE(mgr.install("evil", *bad).ok());
  ran::SliceConfig cfg;
  cfg.slice_id = 1;
  mac.add_slice(cfg, std::make_unique<sched::WasmIntraScheduler>(mgr, "evil"));
  uint32_t rnti = mac.add_ue(1, ran::Channel::pinned_mcs(20),
                             ran::TrafficSource::full_buffer());

  ASSERT_TRUE(mac.run_slots(2000).ok());
  EXPECT_TRUE(mgr.health("evil")->quarantined);
  // Sandbox faults stop at quarantine; the fallback keeps serving. After
  // quarantine every slot still counts as a (cheap) scheduler fault at the
  // MAC, but throughput is unaffected.
  EXPECT_EQ(mgr.health("evil")->faults(), plugin::kQuarantineAfterFaults);
  double rate = mac.ue(rnti)->rate_bps(mac.now_s());
  EXPECT_GT(rate, 10e6);  // full RR fallback on 52 PRBs at MCS 20
}

TEST(Integration, FallbackMatchesNativeRrThroughput) {
  // A quarantined plugin's fallback (host RR) must deliver the same rate a
  // native RR scheduler would — operators lose the custom policy, not
  // service.
  auto run = [](bool broken) {
    ran::GnbMac mac(ran::MacConfig{});
    mac.set_inter_scheduler(std::make_unique<sched::WeightedShareInterScheduler>());
    plugin::PluginManager mgr;
    ran::SliceConfig cfg;
    cfg.slice_id = 1;
    if (broken) {
      auto bad = sched::plugins::faulty("loop");
      EXPECT_TRUE(bad.ok());
      EXPECT_TRUE(mgr.install("s", *bad).ok());
      mac.add_slice(cfg, std::make_unique<sched::WasmIntraScheduler>(mgr, "s"));
    } else {
      mac.add_slice(cfg, std::make_unique<sched::RrScheduler>());
    }
    uint32_t a = mac.add_ue(1, ran::Channel::pinned_mcs(22),
                            ran::TrafficSource::full_buffer());
    uint32_t b = mac.add_ue(1, ran::Channel::pinned_mcs(22),
                            ran::TrafficSource::full_buffer());
    EXPECT_TRUE(mac.run_slots(3000).ok());
    return mac.ue(a)->rate_bps(mac.now_s()) + mac.ue(b)->rate_bps(mac.now_s());
  };
  double native_rr = run(false);
  double fallback = run(true);
  EXPECT_NEAR(fallback / native_rr, 1.0, 0.05);
}

}  // namespace
}  // namespace waran
