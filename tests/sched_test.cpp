// Scheduler tests: native baseline semantics, Wasm-plugin equivalence with
// the native implementations on identical inputs (the core correctness
// claim of the WA-RAN port), inter-slice allocation properties, and the
// MAC's fault-fallback path. The binary counts its heap allocations
// (tests/heap_probe_guard.h) to pin a warm inter-slice allocate at zero.
#include <gtest/gtest.h>

#include <set>

#include "common/rng.h"
#include "common/tracked_alloc.h"
#include "plugin/manager.h"
#include "ran/mac.h"
#include "ran/phy_tables.h"
#include "sched/native.h"
#include "sched/plugins.h"
#include "sched/wasm_sched.h"
#include "tests/heap_probe_guard.h"

namespace waran::sched {
namespace {

using codec::SchedRequest;
using codec::SchedResponse;
using codec::UeInfo;

UeInfo make_ue(uint32_t rnti, uint32_t mcs, uint32_t buffer_bytes, double avg_bps) {
  UeInfo ue;
  ue.rnti = rnti;
  ue.mcs = mcs;
  ue.cqi = ran::cqi_from_mcs(mcs);
  ue.buffer_bytes = buffer_bytes;
  ue.tbs_per_prb = ran::transport_block_bits(mcs, 1);
  ue.avg_tput_bps = avg_bps;
  ue.achievable_bps = ran::transport_block_bits(mcs, 52) * 1000.0;
  return ue;
}

uint32_t total_prbs(const SchedResponse& resp) {
  uint32_t sum = 0;
  for (const auto& a : resp.allocs) sum += a.prbs;
  return sum;
}

// --- Native baselines. ---

TEST(RrScheduler, EqualSharesWithRotatingRemainder) {
  RrScheduler rr;
  SchedRequest req;
  req.slot = 0;
  req.prb_quota = 10;
  req.ues = {make_ue(1, 20, 100000, 0), make_ue(2, 20, 100000, 0),
             make_ue(3, 20, 100000, 0)};
  auto resp = rr.schedule(req);
  ASSERT_TRUE(resp.ok());
  ASSERT_EQ(resp->allocs.size(), 3u);
  EXPECT_EQ(total_prbs(*resp), 10u);
  // 10 / 3 = 3 each, +1 to the first 1 starting from slot % 3.
  uint32_t maxp = 0, minp = UINT32_MAX;
  for (const auto& a : resp->allocs) {
    maxp = std::max(maxp, a.prbs);
    minp = std::min(minp, a.prbs);
  }
  EXPECT_EQ(maxp, 4u);
  EXPECT_EQ(minp, 3u);
}

TEST(RrScheduler, RemainderRotatesAcrossSlots) {
  RrScheduler rr;
  SchedRequest req;
  req.prb_quota = 4;
  req.ues = {make_ue(1, 20, 100000, 0), make_ue(2, 20, 100000, 0),
             make_ue(3, 20, 100000, 0)};
  // Track who gets the extra PRB over 3 consecutive slots: all must get one.
  std::set<uint32_t> lucky;
  for (uint32_t slot = 0; slot < 3; ++slot) {
    req.slot = slot;
    auto resp = rr.schedule(req);
    ASSERT_TRUE(resp.ok());
    for (const auto& a : resp->allocs) {
      if (a.prbs == 2) lucky.insert(a.rnti);
    }
  }
  EXPECT_EQ(lucky.size(), 3u);
}

TEST(RrScheduler, EmptyInputsYieldEmptyResponse) {
  RrScheduler rr;
  SchedRequest req;
  req.prb_quota = 0;
  req.ues = {make_ue(1, 20, 1000, 0)};
  EXPECT_TRUE(rr.schedule(req)->allocs.empty());
  req.prb_quota = 10;
  req.ues.clear();
  EXPECT_TRUE(rr.schedule(req)->allocs.empty());
}

TEST(MtScheduler, BestChannelFirstAndStarvation) {
  MtScheduler mt;
  SchedRequest req;
  req.prb_quota = 10;
  req.ues = {make_ue(1, 10, 1 << 20, 0), make_ue(2, 28, 1 << 20, 0),
             make_ue(3, 20, 1 << 20, 0)};
  auto resp = mt.schedule(req);
  ASSERT_TRUE(resp.ok());
  // Full buffers need far more than 10 PRBs: the whole quota goes to the
  // MCS-28 UE; the others starve.
  ASSERT_EQ(resp->allocs.size(), 1u);
  EXPECT_EQ(resp->allocs[0].rnti, 2u);
  EXPECT_EQ(resp->allocs[0].prbs, 10u);
}

TEST(MtScheduler, DrainsSmallBuffersThenMovesOn) {
  MtScheduler mt;
  SchedRequest req;
  req.prb_quota = 20;
  // MCS 28 UE only has a tiny buffer; rest of quota must flow to MCS 20.
  req.ues = {make_ue(1, 20, 1 << 20, 0), make_ue(2, 28, 100, 0)};
  auto resp = mt.schedule(req);
  ASSERT_TRUE(resp.ok());
  ASSERT_EQ(resp->allocs.size(), 2u);
  EXPECT_EQ(resp->allocs[0].rnti, 2u);  // best channel served first
  uint32_t need = (100 * 8 + make_ue(2, 28, 0, 0).tbs_per_prb - 1) /
                  make_ue(2, 28, 0, 0).tbs_per_prb;
  EXPECT_EQ(resp->allocs[0].prbs, need);
  EXPECT_EQ(resp->allocs[1].rnti, 1u);
  EXPECT_EQ(resp->allocs[1].prbs, 20u - need);
}

TEST(PfScheduler, PrioritizesLowAverageThroughput) {
  PfScheduler pf;
  SchedRequest req;
  req.prb_quota = 10;
  // Same channel, very different history: the starved UE wins.
  req.ues = {make_ue(1, 20, 1 << 20, 50e6), make_ue(2, 20, 1 << 20, 1e3)};
  auto resp = pf.schedule(req);
  ASSERT_TRUE(resp.ok());
  ASSERT_GE(resp->allocs.size(), 1u);
  EXPECT_EQ(resp->allocs[0].rnti, 2u);
  EXPECT_EQ(resp->allocs[0].prbs, 10u);
}

TEST(PfScheduler, SkipsEmptyBuffers) {
  PfScheduler pf;
  SchedRequest req;
  req.prb_quota = 10;
  req.ues = {make_ue(1, 20, 0, 1e3), make_ue(2, 10, 5000, 50e6)};
  auto resp = pf.schedule(req);
  ASSERT_TRUE(resp.ok());
  ASSERT_EQ(resp->allocs.size(), 1u);
  EXPECT_EQ(resp->allocs[0].rnti, 2u);
}

// --- Wasm plugin equivalence with native baselines. ---

class WasmNativeEquivalence : public ::testing::TestWithParam<const char*> {};

TEST_P(WasmNativeEquivalence, IdenticalDecisionsAcrossInputs) {
  const std::string kind = GetParam();
  auto native = make_native_scheduler(kind);
  ASSERT_NE(native, nullptr);

  plugin::PluginManager mgr;
  auto bytes = plugins::scheduler(kind);
  ASSERT_TRUE(bytes.ok()) << bytes.error().message;
  ASSERT_TRUE(mgr.install(kind, *bytes).ok());
  WasmIntraScheduler wasm_sched(mgr, kind);

  // Sweep structured scenarios: UE counts, channel spreads, buffer mixes.
  Xoshiro256 rng(2024);
  for (int scenario = 0; scenario < 60; ++scenario) {
    SchedRequest req;
    req.slot = static_cast<uint32_t>(scenario * 7);
    req.prb_quota = static_cast<uint32_t>(rng.range(1, 52));
    uint32_t n = static_cast<uint32_t>(rng.range(1, 24));
    for (uint32_t i = 0; i < n; ++i) {
      uint32_t mcs = static_cast<uint32_t>(rng.range(0, 28));
      uint32_t buffer = rng.uniform() < 0.2
                            ? 0
                            : static_cast<uint32_t>(rng.range(1, 1 << 20));
      double avg = rng.uniform() * 4e7;
      req.ues.push_back(make_ue(0x4601 + i, mcs, buffer, avg));
    }
    auto native_resp = native->schedule(req);
    auto wasm_resp = wasm_sched.schedule(req);
    ASSERT_TRUE(native_resp.ok());
    ASSERT_TRUE(wasm_resp.ok()) << wasm_resp.error().message;
    ASSERT_EQ(native_resp->allocs.size(), wasm_resp->allocs.size())
        << "scenario " << scenario << " kind " << kind;
    for (size_t i = 0; i < native_resp->allocs.size(); ++i) {
      EXPECT_EQ(native_resp->allocs[i].rnti, wasm_resp->allocs[i].rnti)
          << "scenario " << scenario << " alloc " << i;
      EXPECT_EQ(native_resp->allocs[i].prbs, wasm_resp->allocs[i].prbs)
          << "scenario " << scenario << " alloc " << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Policies, WasmNativeEquivalence,
                         ::testing::Values("rr", "pf", "mt", "drr"));

// Plugin responses never exceed the quota (property over random inputs).
class WasmQuotaProperty : public ::testing::TestWithParam<const char*> {};

TEST_P(WasmQuotaProperty, NeverOverAllocates) {
  plugin::PluginManager mgr;
  auto bytes = plugins::scheduler(GetParam());
  ASSERT_TRUE(bytes.ok());
  ASSERT_TRUE(mgr.install("s", *bytes).ok());
  WasmIntraScheduler sched(mgr, "s");
  Xoshiro256 rng(7);
  for (int i = 0; i < 40; ++i) {
    SchedRequest req;
    req.slot = static_cast<uint32_t>(i);
    req.prb_quota = static_cast<uint32_t>(rng.range(0, 52));
    uint32_t n = static_cast<uint32_t>(rng.range(0, 32));
    for (uint32_t u = 0; u < n; ++u) {
      req.ues.push_back(make_ue(0x4601 + u, static_cast<uint32_t>(rng.range(0, 28)),
                                static_cast<uint32_t>(rng.range(0, 100000)),
                                rng.uniform() * 1e7));
    }
    auto resp = sched.schedule(req);
    ASSERT_TRUE(resp.ok()) << resp.error().message;
    EXPECT_LE(total_prbs(*resp), req.prb_quota);
  }
}

INSTANTIATE_TEST_SUITE_P(Policies, WasmQuotaProperty,
                         ::testing::Values("rr", "pf", "mt", "drr"));

// --- Inter-slice schedulers. ---

ran::SliceConfig slice_cfg(uint32_t id, double target_bps, double weight) {
  ran::SliceConfig cfg;
  cfg.slice_id = id;
  cfg.name = "s" + std::to_string(id);
  cfg.target_rate_bps = target_bps;
  cfg.weight = weight;
  return cfg;
}

/// Quotas from one allocate call, the span pre-filled with junk: every
/// entry must be written, an idle slice's included.
std::vector<uint32_t> quotas(ran::InterSliceScheduler& inter, uint32_t n_prbs,
                             const std::vector<ran::SliceDemand>& demands) {
  std::vector<uint32_t> q(demands.size(), 0xdead);
  inter.allocate(n_prbs, demands, q);
  return q;
}

TEST(WeightedShare, SplitsByWeightAmongActive) {
  WeightedShareInterScheduler ws;
  auto c1 = slice_cfg(1, 0, 1.0);
  auto c2 = slice_cfg(2, 0, 3.0);
  std::vector<ran::SliceDemand> demands(2);
  demands[0] = {&c1, 10000, 0, 2, 700.0};
  demands[1] = {&c2, 10000, 0, 2, 700.0};
  auto q = quotas(ws, 52, demands);
  ASSERT_EQ(q.size(), 2u);
  EXPECT_EQ(q[0] + q[1], 52u);
  EXPECT_EQ(q[0], 13u);
  EXPECT_EQ(q[1], 39u);
}

TEST(WeightedShare, IdleSliceGetsNothing) {
  WeightedShareInterScheduler ws;
  auto c1 = slice_cfg(1, 0, 1.0);
  auto c2 = slice_cfg(2, 0, 1.0);
  std::vector<ran::SliceDemand> demands(2);
  demands[0] = {&c1, 10000, 0, 1, 700.0};
  demands[1] = {&c2, 0, 0, 0, 0.0};
  auto q = quotas(ws, 52, demands);
  EXPECT_EQ(q[0], 52u);
  EXPECT_EQ(q[1], 0u);
}

TEST(TargetRate, ProvisionsJustEnoughOnAverage) {
  TargetRateInterScheduler tr(1000.0, /*feedback_gain=*/0.0);
  auto c1 = slice_cfg(1, 3e6, 1.0);    // 3 Mb/s
  auto c2 = slice_cfg(2, 12e6, 1.0);   // 12 Mb/s
  std::vector<ran::SliceDemand> demands(2);
  double bits_per_prb = ran::transport_block_bits(28, 1);  // ~877
  demands[0] = {&c1, 1 << 20, 0, 1, bits_per_prb};
  demands[1] = {&c2, 1 << 20, 0, 1, bits_per_prb};
  // Fractional provisioning dithers; the mean over many slots must equal
  // target / (bits_per_prb * slots_per_s) and the sum stays far below 52.
  double sum0 = 0, sum1 = 0;
  const int kSlots = 1000;
  for (int s = 0; s < kSlots; ++s) {
    auto q = quotas(tr, 52, demands);
    EXPECT_LE(q[0] + q[1], 52u);
    sum0 += q[0];
    sum1 += q[1];
  }
  EXPECT_NEAR(sum0 / kSlots, 3e6 / (bits_per_prb * 1000.0), 0.05);
  EXPECT_NEAR(sum1 / kSlots, 12e6 / (bits_per_prb * 1000.0), 0.05);
}

TEST(TargetRate, FeedbackTrimsOverdelivery) {
  TargetRateInterScheduler tr(1000.0, /*feedback_gain=*/0.01);
  auto c1 = slice_cfg(1, 3e6, 1.0);
  std::vector<ran::SliceDemand> demands(1);
  double bits_per_prb = ran::transport_block_bits(28, 1);
  // Report a measured rate 30% above target: the integral term must shrink
  // the average provisioned PRBs below the static estimate.
  demands[0] = {&c1, 1 << 20, 3.9e6, 1, bits_per_prb};
  double first_100 = 0, last_100 = 0;
  for (int s = 0; s < 1000; ++s) {
    auto q = quotas(tr, 52, demands);
    if (s < 100) first_100 += q[0];
    if (s >= 900) last_100 += q[0];
  }
  EXPECT_LT(last_100, first_100);
}

TEST(TargetRate, OversubscriptionScalesProportionally) {
  TargetRateInterScheduler tr(1000.0, 0.0);
  auto c1 = slice_cfg(1, 30e6, 1.0);
  auto c2 = slice_cfg(2, 60e6, 1.0);
  std::vector<ran::SliceDemand> demands(2);
  double bits_per_prb = ran::transport_block_bits(28, 1);
  demands[0] = {&c1, 1 << 20, 0, 1, bits_per_prb};
  demands[1] = {&c2, 1 << 20, 0, 1, bits_per_prb};
  double sum0 = 0, sum1 = 0;
  for (int s = 0; s < 1000; ++s) {
    auto q = quotas(tr, 52, demands);
    EXPECT_LE(q[0] + q[1], 52u);
    sum0 += q[0];
    sum1 += q[1];
  }
  EXPECT_NEAR(sum1 / sum0, 2.0, 0.1);
  EXPECT_NEAR((sum0 + sum1) / 1000.0, 52.0, 1.0);  // carrier fully used
}

TEST(Priority, HigherWeightDrainsFirst) {
  PriorityInterScheduler pr;
  auto c1 = slice_cfg(1, 0, 1.0);
  auto c2 = slice_cfg(2, 0, 9.0);
  std::vector<ran::SliceDemand> demands(2);
  double bits_per_prb = ran::transport_block_bits(20, 1);
  // Slice 2 needs everything and more.
  demands[0] = {&c1, 100000, 0, 1, bits_per_prb};
  demands[1] = {&c2, 1 << 20, 0, 1, bits_per_prb};
  auto q = quotas(pr, 52, demands);
  EXPECT_EQ(q[1], 52u);
  EXPECT_EQ(q[0], 0u);
}

TEST(Priority, EqualWeightsKeepSliceOrder) {
  PriorityInterScheduler pr;
  auto lo_a = slice_cfg(1, 0, 1.0);
  auto hi = slice_cfg(2, 0, 9.0);
  auto lo_b = slice_cfg(3, 0, 1.0);
  std::vector<ran::SliceDemand> demands(3);
  double bits_per_prb = ran::transport_block_bits(20, 1);
  const uint32_t twenty_prbs = static_cast<uint32_t>(20 * bits_per_prb / 8);
  demands[0] = {&lo_a, twenty_prbs, 0, 1, bits_per_prb};
  demands[1] = {&hi, twenty_prbs, 0, 1, bits_per_prb};
  demands[2] = {&lo_b, twenty_prbs, 0, 1, bits_per_prb};
  auto q = quotas(pr, 52, demands);
  EXPECT_EQ(q[1], 20u);
  EXPECT_EQ(q[0], 20u);  // first of the equal weights, in slice order
  EXPECT_EQ(q[2], 12u);
}

TEST(InterSlice, WarmNativeAllocateMakesNoHeapAllocations) {
  // A MAC calls allocate every slot, so a warm native inter-slice
  // scheduler keeps whatever scratch it needs.
  auto c1 = slice_cfg(1, 3e6, 1.0);
  auto c2 = slice_cfg(2, 12e6, 9.0);
  auto c3 = slice_cfg(3, 6e6, 1.0);
  double bits_per_prb = ran::transport_block_bits(28, 1);
  std::vector<ran::SliceDemand> demands = {{&c1, 1 << 20, 3.5e6, 1, bits_per_prb},
                                           {&c2, 100000, 11e6, 2, bits_per_prb},
                                           {&c3, 4000, 0, 1, bits_per_prb}};
  std::vector<uint32_t> q(demands.size());
  WeightedShareInterScheduler ws;
  TargetRateInterScheduler tr;
  PriorityInterScheduler pr;
  ran::InterSliceScheduler* schedulers[] = {&ws, &tr, &pr};
  for (ran::InterSliceScheduler* inter : schedulers) {
    SCOPED_TRACE(inter->name());
    inter->allocate(52, demands, q);
    const uint64_t before = heap_probe::allocations();
    for (int i = 0; i < 20; ++i) inter->allocate(52, demands, q);
    EXPECT_EQ(heap_probe::allocations() - before, 0u);
  }
}

// --- MAC + scheduler integration, fault fallback. ---

TEST(MacIntegration, FaultySchedulerTriggersFallbackAndUesStillServed) {
  ran::GnbMac mac(ran::MacConfig{});
  mac.set_inter_scheduler(std::make_unique<WeightedShareInterScheduler>());

  plugin::PluginManager mgr;
  auto bad = plugins::faulty("oob");
  ASSERT_TRUE(bad.ok());
  ASSERT_TRUE(mgr.install("bad", *bad).ok());

  mac.add_slice(slice_cfg(1, 0, 1.0),
                std::make_unique<WasmIntraScheduler>(mgr, "bad"));
  uint32_t rnti = mac.add_ue(1, ran::Channel::pinned_mcs(20),
                             ran::TrafficSource::full_buffer());
  ASSERT_TRUE(mac.run_slots(50).ok());

  const ran::SliceStats* stats = mac.slice_stats(1);
  ASSERT_NE(stats, nullptr);
  EXPECT_GT(stats->scheduler_faults, 0u);
  // The fallback RR kept the UE flowing despite the broken plugin.
  EXPECT_GT(mac.ue(rnti)->delivered_bits(), 0u);
}

TEST(MacIntegration, BadAllocResponsesAreSanitized) {
  ran::GnbMac mac(ran::MacConfig{});
  mac.set_inter_scheduler(std::make_unique<WeightedShareInterScheduler>());

  plugin::PluginManager mgr;
  auto bad = plugins::faulty("badalloc");
  ASSERT_TRUE(bad.ok());
  ASSERT_TRUE(mgr.install("bad", *bad).ok());
  mac.add_slice(slice_cfg(1, 0, 1.0),
                std::make_unique<WasmIntraScheduler>(mgr, "bad"));
  mac.add_ue(1, ran::Channel::pinned_mcs(20), ran::TrafficSource::full_buffer());
  ASSERT_TRUE(mac.run_slots(20).ok());

  const ran::SliceStats* stats = mac.slice_stats(1);
  EXPECT_GT(stats->sanitized_allocs, 0u);   // foreign RNTI dropped, grant clamped
  EXPECT_EQ(stats->scheduler_faults, 0u);   // response was decodable
}

TEST(MacIntegration, ShortOutputIsADecodeFaultWithFallback) {
  ran::GnbMac mac(ran::MacConfig{});
  mac.set_inter_scheduler(std::make_unique<WeightedShareInterScheduler>());

  plugin::PluginManager mgr;
  auto bad = plugins::faulty("shortoutput");
  ASSERT_TRUE(bad.ok());
  ASSERT_TRUE(mgr.install("bad", *bad).ok());
  mac.add_slice(slice_cfg(1, 0, 1.0),
                std::make_unique<WasmIntraScheduler>(mgr, "bad"));
  uint32_t rnti = mac.add_ue(1, ran::Channel::pinned_mcs(24),
                             ran::TrafficSource::full_buffer());
  ASSERT_TRUE(mac.run_slots(20).ok());
  EXPECT_GT(mac.slice_stats(1)->scheduler_faults, 0u);
  EXPECT_GT(mac.ue(rnti)->delivered_bits(), 0u);
}

TEST(MacIntegration, NativeRrSlicesShareEvenly) {
  ran::GnbMac mac(ran::MacConfig{});
  mac.set_inter_scheduler(std::make_unique<WeightedShareInterScheduler>());
  mac.add_slice(slice_cfg(1, 0, 1.0), std::make_unique<RrScheduler>());
  uint32_t a = mac.add_ue(1, ran::Channel::pinned_mcs(20),
                          ran::TrafficSource::full_buffer());
  uint32_t b = mac.add_ue(1, ran::Channel::pinned_mcs(20),
                          ran::TrafficSource::full_buffer());
  ASSERT_TRUE(mac.run_slots(2000).ok());
  double ra = mac.ue(a)->rate_bps(mac.now_s());
  double rb = mac.ue(b)->rate_bps(mac.now_s());
  EXPECT_GT(ra, 1e6);
  EXPECT_NEAR(ra / rb, 1.0, 0.05);
}

TEST(MacIntegration, CbrTrafficCapsDeliveredRate) {
  ran::GnbMac mac(ran::MacConfig{});
  mac.set_inter_scheduler(std::make_unique<WeightedShareInterScheduler>());
  mac.add_slice(slice_cfg(1, 0, 1.0), std::make_unique<RrScheduler>());
  uint32_t rnti = mac.add_ue(1, ran::Channel::pinned_mcs(28),
                             ran::TrafficSource::cbr(5e6));
  ASSERT_TRUE(mac.run_slots(3000).ok());
  double rate = mac.ue(rnti)->rate_bps(mac.now_s());
  EXPECT_NEAR(rate, 5e6, 0.4e6);  // capped by offered load, not channel
}

}  // namespace
}  // namespace waran::sched

// Appended: Deficit Round Robin — the stateful fourth policy.
namespace waran::sched {
namespace {

TEST(DrrScheduler, LongRunSharesAreEqualDespiteChannelSkew) {
  // Unlike RR (equal PRBs per slot), DRR equalizes PRBs *over time* even
  // when UEs come and go; with both always active they match RR's shares.
  DrrScheduler drr;
  std::map<uint32_t, uint64_t> prbs;
  for (uint32_t slot = 0; slot < 1000; ++slot) {
    SchedRequest req;
    req.slot = slot;
    req.prb_quota = 13;  // odd quota: integer shares can't be equal per slot
    req.ues = {make_ue(1, 28, 1 << 20, 0), make_ue(2, 5, 1 << 20, 0),
               make_ue(3, 15, 1 << 20, 0)};
    auto resp = drr.schedule(req);
    ASSERT_TRUE(resp.ok());
    uint32_t total = 0;
    for (const auto& a : resp->allocs) {
      prbs[a.rnti] += a.prbs;
      total += a.prbs;
    }
    ASSERT_LE(total, req.prb_quota);
  }
  // 13 PRBs x 1000 slots / 3 UEs ~ 4333 each, within 2%.
  for (const auto& [rnti, got] : prbs) {
    EXPECT_NEAR(static_cast<double>(got), 13000.0 / 3.0, 90.0) << rnti;
  }
}

TEST(DrrScheduler, BurstCreditForNeedLimitedUe) {
  // A UE with a tiny buffer banks unused credit and later bursts above its
  // instantaneous fair share.
  DrrScheduler drr;
  auto small_then_big = [&](uint32_t slot, uint32_t buffer) {
    SchedRequest req;
    req.slot = slot;
    req.prb_quota = 10;
    req.ues = {make_ue(1, 20, buffer, 0), make_ue(2, 20, 1 << 20, 0)};
    auto resp = drr.schedule(req);
    EXPECT_TRUE(resp.ok());
    uint32_t got = 0;
    for (const auto& a : resp->allocs) {
      if (a.rnti == 1) got = a.prbs;
    }
    return got;
  };
  // 20 slots needing ~1 PRB: UE 1 banks ~4/slot of credit.
  for (uint32_t s = 0; s < 20; ++s) {
    EXPECT_LE(small_then_big(s, 100), 2u);
  }
  EXPECT_GT(drr.deficit(1), 10.0);  // banked burst credit
  // Now it has a full buffer: it bursts past the 5-PRB fair share.
  EXPECT_GT(small_then_big(20, 1 << 20), 5u);
}

TEST(DrrScheduler, CreditIsCappedAtFourQuotas) {
  DrrScheduler drr;
  for (uint32_t s = 0; s < 500; ++s) {
    SchedRequest req;
    req.slot = s;
    req.prb_quota = 10;
    // Only ever needs 1 PRB: credit would grow unboundedly without the cap.
    req.ues = {make_ue(1, 20, 50, 0)};
    ASSERT_TRUE(drr.schedule(req).ok());
  }
  EXPECT_LE(drr.deficit(1), 40.0 + 1e-9);
}

TEST(DrrScheduler, EvictionKeepsTableBounded) {
  DrrScheduler drr;
  // 200 distinct UEs over time, one per slot: table must not grow past 64
  // and scheduling must keep working.
  for (uint32_t s = 0; s < 200; ++s) {
    SchedRequest req;
    req.slot = s;
    req.prb_quota = 10;
    req.ues = {make_ue(0x5000 + s, 20, 1 << 20, 0)};
    auto resp = drr.schedule(req);
    ASSERT_TRUE(resp.ok());
    ASSERT_EQ(resp->allocs.size(), 1u);
    EXPECT_GT(resp->allocs[0].prbs, 0u);
  }
}

TEST(DrrScheduler, WasmStatePersistsAcrossCallsLikeNative) {
  // The burst-credit behaviour requires state in the plugin's linear memory
  // to survive between calls; run the banked-credit scenario through the
  // Wasm plugin and cross-check against native step by step.
  DrrScheduler native;
  plugin::PluginManager mgr;
  auto bytes = plugins::scheduler("drr");
  ASSERT_TRUE(bytes.ok()) << bytes.error().message;
  ASSERT_TRUE(mgr.install("drr", *bytes).ok());
  WasmIntraScheduler wasm_drr(mgr, "drr");

  for (uint32_t s = 0; s < 30; ++s) {
    SchedRequest req;
    req.slot = s;
    req.prb_quota = 10;
    uint32_t small_buffer = s < 20 ? 100 : (1u << 20);
    req.ues = {make_ue(1, 20, small_buffer, 0), make_ue(2, 20, 1 << 20, 0)};
    auto a = native.schedule(req);
    auto b = wasm_drr.schedule(req);
    ASSERT_TRUE(a.ok() && b.ok());
    ASSERT_EQ(a->allocs.size(), b->allocs.size()) << "slot " << s;
    for (size_t i = 0; i < a->allocs.size(); ++i) {
      EXPECT_EQ(a->allocs[i].rnti, b->allocs[i].rnti) << "slot " << s;
      EXPECT_EQ(a->allocs[i].prbs, b->allocs[i].prbs) << "slot " << s;
    }
  }
}

}  // namespace
}  // namespace waran::sched
