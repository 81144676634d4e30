// RAN substrate tests: PHY tables, channel model, traffic generators, UE
// accounting and the MAC slot loop's structural invariants.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <vector>

#include "obs/anomaly.h"
#include "ran/channel.h"
#include "ran/mac.h"
#include "ran/phy_tables.h"
#include "ran/traffic.h"
#include "ran/ue.h"
#include "sched/native.h"
#include "tests/heap_probe_guard.h"

namespace waran::ran {
namespace {

TEST(PhyTables, SpectralEfficiencyMonotone) {
  for (uint32_t c = 1; c <= kMaxCqi; ++c) {
    EXPECT_GT(cqi_spectral_efficiency(c), cqi_spectral_efficiency(c - 1)) << c;
  }
  // The 38.214 MCS table dips slightly at modulation switches (MCS 16->17);
  // allow those dips but require overall growth.
  for (uint32_t m = 1; m <= kMaxMcs; ++m) {
    EXPECT_GT(mcs_spectral_efficiency(m), mcs_spectral_efficiency(m - 1) * 0.95) << m;
  }
  EXPECT_GT(mcs_spectral_efficiency(kMaxMcs), mcs_spectral_efficiency(0) * 20);
}

TEST(PhyTables, McsFromCqiNeverExceedsCqiEfficiency) {
  for (uint32_t c = 2; c <= kMaxCqi; ++c) {
    uint32_t m = mcs_from_cqi(c);
    EXPECT_LE(mcs_spectral_efficiency(m), cqi_spectral_efficiency(c) + 1e-9) << c;
  }
  // CQI 1 is below even MCS 0; link adaptation falls back to MCS 0.
  EXPECT_EQ(mcs_from_cqi(1), 0u);
  // Best CQI maps to (near-)top MCS.
  EXPECT_GE(mcs_from_cqi(kMaxCqi), 27u);
}

TEST(PhyTables, CqiMcsInversesAreConsistent) {
  for (uint32_t m = 0; m <= kMaxMcs; ++m) {
    uint32_t c = cqi_from_mcs(m);
    EXPECT_GE(cqi_spectral_efficiency(c), mcs_spectral_efficiency(m) - 1e-9) << m;
  }
}

TEST(PhyTables, PeakRateMatchesPaperTestbed) {
  // 52 PRBs (10 MHz @ 15 kHz), MCS 28, 1000 slots/s: srsRAN reports
  // ~45 Mb/s DL on this configuration; the model must land in that bracket.
  double peak_bps = transport_block_bits(kMaxMcs, 52) * 1000.0;
  EXPECT_GT(peak_bps, 40e6);
  EXPECT_LT(peak_bps, 50e6);
}

TEST(PhyTables, TbsLinearInPrbs) {
  EXPECT_EQ(transport_block_bits(20, 0), 0u);
  uint32_t one = transport_block_bits(20, 1);
  EXPECT_NEAR(transport_block_bits(20, 10), 10 * one, 10);
}

TEST(PhyTables, SnrToCqiRampAndClamp) {
  EXPECT_EQ(cqi_from_snr_db(-10.0), 0u);
  EXPECT_EQ(cqi_from_snr_db(-6.0), 1u);
  EXPECT_EQ(cqi_from_snr_db(50.0), kMaxCqi);
  for (double snr = -6.0; snr < 25.0; snr += 0.5) {
    EXPECT_LE(cqi_from_snr_db(snr), cqi_from_snr_db(snr + 0.5));
  }
}

// The 38.214 link-adaptation rule evaluated directly, as the reference for
// the lookup table behind mcs_from_cqi: the most efficient MCS whose
// spectral efficiency does not exceed the CQI's (MCS 0 for CQI 0).
uint32_t reference_mcs_from_cqi(uint32_t cqi, McsTable table) {
  double target = cqi_spectral_efficiency(cqi, table);
  if (target <= 0.0) return 0;
  uint32_t best = 0;
  double best_se = 0.0;
  for (uint32_t m = 0; m <= max_mcs(table); ++m) {
    double se = mcs_spectral_efficiency(m, table);
    if (se <= target + 1e-9 && se > best_se) {
      best = m;
      best_se = se;
    }
  }
  return best;
}

TEST(PhyTables, LookupTablesEqual38214Formulas) {
  for (McsTable table : {McsTable::kQam64, McsTable::kQam256}) {
    const int t = static_cast<int>(table);
    for (uint32_t cqi = 0; cqi <= 20; ++cqi) {  // 16..20 clamp to CQI 15
      EXPECT_EQ(mcs_from_cqi(cqi, table), reference_mcs_from_cqi(cqi, table))
          << "table " << t << " cqi " << cqi;
    }
    // Exact equality: every TBS the MAC computes stays bit-identical to
    // floor(se * 158 REs * n_prb) with se from the 38.214 rows, including
    // MCS indices past the table maximum (clamped).
    for (uint32_t mcs = 0; mcs <= 31; ++mcs) {
      const double se = mcs_spectral_efficiency(mcs, table);
      for (uint32_t n_prb = 0; n_prb <= 275; ++n_prb) {
        ASSERT_EQ(transport_block_bits(mcs, n_prb, table),
                  static_cast<uint32_t>(std::floor(se * 158 * n_prb)))
            << "table " << t << " mcs " << mcs << " n_prb " << n_prb;
      }
    }
  }
}

TEST(Channel, PinnedNeverMoves) {
  Channel c = Channel::pinned_mcs(24);
  for (int i = 0; i < 100; ++i) {
    c.step();
    EXPECT_EQ(c.mcs(), 24u);
  }
}

TEST(Channel, PinnedClampsMcs) {
  EXPECT_EQ(Channel::pinned_mcs(99).mcs(), kMaxMcs);
}

TEST(Channel, FadingStaysNearMeanAndIsDeterministic) {
  Channel::FadingParams params;
  params.mean_snr_db = 15.0;
  params.sigma_db = 3.0;
  Channel a = Channel::fading(params, 42);
  Channel b = Channel::fading(params, 42);
  double sum = 0;
  for (int i = 0; i < 5000; ++i) {
    a.step();
    b.step();
    EXPECT_EQ(a.cqi(), b.cqi());
    sum += a.snr_db();
  }
  EXPECT_NEAR(sum / 5000, 15.0, 1.0);
}

TEST(Channel, FadingCqiVaries) {
  Channel c = Channel::fading({.mean_snr_db = 10, .sigma_db = 4}, 7);
  std::set<uint32_t> seen;
  for (int i = 0; i < 2000; ++i) {
    c.step();
    seen.insert(c.cqi());
  }
  EXPECT_GE(seen.size(), 3u);  // the channel actually fades
}

TEST(Traffic, CbrDeliversConfiguredRate) {
  TrafficSource t = TrafficSource::cbr(8e6);  // 8 Mb/s = 1000 B/ms
  uint64_t total = 0;
  for (int i = 0; i < 1000; ++i) total += t.arrivals_bytes(1000);
  EXPECT_NEAR(static_cast<double>(total), 1e6, 2000.0);
}

TEST(Traffic, FullBufferNeverRunsDry) {
  TrafficSource t = TrafficSource::full_buffer();
  EXPECT_GT(t.arrivals_bytes(1000), 100000u);
}

TEST(Traffic, OnOffAveragesBelowPeak) {
  TrafficSource t = TrafficSource::on_off(8e6, 100, 100, 3);
  uint64_t total = 0;
  for (int i = 0; i < 20000; ++i) total += t.arrivals_bytes(1000);
  double avg_bps = total * 8.0 / 20.0;  // over 20 s
  EXPECT_LT(avg_bps, 7e6);   // clearly below the on-rate
  EXPECT_GT(avg_bps, 1e6);   // but not silent
}

TEST(Ue, BufferCapsAtRlcLimit) {
  UeContext ue(1, 0, Channel::pinned_mcs(10), TrafficSource::full_buffer());
  for (int i = 0; i < 100; ++i) ue.begin_slot(1000);
  EXPECT_LE(ue.buffer_bytes(), 8u << 20);
}

TEST(Ue, DeliverDrainsBufferAndUpdatesEwma) {
  UeContext ue(1, 0, Channel::pinned_mcs(10), TrafficSource::cbr(1e6), 10.0);
  ue.begin_slot(1000);
  uint32_t before = ue.buffer_bytes();
  ASSERT_GT(before, 0u);
  ue.deliver(before * 8, 0.001, 1000.0);
  EXPECT_EQ(ue.buffer_bytes(), 0u);
  EXPECT_GT(ue.avg_tput_bps(), 0.0);
  double after_one = ue.avg_tput_bps();
  ue.deliver(0, 0.002, 1000.0);  // idle slot decays the EWMA
  EXPECT_LT(ue.avg_tput_bps(), after_one);
}

TEST(Ue, RateWindowIsSizedOnceAtItsFirstSlot) {
  // Construction adds no rate-window storage; the first slot sizes the ring
  // to a full window of slots, so a UE served in every slot never grows it.
  // At 1023 slots/s a full window is one sample past a power of two.
  for (const double slots_per_s : {1000.0, 2000.0, 1023.0}) {
    const uint64_t before = heap_probe::allocations();
    UeContext ue(1, 0, Channel::pinned_mcs(10), TrafficSource::full_buffer());
    const uint64_t constructed = heap_probe::allocations();
    ue.deliver(1000, 1 / slots_per_s, slots_per_s);
    const uint64_t sized = heap_probe::allocations();
    for (int slot = 2; slot <= 3 * slots_per_s; ++slot) {
      ue.deliver(1000, slot / slots_per_s, slots_per_s);
    }
    EXPECT_EQ(constructed, before) << slots_per_s << " slots/s";
    EXPECT_EQ(sized - constructed, 1u) << slots_per_s << " slots/s";
    EXPECT_EQ(heap_probe::allocations(), sized) << slots_per_s << " slots/s";
  }
}

TEST(Mac, RunSlotWithoutInterSchedulerFails) {
  GnbMac mac(MacConfig{});
  auto st = mac.run_slot();
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.error().code, Error::Code::kState);
}

TEST(Mac, DuplicateSliceIdThrowsAndKeepsTheFirstSlice) {
  // A second slice under a taken id must be refused in every build:
  // silently dropping it would put its UEs in the first slice.
  GnbMac mac(MacConfig{});
  SliceConfig a;
  a.slice_id = 1;
  a.name = "a-co";
  SliceConfig b = a;
  b.name = "b-co";
  mac.add_slice(a, std::make_unique<sched::RrScheduler>());
  EXPECT_THROW(mac.add_slice(b, std::make_unique<sched::PfScheduler>()),
               std::invalid_argument);
  ASSERT_EQ(mac.slice_ids(), std::vector<uint32_t>{1});
  EXPECT_EQ(mac.slice_config(1)->name, "a-co");
}

TEST(Mac, RemoveUeDetaches) {
  GnbMac mac(MacConfig{});
  SliceConfig cfg;
  cfg.slice_id = 1;
  // A trivial inline scheduler is not needed for topology checks.
  class Null final : public IntraSliceScheduler {
   public:
    Result<codec::SchedResponse> schedule(const codec::SchedRequest&) override {
      return codec::SchedResponse{};
    }
    const char* name() const override { return "null"; }
  };
  mac.add_slice(cfg, std::make_unique<Null>());
  uint32_t rnti = mac.add_ue(1, Channel::pinned_mcs(5), TrafficSource::full_buffer());
  EXPECT_NE(mac.ue(rnti), nullptr);
  ASSERT_TRUE(mac.remove_ue(rnti).ok());
  EXPECT_EQ(mac.ue(rnti), nullptr);
  EXPECT_FALSE(mac.remove_ue(rnti).ok());
}

TEST(Mac, RntisAreUniqueAndStable) {
  GnbMac mac(MacConfig{});
  SliceConfig cfg;
  cfg.slice_id = 1;
  class Null final : public IntraSliceScheduler {
   public:
    Result<codec::SchedResponse> schedule(const codec::SchedRequest&) override {
      return codec::SchedResponse{};
    }
    const char* name() const override { return "null"; }
  };
  mac.add_slice(cfg, std::make_unique<Null>());
  std::set<uint32_t> rntis;
  for (int i = 0; i < 16; ++i) {
    rntis.insert(mac.add_ue(1, Channel::pinned_mcs(5), TrafficSource::full_buffer()));
  }
  EXPECT_EQ(rntis.size(), 16u);
  EXPECT_EQ(*rntis.begin(), 0x4601u);  // srsRAN's first C-RNTI
}

TEST(Mac, SliceIndexTracksUeChurn) {
  // Records every request and grants one PRB to each listed UE, after
  // `bogus` grants the MAC must sanitize.
  class Recording final : public IntraSliceScheduler {
   public:
    std::vector<codec::SchedAlloc> bogus;
    std::vector<codec::SchedRequest> requests;
    Result<codec::SchedResponse> schedule(const codec::SchedRequest& req) override {
      requests.push_back(req);
      codec::SchedResponse resp;
      resp.allocs = bogus;
      for (const auto& ue : req.ues) resp.allocs.push_back({ue.rnti, 1});
      return resp;
    }
    const char* name() const override { return "recording"; }
  };
  class Fixed final : public InterSliceScheduler {
   public:
    void allocate(uint32_t, std::span<const SliceDemand>, std::span<uint32_t> q) override {
      std::fill(q.begin(), q.end(), 20);
    }
    const char* name() const override { return "fixed"; }
  };
  GnbMac mac(MacConfig{});
  mac.set_inter_scheduler(std::make_unique<Fixed>());
  auto owned_a = std::make_unique<Recording>();
  auto owned_b = std::make_unique<Recording>();
  Recording& a = *owned_a;
  Recording& b = *owned_b;
  SliceConfig cfg;
  cfg.slice_id = 1;
  mac.add_slice(cfg, std::move(owned_a));
  cfg.slice_id = 2;
  mac.add_slice(cfg, std::move(owned_b));

  // Interleaved RNTIs: slice 1 gets the even-numbered UEs, slice 2 the odd.
  std::vector<uint32_t> in_a, in_b;
  for (int i = 0; i < 8; ++i) {
    const uint32_t slice = i % 2 == 0 ? 1 : 2;
    const uint32_t rnti =
        mac.add_ue(slice, Channel::pinned_mcs(10), TrafficSource::full_buffer());
    (slice == 1 ? in_a : in_b).push_back(rnti);
  }
  const uint32_t removed = in_a[1];
  ASSERT_TRUE(mac.remove_ue(removed).ok());
  in_a.erase(in_a.begin() + 1);
  in_b.push_back(mac.add_ue(2, Channel::pinned_mcs(10), TrafficSource::full_buffer()));
  const uint32_t foreign = in_b[2];
  a.bogus = {{removed, 3}, {foreign, 3}};

  const uint32_t kSlots = 4;
  ASSERT_TRUE(mac.run_slots(kSlots).ok());

  auto rntis_of = [](const codec::SchedRequest& req) {
    std::vector<uint32_t> out;
    for (const auto& ue : req.ues) out.push_back(ue.rnti);
    return out;
  };
  ASSERT_EQ(a.requests.size(), kSlots);
  ASSERT_EQ(b.requests.size(), kSlots);
  for (uint32_t s = 0; s < kSlots; ++s) {
    EXPECT_EQ(rntis_of(a.requests[s]), in_a) << "slot " << s;
    EXPECT_EQ(rntis_of(b.requests[s]), in_b) << "slot " << s;
  }

  // Both bogus grants are dropped in every slot: counted per grant,
  // journaled once per response.
  EXPECT_EQ(mac.slice_stats(1)->sanitized_allocs, 2u * kSlots);
  EXPECT_EQ(mac.slice_stats(2)->sanitized_allocs, 0u);
  const auto records = mac.journal().snapshot();
  ASSERT_EQ(records.size(), kSlots);
  for (const auto& r : records) {
    EXPECT_EQ(r.kind, obs::AnomalyKind::kSanitized);
    EXPECT_EQ(r.source, "slice 1");
  }

  // Every valid UE got exactly its own one-PRB grant per slot; the foreign
  // UE's bits come from its own slice only, the removed UE stays gone.
  EXPECT_EQ(mac.ue(removed), nullptr);
  const uint64_t per_slot = transport_block_bits(10, 1);
  for (uint32_t rnti : mac.ue_rntis()) {
    EXPECT_EQ(mac.ue(rnti)->delivered_bits(), per_slot * kSlots) << rnti;
  }
  EXPECT_EQ(mac.ue_rntis().size(), in_a.size() + in_b.size());
}

}  // namespace
}  // namespace waran::ran

// Appended: 256QAM CQI/MCS table (the set_cqi_table control action's
// substance) and alternative numerologies.
namespace waran::ran {
namespace {

TEST(PhyTables256, Qam256TablesMonotoneAndHigherPeak) {
  for (uint32_t c = 1; c <= kMaxCqi; ++c) {
    EXPECT_GT(cqi_spectral_efficiency(c, McsTable::kQam256),
              cqi_spectral_efficiency(c - 1, McsTable::kQam256));
  }
  EXPECT_EQ(max_mcs(McsTable::kQam256), 27u);
  EXPECT_EQ(mcs_modulation_order(27, McsTable::kQam256), 8u);
  // Peak spectral efficiency ~7.4 vs ~5.55.
  EXPECT_GT(mcs_spectral_efficiency(27, McsTable::kQam256),
            mcs_spectral_efficiency(28, McsTable::kQam64) * 1.25);
  // Peak DL rate on the paper's carrier jumps from ~45 to ~60 Mb/s.
  double peak256 = transport_block_bits(27, 52, McsTable::kQam256) * 1000.0;
  EXPECT_GT(peak256, 55e6);
  EXPECT_LT(peak256, 65e6);
}

TEST(PhyTables256, McsFromCqiRespectsTable) {
  for (uint32_t c = 2; c <= kMaxCqi; ++c) {
    uint32_t m = mcs_from_cqi(c, McsTable::kQam256);
    EXPECT_LE(mcs_spectral_efficiency(m, McsTable::kQam256),
              cqi_spectral_efficiency(c, McsTable::kQam256) + 1e-9)
        << c;
  }
  EXPECT_GE(mcs_from_cqi(kMaxCqi, McsTable::kQam256), 26u);
}

TEST(Channel256, TableSwitchRemapsFadingChannel) {
  Channel c = Channel::fading({.mean_snr_db = 22.0, .sigma_db = 0.5}, 11);
  for (int i = 0; i < 10; ++i) c.step();
  uint32_t mcs64 = c.mcs();
  c.set_mcs_table(McsTable::kQam256);
  for (int i = 0; i < 10; ++i) c.step();
  // Same SNR, richer table: link adaptation can exceed the 64QAM ceiling.
  EXPECT_GT(mcs_spectral_efficiency(c.mcs(), McsTable::kQam256),
            mcs_spectral_efficiency(mcs64, McsTable::kQam64) * 1.1);
}

TEST(Channel256, PinnedChannelClampsToTableMax) {
  Channel c = Channel::pinned_mcs(28);
  c.set_mcs_table(McsTable::kQam256);
  EXPECT_EQ(c.mcs(), 27u);  // table 2 tops out at MCS 27
}

TEST(Mac256, TableSwitchRaisesGoodSnrThroughput) {
  class Rr final : public IntraSliceScheduler {
   public:
    Result<codec::SchedResponse> schedule(const codec::SchedRequest& req) override {
      codec::SchedResponse resp;
      for (const auto& ue : req.ues) resp.allocs.push_back({ue.rnti, req.prb_quota});
      return resp;
    }
    const char* name() const override { return "all"; }
  };
  GnbMac mac(MacConfig{});
  // A trivially-serving inter-slice scheduler.
  class AllInter final : public InterSliceScheduler {
   public:
    void allocate(uint32_t n_prbs, std::span<const SliceDemand>,
                  std::span<uint32_t> q) override {
      std::fill(q.begin(), q.end(), n_prbs);
    }
    const char* name() const override { return "all"; }
  };
  mac.set_inter_scheduler(std::make_unique<AllInter>());
  SliceConfig cfg;
  cfg.slice_id = 1;
  mac.add_slice(cfg, std::make_unique<Rr>());
  uint32_t rnti = mac.add_ue(1, Channel::fading({.mean_snr_db = 24.0, .sigma_db = 0.5}, 5),
                             TrafficSource::full_buffer());
  ASSERT_TRUE(mac.run_slots(3000).ok());
  double rate64 = mac.ue(rnti)->rate_bps(mac.now_s());

  mac.set_mcs_table(McsTable::kQam256);  // the RIC flips the cell to table 2
  ASSERT_TRUE(mac.run_slots(3000).ok());
  double rate256 = mac.ue(rnti)->rate_bps(mac.now_s());
  EXPECT_GT(rate256, rate64 * 1.15);
}

TEST(MacNumerology, ThirtyKhzScsHalvesSlotAndKeepsRates) {
  // Numerology 1: 500 us slots. Same offered CBR load must still be served.
  MacConfig cfg;
  cfg.slot_us = 500;
  GnbMac mac(cfg);
  mac.set_inter_scheduler(std::make_unique<sched::WeightedShareInterScheduler>());
  SliceConfig slice;
  slice.slice_id = 1;
  mac.add_slice(slice, std::make_unique<sched::RrScheduler>());
  uint32_t rnti = mac.add_ue(1, Channel::pinned_mcs(20), TrafficSource::cbr(4e6));
  ASSERT_TRUE(mac.run_slots(6000).ok());  // 3 s of air time
  EXPECT_NEAR(mac.now_s(), 3.0, 1e-9);
  EXPECT_NEAR(mac.ue(rnti)->rate_bps(mac.now_s()), 4e6, 0.4e6);
}

}  // namespace
}  // namespace waran::ran

// Appended: BLER + HARQ (production-realism extension; off by default so
// every paper experiment is unaffected).
namespace waran::ran {
namespace {

TEST(Bler, LogisticAroundAdaptationPoint) {
  // At the link-adaptation operating point (SNR comfortably above the MCS
  // threshold) BLER is small; far below it, it approaches 1.
  Channel good = Channel::fading({.mean_snr_db = 20.0, .sigma_db = 0.1}, 1);
  for (int i = 0; i < 10; ++i) good.step();
  EXPECT_LT(good.bler(), 0.1);
  EXPECT_GT(good.bler(), 0.0);

  Channel pinned = Channel::pinned_mcs(20);
  EXPECT_DOUBLE_EQ(pinned.bler(), 0.0);  // pinned: ideal unless forced
  pinned.set_fixed_bler(0.25);
  EXPECT_DOUBLE_EQ(pinned.bler(), 0.25);
}

namespace harq_helpers {

struct RunResult {
  double rate_bps;
  SliceStats stats;
};

RunResult run_with(bool channel_errors, bool harq, double fixed_bler) {
  MacConfig cfg;
  cfg.channel_errors = channel_errors;
  cfg.enable_harq = harq;
  GnbMac mac(cfg);
  mac.set_inter_scheduler(std::make_unique<sched::WeightedShareInterScheduler>());
  SliceConfig slice;
  slice.slice_id = 1;
  mac.add_slice(slice, std::make_unique<sched::RrScheduler>());
  Channel ch = Channel::pinned_mcs(20);
  ch.set_fixed_bler(fixed_bler);
  uint32_t rnti = mac.add_ue(1, ch, TrafficSource::full_buffer());
  EXPECT_TRUE(mac.run_slots(4000).ok());
  return {mac.ue(rnti)->rate_bps(mac.now_s()), *mac.slice_stats(1)};
}

}  // namespace harq_helpers

TEST(Harq, ErrorsReduceGoodputHarqRecoversMostOfIt) {
  using harq_helpers::run_with;
  double clean = run_with(false, true, 0.5).rate_bps;
  auto no_harq = run_with(true, false, 0.5);
  auto with_harq = run_with(true, true, 0.5);

  // Without HARQ, half the TBs are lost outright.
  EXPECT_LT(no_harq.rate_bps, clean * 0.58);
  EXPECT_GT(no_harq.stats.tb_drops, 1700u);  // ~50% of 4000 slots

  // HARQ recovers most of it: each retransmission costs a slot, but chase
  // combining makes the second attempt succeed ~75% of the time.
  // Theoretical goodput ratio here: (1/1.64) / 0.5 ~ 1.22.
  EXPECT_GT(with_harq.rate_bps, no_harq.rate_bps * 1.12);
  EXPECT_GT(with_harq.stats.harq_retx, 0u);
  EXPECT_LT(with_harq.stats.tb_drops, with_harq.stats.harq_retx / 5);
  // But retransmissions still cost capacity vs a clean channel.
  EXPECT_LT(with_harq.rate_bps, clean);
}

TEST(Harq, DeterministicForSeed) {
  using harq_helpers::run_with;
  auto a = run_with(true, true, 0.2);
  auto b = run_with(true, true, 0.2);
  EXPECT_DOUBLE_EQ(a.rate_bps, b.rate_bps);
  EXPECT_EQ(a.stats.harq_retx, b.stats.harq_retx);
}

TEST(Harq, PerfectChannelNeverRetransmits) {
  using harq_helpers::run_with;
  auto r = run_with(true, true, 0.0);
  EXPECT_EQ(r.stats.harq_retx, 0u);
  EXPECT_EQ(r.stats.tb_drops, 0u);
}

TEST(Harq, HopelessChannelDropsAfterMaxAttempts) {
  using harq_helpers::run_with;
  auto r = run_with(true, true, 1.0);  // every transmission fails
  EXPECT_NEAR(r.rate_bps, 0.0, 1.0);
  EXPECT_GT(r.stats.tb_drops, 0u);
  // Attempt accounting: drops happen only after 4 retransmissions.
  EXPECT_GE(r.stats.harq_retx, r.stats.tb_drops * 4);
}

}  // namespace
}  // namespace waran::ran
