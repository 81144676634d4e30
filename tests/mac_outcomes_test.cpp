// MAC outcome record: what the slot loop delivers, pinned across versions.
//
// Each test runs a deterministic MAC scenario and writes one line per slice
// and per UE at a few checkpoints: the slice counters, every UE's buffer,
// delivered bits and HARQ state, and the float results (the PF average,
// windowed UE and slice rates) as hex floats, so a change that moves any
// result by one ulp shows. The lines are compared with the record in
// tests/data/mac_outcomes.txt, taken from an earlier MAC; a test fails when
// one of its lines differs, is missing or is extra (tests/outcome_record.h).
//
// Scenarios: a dense virtual-time deployment (3 Wasm-scheduled slices x 64
// UEs with the E2 loop on, so the RIC's quota table drives the slices), and
// a standalone GnbMac under each native inter-slice scheduler with mixed
// traffic, HARQ errors, UE churn and an MCS-table switch.
#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "ran/mac.h"
#include "ric/quota_inter.h"
#include "rt/deployment.h"
#include "sched/native.h"
#include "tests/outcome_record.h"

namespace waran {
namespace {

std::string hex(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%a", v);
  return buf;
}

outcomes::OutcomeRecord& record() {
  static outcomes::OutcomeRecord r("MacOutcomes", "mac_outcomes");
  return r;
}

const auto* const kRecordWriter =
    ::testing::AddGlobalTestEnvironment(new outcomes::RecordWriter(record()));

class MacOutcomes : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::MetricsRegistry::global().reset_values();
    obs::set_current_slot(0);
  }
  void TearDown() override { record().check_current_test(); }
};

/// One line per slice, then one per UE, tagged with `tag`.
void record_mac(const ran::GnbMac& mac, const std::string& tag) {
  char buf[256];
  mac.for_each_slice([&](const ran::SliceConfig& c, const ran::SliceStats& s) {
    std::snprintf(buf, sizeof(buf),
                  "slice=%u scheduled=%" PRIu64 " faults=%" PRIu64 " sanitized=%" PRIu64
                  " retx=%" PRIu64 " drops=%" PRIu64 " quota=%u",
                  c.slice_id, s.slots_scheduled, s.scheduler_faults, s.sanitized_allocs,
                  s.harq_retx, s.tb_drops, s.last_quota);
    record().add(tag + " " + buf + " rate=" + hex(mac.slice_rate_bps(c.slice_id)));
  });
  const double now = mac.now_s();
  mac.for_each_ue([&](const ran::UeContext& ue) {
    std::snprintf(buf, sizeof(buf),
                  "ue=%u slice=%u buffer=%u bits=%" PRIu64 " harq=%u/%u mcs=%u",
                  ue.rnti(), ue.slice_id(), ue.buffer_bytes(), ue.delivered_bits(),
                  ue.harq_bits(), ue.harq_attempts(), ue.channel().mcs());
    record().add(tag + " " + buf + " avg=" + hex(ue.avg_tput_bps()) +
                 " rate=" + hex(ue.rate_bps(now)));
  });
}

/// The rate windows seen from other times, in an order that keeps every
/// query meaningful: a stale query (clamped to the newest sample), then
/// queries half a window and two windows ahead (the latter evicts every
/// sample).
void record_rate_edges(const ran::GnbMac& mac, const std::string& tag) {
  const double now = mac.now_s();
  mac.for_each_ue([&](const ran::UeContext& ue) {
    const std::string stale = hex(ue.rate_bps(now - 0.25));
    const std::string ahead = hex(ue.rate_bps(now + 0.5));
    const std::string gone = hex(ue.rate_bps(now + 2.0));
    record().add(tag + " ue=" + std::to_string(ue.rnti()) + " stale=" + stale +
                 " ahead=" + ahead + " gone=" + gone);
  });
}

TEST_F(MacOutcomes, DenseVirtualTimeDeployment) {
  rt::DeploymentConfig cfg;
  cfg.cells = 1;
  cfg.seed = 11;
  cfg.threaded = false;
  cfg.virtual_time = true;
  cfg.report_period_slots = 100;
  for (rt::SliceSpec& s : cfg.slices) s.ues = 64;
  rt::GnbDeployment dep(cfg);
  ASSERT_TRUE(dep.status().ok()) << dep.status().error().message;
  for (int checkpoint = 1; checkpoint <= 3; ++checkpoint) {
    ASSERT_TRUE(dep.run_slots(500).ok());
    record_mac(dep.mac(0), "slot" + std::to_string(dep.mac(0).slot()));
  }
  record_rate_edges(dep.mac(0), "end");
}

/// Which inter-slice scheduler a standalone-MAC scenario runs under.
enum class Inter { kWeightedShare, kTargetRate, kPriority, kQuotaTable };

std::unique_ptr<ran::InterSliceScheduler> make_inter(Inter kind) {
  switch (kind) {
    case Inter::kWeightedShare:
      return std::make_unique<sched::WeightedShareInterScheduler>();
    case Inter::kTargetRate:
      return std::make_unique<sched::TargetRateInterScheduler>();
    case Inter::kPriority:
      return std::make_unique<sched::PriorityInterScheduler>();
    case Inter::kQuotaTable: {
      auto q = std::make_unique<ric::QuotaTableInterScheduler>();
      q->set_quota(2, 20);  // slices 1 and 3 split the carrier evenly
      return q;
    }
  }
  return nullptr;
}

/// A 4-slice MAC with mixed traffic and fading, pinned and errored
/// channels: 600 slots with UE churn at slot 200, the 256QAM table from
/// slot 300 to slot 450, and a checkpoint every 200 slots.
void run_standalone(Inter kind, bool harq, uint64_t seed) {
  ran::MacConfig mc;
  mc.channel_errors = true;
  mc.enable_harq = harq;
  mc.error_seed = seed;
  ran::GnbMac mac(mc);
  mac.set_inter_scheduler(make_inter(kind));
  const char* policies[] = {"rr", "pf", "mt", "drr"};
  const double targets[] = {4e6, 12e6, 9e6, 0.0};
  const double weights[] = {1.0, 3.0, 2.0, 0.5};
  for (uint32_t s = 0; s < 4; ++s) {
    ran::SliceConfig sc;
    sc.slice_id = s + 1;
    sc.name = policies[s];
    sc.target_rate_bps = targets[s];
    sc.weight = weights[s];
    mac.add_slice(sc, sched::make_native_scheduler(policies[s]));
  }
  // Slice 4 stays empty until the churn adds its UEs.
  uint64_t ue_seed = seed * 1000;
  auto add = [&](uint32_t slice, int variant) {
    ++ue_seed;
    ran::Channel::FadingParams fading;
    fading.mean_snr_db = 6.0 + 3.0 * (variant % 6);
    fading.sigma_db = 2.0 + (variant % 3);
    ran::Channel channel = variant % 7 == 3 ? ran::Channel::pinned_mcs(5 + variant % 20)
                                            : ran::Channel::fading(fading, ue_seed);
    if (variant % 7 == 3) channel.set_fixed_bler(0.1);
    ran::TrafficSource traffic =
        variant % 3 == 0   ? ran::TrafficSource::full_buffer()
        : variant % 3 == 1 ? ran::TrafficSource::cbr(1e6 + 2.5e5 * variant)
                           : ran::TrafficSource::on_off(3e6, 40, 60, ue_seed * 7);
    return mac.add_ue(slice, std::move(channel), std::move(traffic));
  };
  std::vector<uint32_t> rntis;
  for (int v = 0; v < 18; ++v) rntis.push_back(add(1 + v % 3, v));

  ASSERT_TRUE(mac.run_slots(200).ok());
  record_mac(mac, "slot200");
  // Churn: detach three UEs (one per populated slice), attach five, two of
  // them into the empty slice 4.
  for (size_t i : {1, 8, 15}) ASSERT_TRUE(mac.remove_ue(rntis[i]).ok());
  for (int v = 18; v < 23; ++v) add(v < 20 ? 4 : 1 + v % 3, v);
  ASSERT_TRUE(mac.run_slots(100).ok());
  mac.set_mcs_table(ran::McsTable::kQam256);
  ASSERT_TRUE(mac.run_slots(100).ok());
  record_mac(mac, "slot400");
  ASSERT_TRUE(mac.run_slots(50).ok());
  mac.set_mcs_table(ran::McsTable::kQam64);
  ASSERT_TRUE(mac.run_slots(150).ok());
  record_mac(mac, "slot600");
  record_rate_edges(mac, "end");
}

TEST_F(MacOutcomes, WeightedShareMixedTraffic) { run_standalone(Inter::kWeightedShare, true, 3); }
TEST_F(MacOutcomes, TargetRateMixedTraffic) { run_standalone(Inter::kTargetRate, true, 5); }
TEST_F(MacOutcomes, PriorityMixedTraffic) { run_standalone(Inter::kPriority, true, 7); }
TEST_F(MacOutcomes, QuotaTableMixedTraffic) { run_standalone(Inter::kQuotaTable, true, 9); }
TEST_F(MacOutcomes, TargetRateWithoutHarq) { run_standalone(Inter::kTargetRate, false, 13); }

TEST_F(MacOutcomes, RecordNamesOnlyExistingTests) {
  record().check_tests_exist();
}

}  // namespace
}  // namespace waran
