// Tests for waran::obs — trace ring, metrics registry, anomaly journal,
// and the exporters the waran_obs tool and CI smoke check rely on.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "codec/json.h"
#include "obs/anomaly.h"
#include "obs/fleet.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "tests/heap_probe_guard.h"

namespace waran::obs {
namespace {

// The registry is a process-wide singleton; each test starts from a clean
// sheet and records into its own ring, bound to the test thread.
class ObsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    TraceRing::bind_current(&ring_);
    MetricsRegistry::global().reset_values();
    set_current_slot(0);
  }
  void TearDown() override { TraceRing::bind_current(nullptr); }

  TraceRing ring_;
};

TEST_F(ObsTest, DisabledRingRecordsNothing) {
  TraceRing& ring = ring_;
  ASSERT_FALSE(ring.enabled());
  uint64_t before = ring.writes();
  ring.record(TraceCat::kMac, "noop", 1, 2, 3);
  ring.instant(TraceCat::kMac, "noop");
  { ObsSpan span(TraceCat::kWasm, "noop"); }
  EXPECT_EQ(ring.writes(), before);
  EXPECT_TRUE(ring.snapshot().empty());
}

TEST_F(ObsTest, WrapAroundKeepsNewestEvents) {
  TraceRing& ring = ring_;
  ring.enable(8);  // already a power of two
  ASSERT_EQ(ring.capacity(), 8u);
  for (uint32_t i = 0; i < 20; ++i) {
    ring.record(TraceCat::kOther, "e", /*t_ns=*/i, /*dur_ns=*/1, /*arg=*/i);
  }
  EXPECT_EQ(ring.writes(), 20u);
  EXPECT_EQ(ring.dropped(), 12u);
  std::vector<TraceEvent> events = ring.snapshot();
  ASSERT_EQ(events.size(), 8u);
  // Oldest-first snapshot of the newest 8 events: args 12..19.
  for (size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].arg, 12u + i);
  }
}

TEST_F(ObsTest, CapacityRoundsUpToPowerOfTwo) {
  TraceRing& ring = ring_;
  ring.enable(5);
  EXPECT_EQ(ring.capacity(), 8u);
}

TEST_F(ObsTest, EventsCarryCurrentSlot) {
  TraceRing& ring = ring_;
  ring.enable(16);
  set_current_slot(42);
  ring.instant(TraceCat::kMac, "tick");
  set_current_slot(43);
  ring.instant(TraceCat::kMac, "tick");
  auto events = ring.snapshot();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].slot, 42u);
  EXPECT_EQ(events[1].slot, 43u);
}

TEST_F(ObsTest, LongNamesAreTruncatedNotOverflowed) {
  TraceRing& ring = ring_;
  ring.enable(4);
  std::string long_name(100, 'x');
  ring.instant(TraceCat::kOther, long_name);
  auto events = ring.snapshot();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(std::string(events[0].name), std::string(25, 'x'));
}

TEST_F(ObsTest, ChromeTraceExportParsesAsJson) {
  TraceRing& ring = ring_;
  ring.enable(16);
  set_current_slot(7);
  ring.record(TraceCat::kMac, "slot", 1000, 500, 7);
  ring.record(TraceCat::kWasm, "run \"quoted\"", 1100, 200, 0);
  ring.record(TraceCat::kAnomaly, "trap", 1200, 0, 0, 'i');

  // One track: the process_name metadata event, then the ring's events.
  auto parsed = codec::Json::parse(export_merged_chrome_trace({{"cell0", 1, &ring}}));
  ASSERT_TRUE(parsed.ok()) << parsed.error().message;
  const codec::Json& events = (*parsed)["traceEvents"];
  ASSERT_TRUE(events.is_array());
  ASSERT_EQ(events.size(), 4u);
  EXPECT_EQ(events.as_array()[0]["ph"].as_string(), "M");
  const codec::Json& first = events.as_array()[1];
  EXPECT_EQ(first["name"].as_string(), "slot");
  EXPECT_EQ(first["ph"].as_string(), "X");
  EXPECT_EQ(first["args"]["slot"].as_number(), 7.0);
  EXPECT_EQ(events.as_array()[2]["name"].as_string(), "run \"quoted\"");
  EXPECT_EQ(events.as_array()[3]["ph"].as_string(), "i");
}

TEST_F(ObsTest, HistogramPowerOfTwoBoundaries) {
  Histogram h;
  h.add(0);  // bucket 0
  h.add(1);  // bucket 1: [1,2)
  h.add(2);  // bucket 2: [2,4)
  h.add(3);  // bucket 2
  h.add(4);  // bucket 3: [4,8)
  h.add(255);   // bucket 8: [128,256)
  h.add(256);   // bucket 9: [256,512)
  EXPECT_EQ(h.bucket_count(0), 1u);
  EXPECT_EQ(h.bucket_count(1), 1u);
  EXPECT_EQ(h.bucket_count(2), 2u);
  EXPECT_EQ(h.bucket_count(3), 1u);
  EXPECT_EQ(h.bucket_count(8), 1u);
  EXPECT_EQ(h.bucket_count(9), 1u);
  EXPECT_EQ(h.count(), 7u);
  EXPECT_EQ(h.sum(), 0u + 1 + 2 + 3 + 4 + 255 + 256);

  EXPECT_EQ(Histogram::bucket_upper_bound(0), 1u);
  EXPECT_EQ(Histogram::bucket_upper_bound(1), 2u);
  EXPECT_EQ(Histogram::bucket_upper_bound(10), 1024u);
  EXPECT_EQ(Histogram::bucket_upper_bound(64), UINT64_MAX);
}

TEST_F(ObsTest, HistogramQuantileEstimates) {
  Histogram h;
  EXPECT_EQ(h.quantile(0.5), 0u);  // empty
  for (int i = 0; i < 99; ++i) h.add(3);   // bucket 2, upper bound 4
  h.add(1000);                              // bucket 10, upper bound 1024
  // p50 falls in the low bucket, p995 in the outlier bucket.
  EXPECT_LE(h.quantile(0.5), 4u);
  EXPECT_GT(h.quantile(0.995), 4u);
}

TEST_F(ObsTest, CounterConcurrencySmoke) {
  Counter& c = MetricsRegistry::global().counter("waran_test_concurrency_total");
  c.reset();
  constexpr int kThreads = 4;
  constexpr int kIters = 20000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&c] {
      for (int i = 0; i < kIters; ++i) c.add();
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(c.value(), static_cast<uint64_t>(kThreads) * kIters);
}

TEST_F(ObsTest, RegistryReturnsStableInstruments) {
  auto& reg = MetricsRegistry::global();
  Counter& a = reg.counter("waran_test_stable_total", {{"slot", "rr"}});
  Counter& b = reg.counter("waran_test_stable_total", {{"slot", "rr"}});
  Counter& other = reg.counter("waran_test_stable_total", {{"slot", "pf"}});
  EXPECT_EQ(&a, &b);
  EXPECT_NE(&a, &other);
}

TEST_F(ObsTest, PrometheusExportFormat) {
  auto& reg = MetricsRegistry::global();
  reg.counter("waran_test_prom_total", {{"domain", "mac"}, {"slot", "rr"}}).add(3);
  reg.histogram("waran_test_prom_ns").add(7);

  std::string text = reg.to_prometheus();
  EXPECT_NE(text.find("# TYPE waran_test_prom_total counter"), std::string::npos);
  EXPECT_NE(text.find("waran_test_prom_total{domain=\"mac\",slot=\"rr\"} 3"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE waran_test_prom_ns histogram"), std::string::npos);
  EXPECT_NE(text.find("waran_test_prom_ns_bucket{le=\"+Inf\"} 1"), std::string::npos);
  EXPECT_NE(text.find("waran_test_prom_ns_sum 7"), std::string::npos);
  EXPECT_NE(text.find("waran_test_prom_ns_count 1"), std::string::npos);
}

TEST_F(ObsTest, JsonExportRoundTrips) {
  auto& reg = MetricsRegistry::global();
  reg.counter("waran_test_json_total", {{"k", "v\"esc"}}).add(11);
  reg.histogram("waran_test_json_ns").add(100);

  auto parsed = codec::Json::parse(reg.to_json());
  ASSERT_TRUE(parsed.ok()) << parsed.error().message;
  const codec::Json& counters = (*parsed)["counters"];
  ASSERT_TRUE(counters.is_object());
  EXPECT_EQ(counters["waran_test_json_total{k=\"v\\\"esc\"}"].as_number(), 11.0);
  const codec::Json& hist = (*parsed)["histograms"]["waran_test_json_ns"];
  ASSERT_TRUE(hist.is_object());
  EXPECT_EQ(hist["count"].as_number(), 1.0);
  EXPECT_EQ(hist["sum"].as_number(), 100.0);
}

TEST_F(ObsTest, MergedJournalsOrderBySlotDomainThenJournal) {
  AnomalyJournal mac, ric;
  set_current_slot(9);
  ric.record(AnomalyKind::kTrap, "ric", "xapp:sla", "oob");
  mac.record(AnomalyKind::kSanitized, "mac0", "slice 1", "clamped");
  set_current_slot(8);
  ric.record(AnomalyKind::kFuelExhausted, "ric", "xapp:sla", "fuel");
  mac.record(AnomalyKind::kFrameRejected, "ric", "comm", "bad magic");

  const AnomalyJournal* journals[] = {&mac, &ric};
  const std::vector<AnomalyRecord> merged = merge_journals(journals);
  ASSERT_EQ(merged.size(), 4u);
  // Slot 8 first; within (8, "ric") the earlier journal in the list wins.
  EXPECT_EQ(merged[0].detail, "bad magic");
  EXPECT_EQ(merged[1].detail, "fuel");
  EXPECT_EQ(merged[2].detail, "clamped");  // "mac0" < "ric" in slot 9
  EXPECT_EQ(merged[3].detail, "oob");
  EXPECT_EQ(merged[3].slot, 9u);
  EXPECT_EQ(merged[3].kind, AnomalyKind::kTrap);
  EXPECT_EQ(mac.total() + ric.total(), 4u);
}

TEST_F(ObsTest, AnomalyJournalEvictsAtCapacityButTotalIsMonotone) {
  AnomalyJournal journal;
  journal.set_capacity(4);
  for (int i = 0; i < 10; ++i) {
    journal.record(i < 7 ? AnomalyKind::kOther : AnomalyKind::kTrap, "mac", "s",
                   std::to_string(i));
  }
  auto records = journal.snapshot();
  ASSERT_EQ(records.size(), 4u);
  EXPECT_EQ(records.front().detail, "6");
  EXPECT_EQ(records.back().detail, "9");
  EXPECT_EQ(journal.total(), 10u);
  // Per-kind counts and sequence numbers survive eviction.
  EXPECT_EQ(journal.count(AnomalyKind::kOther), 7u);
  EXPECT_EQ(journal.count(AnomalyKind::kTrap), 3u);
  EXPECT_EQ(journal.count(AnomalyKind::kQuarantine), 0u);
  EXPECT_EQ(records.back().seq, 9u);
}

TEST_F(ObsTest, AnomalyRecordFeedsMetricsAndTrace) {
  ring_.enable(16);
  AnomalyJournal journal;
  journal.record(AnomalyKind::kTrap, "ric", "xapp:t", "boom");
  auto events = ring_.snapshot();
  bool saw_anomaly = false;
  for (const TraceEvent& e : events) {
    if (e.cat == static_cast<uint8_t>(TraceCat::kAnomaly)) saw_anomaly = true;
  }
  EXPECT_TRUE(saw_anomaly);
  std::string prom = MetricsRegistry::global().to_prometheus();
  EXPECT_NE(prom.find("waran_anomaly_total{domain=\"ric\",kind=\"trap\"} 1"),
            std::string::npos)
      << prom;
}

TEST_F(ObsTest, UnboundThreadTracesNothingButStillJournals) {
  // How production runs: no ring bound. A span allocates nothing and
  // reaches no ring, even an enabled one, and a journal record still lands.
  ring_.enable(16);
  TraceRing::bind_current(nullptr);
  ASSERT_EQ(TraceRing::current(), nullptr);
  const uint64_t allocs_before = heap_probe::allocations();
  for (int i = 0; i < 64; ++i) {
    ObsSpan span(TraceCat::kWasm, "unbound");
  }
  EXPECT_EQ(heap_probe::allocations(), allocs_before);
  AnomalyJournal journal;
  journal.record(AnomalyKind::kTrap, "mac", "slot", "boom");
  EXPECT_EQ(ring_.writes(), 0u);
  auto records = journal.snapshot();
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].kind, AnomalyKind::kTrap);
  EXPECT_EQ(records[0].detail, "boom");
}

}  // namespace
}  // namespace waran::obs
