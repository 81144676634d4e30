// Tests for the waran::obs fleet telemetry plane (obs/fleet.h, obs/slo.h,
// obs/flight.h) and its wiring through the runtime layer:
//
//   - HistState is an exact snapshot of the log2 Histogram: merging states
//     answers the same quantile queries as one combined histogram would,
//     including the boundary buckets (0, 1, UINT64_MAX, bucket edges).
//   - CellTelemetry round-trips through the E2-lite indication encoding
//     bit for bit, and its absence / trailing garbage behave as specified.
//   - The RIC's wire-reconstructed FleetView equals the deployment's
//     shipped ground truth exactly after a report boundary.
//   - Repeated virtual-time runs export byte-identical merged traces,
//     identical HealthReports and identical flight bundles — threaded or
//     inline.
//   - A breached SLO lands kSloBreach journal entries, fires the breach
//     hook, and yields a deterministic flight-recorder bundle.
//   - A bundle's replay line names the run's slot count and clock, and
//     its anomaly tail does not depend on how journals interleaved.
//   - A cell's anomaly count covers every AnomalyKind, counts only its own
//     deployment's records, and every count of a cell equals the ledgers
//     of the components it reads.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <iterator>
#include <set>
#include <string>
#include <vector>

#include "analysis/analysis.h"
#include "codec/json.h"
#include "obs/anomaly.h"
#include "obs/fleet.h"
#include "obs/flight.h"
#include "obs/metrics.h"
#include "obs/slo.h"
#include "obs/trace.h"
#include "plugin/manager.h"
#include "ric/e2lite.h"
#include "ric/gnb_agent.h"
#include "ric/near_rt_ric.h"
#include "ric/transport.h"
#include "rt/deployment.h"
#include "sched/plugins.h"
#include "wasm/wasm.h"
#include "wasmbuilder/builder.h"

namespace waran {
namespace {

// ---------------------------------------------------------------------------
// HistState: exact log2-histogram snapshot + merge

// Adversarial value set hitting the boundary buckets: 0 (bucket 0), 1,
// every bucket edge (2^k - 1 rolls into bucket k, 2^k into bucket k+1) and
// the saturating top bucket.
std::vector<uint64_t> boundary_values() {
  std::vector<uint64_t> vs = {0, 1, 2, 3};
  for (int k = 2; k < 64; k += 7) {
    vs.push_back((uint64_t{1} << k) - 1);
    vs.push_back(uint64_t{1} << k);
    vs.push_back((uint64_t{1} << k) + 1);
  }
  vs.push_back(UINT64_MAX - 1);
  vs.push_back(UINT64_MAX);
  return vs;
}

TEST(HistState, SnapshotMatchesHistogramExactly) {
  obs::Histogram h;
  for (uint64_t v : boundary_values()) h.add(v);
  const obs::HistState s = obs::HistState::from(h);
  EXPECT_EQ(s.count, h.count());
  EXPECT_EQ(s.sum, h.sum());
  for (double q : {0.01, 0.10, 0.25, 0.50, 0.75, 0.90, 0.99, 1.0}) {
    EXPECT_EQ(s.quantile(q), h.quantile(q)) << "q=" << q;
  }
}

TEST(HistState, MergeEqualsCombinedHistogram) {
  // Split the boundary set across two histograms, merge the snapshots, and
  // demand bucket-for-bucket equality with one histogram that saw it all.
  obs::Histogram a, b, combined;
  const std::vector<uint64_t> vs = boundary_values();
  for (size_t i = 0; i < vs.size(); ++i) {
    (i % 2 == 0 ? a : b).add(vs[i]);
    combined.add(vs[i]);
  }
  obs::HistState merged = obs::HistState::from(a);
  merged.merge(obs::HistState::from(b));
  EXPECT_EQ(merged, obs::HistState::from(combined));
  for (double q : {0.01, 0.50, 0.99, 1.0}) {
    EXPECT_EQ(merged.quantile(q), combined.quantile(q)) << "q=" << q;
  }
}

TEST(HistState, SubtractRecoversWindowDelta) {
  obs::Histogram h;
  h.add(0);
  h.add(5);
  const obs::HistState base = obs::HistState::from(h);
  h.add(1);
  h.add(UINT64_MAX);
  obs::HistState window = obs::HistState::from(h);
  window.subtract(base);
  obs::Histogram delta;
  delta.add(1);
  delta.add(UINT64_MAX);
  EXPECT_EQ(window, obs::HistState::from(delta));
}

TEST(HistState, EmptyQuantileIsZero) {
  obs::HistState s;
  EXPECT_EQ(s.quantile(0.5), 0u);
  EXPECT_EQ(s.mean(), 0.0);
}

// ---------------------------------------------------------------------------
// CellTelemetry merge + E2 wire round-trip

// Every counter holds a distinct value, so swapping any two of them in
// merge() or on the wire changes the result.
obs::CellTelemetry sample_telemetry(uint32_t cell) {
  obs::CellTelemetry t;
  t.gnb = 3;
  t.cell = cell;
  t.slots = 100 + cell;
  t.slot_overruns = 2;
  t.prb_granted = 5000 + cell;
  t.prb_capacity = 5200;
  t.slots_scheduled = 300;
  t.sched_faults = 4;
  t.sanitized_allocs = 1;
  t.plugin_calls = 321;
  t.plugin_traps = 5;
  t.plugin_fuel_exhausted = 6;
  t.plugin_declines = 7;
  t.plugin_fuel_used = 987654;
  t.quarantines = 8;
  t.frames_rejected = 3;
  t.anomalies = 11;
  t.trace_writes = 4096;
  t.trace_dropped = 17;
  t.slot_wall_ns.buckets[0] = 1;
  t.slot_wall_ns.buckets[10] = 90 + cell;
  t.slot_wall_ns.buckets[obs::Histogram::kBuckets - 1] = 1;
  t.slot_wall_ns.sum = 123456789;
  t.slot_wall_ns.count = 92 + cell;
  t.sched_wall_ns.buckets[7] = 300;
  t.sched_wall_ns.sum = 777;
  t.sched_wall_ns.count = 300;
  return t;
}

TEST(CellTelemetry, MergeSumsCountersAndBuckets) {
  const obs::CellTelemetry a0 = sample_telemetry(0);
  std::set<uint64_t> distinct;
  for (const obs::TelemetryCounter& c : obs::kTelemetryCounters) {
    distinct.insert(a0.*c.member);
  }
  ASSERT_EQ(distinct.size(), std::size(obs::kTelemetryCounters));

  obs::CellTelemetry a = a0;
  const obs::CellTelemetry b = sample_telemetry(1);
  a.merge(b);
  for (const obs::TelemetryCounter& c : obs::kTelemetryCounters) {
    EXPECT_EQ(a.*c.member, a0.*c.member + b.*c.member) << c.name;
  }
  EXPECT_EQ(a.cells_merged, 2u);
  EXPECT_EQ(a.cell, 0u);  // keeps the lowest member id
  EXPECT_EQ(a.slots, (100u + 0) + (100u + 1));
  EXPECT_EQ(a.prb_granted, 5000u + 5001u);
  EXPECT_EQ(a.slot_wall_ns.buckets[10], (90u + 0) + (90u + 1));
  EXPECT_EQ(a.slot_wall_ns.count, (92u + 0) + (92u + 1));
  EXPECT_EQ(a.sched_wall_ns.buckets[7], 600u);
}

// One slice and one UE ahead of the telemetry block.
ric::IndicationReport one_ue_report(const obs::CellTelemetry& t) {
  ric::IndicationReport report;
  ric::SliceReport s;
  s.slice_id = 1;
  s.quota_prbs = 12;
  s.target_bps = 4e6;
  s.rate_bps = 3.5e6;
  report.slices.push_back(s);
  ric::UeReport u;
  u.rnti = 17;
  u.serving_cell = 2;
  u.cqi = 9;
  report.ues.push_back(u);
  report.telemetry = t;
  return report;
}

// Bytes of one_ue_report() before its telemetry block.
constexpr size_t kOneUeRecords = 8 + 24 + 4 + 24;
// Block header (tag, len), then the body's ids and counters, after which
// the first histogram's width byte sits.
constexpr size_t kBlockHeader = 8;
constexpr size_t kFirstWidthAt = kOneUeRecords + kBlockHeader + 12 + 17 * 8;
// One histogram on the wire: width, count, sum and 65 buckets.
constexpr size_t hist_bytes(size_t width) { return 17 + 65 * width; }

std::vector<uint8_t> encoded(const ric::IndicationReport& report) {
  std::vector<uint8_t> wire;
  ric::encode_indication(report, wire);
  return wire;
}

TEST(E2Telemetry, TelemetryBlockRoundTripsBitForBit) {
  // Buckets go at 4 bytes while a histogram's count and every bucket fit
  // in 32 bits and at 8 after that; either way they decode bit for bit.
  struct Case {
    const char* name;
    obs::CellTelemetry t;
    size_t slot_width, sched_width;
  };
  std::vector<Case> cases;
  cases.push_back({"sample", sample_telemetry(2), 4, 4});

  obs::CellTelemetry t = sample_telemetry(2);
  t.slot_wall_ns.count = UINT32_MAX;
  t.slot_wall_ns.buckets[20] = UINT32_MAX - 94;
  t.slot_wall_ns.sum = UINT64_MAX;
  cases.push_back({"count 2^32-1", t, 4, 4});

  t = sample_telemetry(2);
  t.slot_wall_ns.count = uint64_t{1} << 32;
  t.slot_wall_ns.buckets[20] = (uint64_t{1} << 32) - 94;
  cases.push_back({"count 2^32", t, 8, 4});

  t = sample_telemetry(2);
  t.sched_wall_ns.buckets[obs::Histogram::kBuckets - 1] = UINT64_MAX;
  cases.push_back({"UINT64_MAX bucket, small count", t, 4, 8});

  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    const ric::IndicationReport report = one_ue_report(c.t);
    const std::vector<uint8_t> wire = encoded(report);
    EXPECT_EQ(wire.size(), kFirstWidthAt + hist_bytes(c.slot_width) +
                               hist_bytes(c.sched_width));
    EXPECT_EQ(wire[kFirstWidthAt], c.slot_width);
    ric::IndicationReport decoded;
    Status st = ric::decode_indication(wire, decoded);
    ASSERT_TRUE(st.ok()) << st.error().message;
    ASSERT_TRUE(decoded.telemetry.has_value());
    for (const obs::TelemetryCounter& counter : obs::kTelemetryCounters) {
      EXPECT_EQ((*decoded.telemetry).*counter.member, c.t.*counter.member) << counter.name;
    }
    EXPECT_EQ(*decoded.telemetry, c.t);
    EXPECT_EQ(decoded, report);
  }
}

TEST(E2Telemetry, EqualCountsEncodeToEqualLengths) {
  // A histogram's width follows its sample counts, never the durations it
  // holds: the same number of quick and of widely spread samples encode to
  // the same length.
  obs::Histogram quick, spread;
  for (uint64_t i = 0; i < 1000; ++i) {
    quick.add(200 + i);
    spread.add(uint64_t{1} << (i % 40));
  }
  obs::CellTelemetry a = sample_telemetry(0);
  obs::CellTelemetry b = sample_telemetry(0);
  a.slot_wall_ns = a.sched_wall_ns = obs::HistState::from(quick);
  b.slot_wall_ns = b.sched_wall_ns = obs::HistState::from(spread);
  ASSERT_EQ(a.slot_wall_ns.count, b.slot_wall_ns.count);
  ASSERT_NE(a.slot_wall_ns.sum, b.slot_wall_ns.sum);
  ASSERT_NE(a, b);
  EXPECT_EQ(encoded(one_ue_report(a)).size(), encoded(one_ue_report(b)).size());
}

// A fresh exact-size copy of `wire` with `extra` zero bytes appended, so a
// decoder that reads past the end of a case trips the address sanitizer.
std::vector<uint8_t> copy_of(const std::vector<uint8_t>& wire, size_t extra = 0) {
  std::vector<uint8_t> out(wire.size() + extra, 0);
  std::copy(wire.begin(), wire.end(), out.begin());
  return out;
}

TEST(E2Telemetry, MalformedBlocksAreRejected) {
  const std::vector<uint8_t> good = encoded(one_ue_report(sample_telemetry(1)));
  const size_t len_at = kOneUeRecords + 4;
  const size_t sched_width_at = kFirstWidthAt + hist_bytes(4);
  ric::IndicationReport decoded;
  ASSERT_TRUE(ric::decode_indication(good, decoded).ok());
  auto rejected = [&](const std::vector<uint8_t>& wire) {
    return !ric::decode_indication(wire, decoded).ok();
  };
  auto set_u32 = [](std::vector<uint8_t>& wire, size_t at, uint32_t v) {
    std::memcpy(wire.data() + at, &v, 4);
  };

  std::vector<uint8_t> wire = copy_of(good);
  set_u32(wire, kOneUeRecords, 0x314c4554);  // "TEL1", the previous format's tag
  EXPECT_TRUE(rejected(wire)) << "TEL1 tag";

  // Width bytes other than 4 and 8, in a block whose length field and size
  // agree with them, so that only the width check can refuse it.
  auto with_widths = [&](uint8_t slot_width, uint8_t sched_width) {
    std::vector<uint8_t> block(good.begin(), good.begin() + kFirstWidthAt);
    block.resize(kFirstWidthAt + hist_bytes(slot_width) + hist_bytes(sched_width), 0x11);
    block[kFirstWidthAt] = slot_width;
    block[kFirstWidthAt + hist_bytes(slot_width)] = sched_width;
    set_u32(block, len_at, static_cast<uint32_t>(block.size() - len_at - 4));
    return copy_of(block);
  };
  ASSERT_FALSE(rejected(with_widths(8, 4)));
  for (uint8_t w : {0, 5, 9}) {
    EXPECT_TRUE(rejected(with_widths(w, 4))) << "slot width " << int{w};
    EXPECT_TRUE(rejected(with_widths(4, w))) << "sched width " << int{w};
  }
  // 0 + 8 and 5 + 3 bucket bytes fill a 4 + 4 block exactly.
  EXPECT_TRUE(rejected(with_widths(0, 8)));
  EXPECT_TRUE(rejected(with_widths(5, 3)));
  // A valid width that disagrees with the length field and the bytes left.
  for (size_t at : {kFirstWidthAt, sched_width_at}) {
    wire = copy_of(good);
    wire[at] = 8;
    EXPECT_TRUE(rejected(wire)) << "width 8 in a 4-byte histogram at byte " << at;
  }

  // The length field must agree with the widths and with the bytes left.
  const uint32_t body = static_cast<uint32_t>(good.size() - len_at - 4);
  for (uint32_t len : {body - 1, body + 1, body + 260, body + 520}) {
    wire = copy_of(good);
    set_u32(wire, len_at, len);
    EXPECT_TRUE(rejected(wire)) << "len " << len << " over " << body << " bytes";
  }
  for (uint32_t extra : {1u, 260u, 520u}) {
    wire = copy_of(good, extra);
    set_u32(wire, len_at, body + extra);
    EXPECT_TRUE(rejected(wire)) << "len " << body + extra << " matches the bytes, not the widths";
  }

  // Every cut is rejected but the two valid ones: right after the UE
  // records (no telemetry block) and the whole message.
  for (size_t k = 0; k <= good.size(); ++k) {
    const std::vector<uint8_t> cut(good.begin(), good.begin() + k);
    const bool valid = k == kOneUeRecords || k == good.size();
    EXPECT_EQ(ric::decode_indication(cut, decoded).ok(), valid) << "cut at " << k;
  }
}

TEST(E2Telemetry, AbsentBlockDecodesAsNullopt) {
  ric::IndicationReport report;
  report.slices.push_back({});
  std::vector<uint8_t> wire;
  ric::encode_indication(report, wire);
  ric::IndicationReport decoded;
  decoded.telemetry = sample_telemetry(1);  // a previous message's block
  ASSERT_TRUE(ric::decode_indication(wire, decoded).ok());
  EXPECT_FALSE(decoded.telemetry.has_value());
}

TEST(E2Telemetry, TrailingGarbageStaysADecodeError) {
  ric::IndicationReport report;
  report.telemetry = sample_telemetry(0);
  std::vector<uint8_t> wire;
  ric::encode_indication(report, wire);
  wire.push_back(0xab);  // junk after a valid telemetry block
  ric::IndicationReport decoded;
  EXPECT_FALSE(ric::decode_indication(wire, decoded).ok());

  std::vector<uint8_t> no_tel;
  ric::encode_indication(ric::IndicationReport{}, no_tel);
  no_tel.push_back(0x01);  // one junk byte is not a valid tagged tail either
  EXPECT_FALSE(ric::decode_indication(no_tel, decoded).ok());
}

// ---------------------------------------------------------------------------
// Deployment wiring: ground truth vs RIC reconstruction, determinism, SLOs

// The registry is process-wide: tests that compare its series start from
// zeroed values.
void reset_global_obs() {
  obs::MetricsRegistry::global().reset_values();
  obs::set_current_slot(0);
}

rt::DeploymentConfig fleet_config(uint32_t cells, bool threaded) {
  rt::DeploymentConfig cfg;
  cfg.cells = cells;
  cfg.seed = 11;
  cfg.threaded = threaded;
  cfg.virtual_time = true;
  cfg.report_period_slots = 10;
  cfg.trace_capacity = 256;
  cfg.slo_window_slots = 20;
  return cfg;
}

TEST(FleetPlane, RicReconstructionEqualsShippedGroundTruth) {
  reset_global_obs();
  rt::GnbDeployment dep(fleet_config(2, /*threaded=*/true));
  ASSERT_TRUE(dep.status().ok()) << dep.status().error().message;
  ASSERT_TRUE(dep.run_slots(40).ok());

  const ric::RicStats& stats = dep.ric().stats();
  EXPECT_GT(stats.telemetry_updates, 0u);
  EXPECT_EQ(stats.telemetry_updates, stats.indications_processed);
  EXPECT_EQ(dep.ric().fleet_view().size(), 2u);
  // The fleet-plane invariant: the view rebuilt purely from blocks that
  // crossed the wire (frame -> link -> unframe -> decode) equals the exact
  // summaries the cells last shipped — bucket for bucket.
  EXPECT_EQ(dep.ric().fleet_view(), dep.shipped_view());
}

TEST(FleetPlane, RealClockAndVirtualTimeSendEqualIndications) {
  // Same seed, E2 every slot, one deployment on the real clock and one on
  // virtual time: their slot durations differ, their event counts do not,
  // so every indication frame has the same size and the agent's comm
  // plugin spends the same fuel framing them.
  struct Run {
    std::vector<size_t> indication_sizes;
    uint64_t comm_fuel = 0;
  };
  auto run = [](bool virtual_time) {
    Run r;
    reset_global_obs();
    rt::DeploymentConfig cfg = fleet_config(1, /*threaded=*/false);
    cfg.virtual_time = virtual_time;
    cfg.report_period_slots = 1;
    rt::GnbDeployment dep(cfg);
    EXPECT_TRUE(dep.status().ok());
    dep.link(0).add_fault_stage([&r](std::vector<uint8_t>& frame, ric::Duplex::Side to) {
      if (to == ric::Duplex::Side::kB) r.indication_sizes.push_back(frame.size());
      return ric::Duplex::Fault{};
    });
    EXPECT_TRUE(dep.run_slots(200).ok());
    r.comm_fuel = dep.agent(0).plugin_cost("comm")->total_fuel();
    return r;
  };
  const Run real = run(false);
  const Run virt = run(true);
  ASSERT_EQ(real.indication_sizes.size(), 200u);
  EXPECT_EQ(real.indication_sizes, virt.indication_sizes);
  EXPECT_EQ(real.comm_fuel, virt.comm_fuel);
}

TEST(FleetPlane, RollupHierarchyIsExact) {
  reset_global_obs();
  rt::DeploymentConfig cfg = fleet_config(3, /*threaded=*/false);
  rt::GnbDeployment dep(cfg);
  ASSERT_TRUE(dep.status().ok());
  ASSERT_TRUE(dep.run_slots(30).ok());

  for (uint32_t i = 0; i < 3; ++i) (void)dep.fleet().collect_cell(i);
  const obs::CellTelemetry fleet = dep.fleet().fleet_rollup();
  EXPECT_EQ(fleet.cells_merged, 3u);
  EXPECT_EQ(fleet.slots, 3u * 30u);
  EXPECT_EQ(fleet.prb_capacity, 3u * 30u * cfg.mac.n_prbs);
  // Manual merge of the per-cell leaves must agree with the rollup.
  obs::CellTelemetry manual = dep.fleet().cell_total(0);
  manual.merge(dep.fleet().cell_total(1));
  manual.merge(dep.fleet().cell_total(2));
  EXPECT_EQ(manual, fleet);
}

TEST(FleetPlane, WindowDeltasSubtractExactly) {
  reset_global_obs();
  rt::GnbDeployment dep(fleet_config(2, /*threaded=*/false));
  ASSERT_TRUE(dep.status().ok());
  ASSERT_TRUE(dep.run_slots(20).ok());
  for (uint32_t i = 0; i < 2; ++i) (void)dep.fleet().collect_cell(i);
  dep.fleet().begin_window();
  ASSERT_TRUE(dep.run_slots(10).ok());
  for (uint32_t i = 0; i < 2; ++i) (void)dep.fleet().collect_cell(i);
  const obs::CellTelemetry w = dep.fleet().cell_window(0);
  EXPECT_EQ(w.slots, 10u);
  EXPECT_EQ(dep.fleet().fleet_rollup(/*window=*/true).slots, 2u * 10u);
}

struct FleetRunCapture {
  std::string merged_trace;
  std::string health_json;
  std::string flight;
  uint64_t breach_windows = 0;
};

FleetRunCapture run_fleet(uint32_t cells, bool threaded, uint32_t slots) {
  reset_global_obs();
  rt::GnbDeployment dep(fleet_config(cells, threaded));
  EXPECT_TRUE(dep.status().ok());
  EXPECT_TRUE(dep.run_slots(slots).ok());
  FleetRunCapture out;
  out.merged_trace = dep.export_merged_trace();
  out.health_json = dep.last_health().to_json();
  out.flight = dep.capture_flight_bundle("test");
  out.breach_windows = dep.slo_breach_windows();
  return out;
}

TEST(FleetPlane, RepeatedRunsExportByteIdenticalArtifacts) {
  // The acceptance bar: repeated virtual-time runs of a 4-cell deployment
  // produce byte-identical merged traces, identical HealthReports and
  // identical flight bundles — and inline execution matches threaded.
  const FleetRunCapture a = run_fleet(4, /*threaded=*/true, 60);
  const FleetRunCapture b = run_fleet(4, /*threaded=*/true, 60);
  const FleetRunCapture inline_run = run_fleet(4, /*threaded=*/false, 60);
  EXPECT_FALSE(a.merged_trace.empty());
  EXPECT_EQ(a.merged_trace, b.merged_trace);
  EXPECT_EQ(a.health_json, b.health_json);
  EXPECT_EQ(a.flight, b.flight);
  EXPECT_EQ(a.merged_trace, inline_run.merged_trace);
  EXPECT_EQ(a.health_json, inline_run.health_json);
}

TEST(FleetPlane, MergedTraceDeclaresPerCellDrops) {
  reset_global_obs();
  rt::DeploymentConfig cfg = fleet_config(2, /*threaded=*/false);
  cfg.trace_capacity = 64;  // small ring: wrap-around loss is certain
  rt::GnbDeployment dep(cfg);
  ASSERT_TRUE(dep.status().ok());
  ASSERT_TRUE(dep.run_slots(40).ok());
  const std::string trace = dep.export_merged_trace();
  ASSERT_NE(dep.trace_ring(0), nullptr);
  EXPECT_GT(dep.trace_ring(0)->dropped(), 0u);
  // Drop accounting appears verbatim in the metadata, never silently.
  EXPECT_NE(trace.find("\"rings\":["), std::string::npos);
  EXPECT_NE(trace.find("\"dropped\":" +
                       std::to_string(dep.trace_ring(0)->dropped())),
            std::string::npos);
}

TEST(FleetPlane, BreachedSloJournalsAndCapturesFlightBundle) {
  reset_global_obs();
  rt::GnbDeployment dep(fleet_config(2, /*threaded=*/true));
  ASSERT_TRUE(dep.status().ok());
  // Pad every cell-0 slot past the 1 ms budget: under the default
  // objectives exactly cell 0's slot_deadline_miss breaches, once per
  // window, deterministically.
  dep.mac(0).set_slot_time_padding([] { return uint64_t{2'000'000}; });

  uint64_t hook_fires = 0;
  dep.set_breach_hook([&hook_fires](const obs::HealthReport& h) {
    ++hook_fires;
    EXPECT_FALSE(h.healthy);
    EXPECT_EQ(h.breaches, 1u);
    for (const obs::SloVerdict& v : h.verdicts) {
      if (!v.breached) continue;
      EXPECT_EQ(v.slo, "slot_deadline_miss");
      EXPECT_EQ(v.cell, 0u);
    }
  });
  ASSERT_TRUE(dep.run_slots(60).ok());  // 3 windows of 20 slots

  EXPECT_EQ(dep.slo_breach_windows(), 3u);
  EXPECT_EQ(hook_fires, 3u);
  EXPECT_FALSE(dep.last_health().healthy);

  // Every breached verdict is journaled as kSloBreach under domain "slo".
  uint64_t journaled = 0;
  for (const obs::AnomalyRecord& r : dep.anomalies()) {
    if (r.kind == obs::AnomalyKind::kSloBreach) {
      ++journaled;
      EXPECT_EQ(r.domain, "slo");
    }
  }
  EXPECT_EQ(journaled, 3u);

  const std::string bundle = dep.capture_flight_bundle("slo_breach");
  EXPECT_NE(bundle.find("\"waran_flight_bundle\":1"), std::string::npos);
  EXPECT_NE(bundle.find("\"reason\":\"slo_breach\""), std::string::npos);
  EXPECT_NE(bundle.find("slo_breach"), std::string::npos);
  EXPECT_NE(bundle.find("\"replay\":"), std::string::npos);
}

TEST(FleetPlane, CellAnomaliesCountEveryKindIncludingAdmissionRejects) {
  // A refused hot swap journals one kAdmissionReject in mac0; the cell's
  // telemetry must count it like any other anomaly kind.
  reset_global_obs();
  rt::DeploymentConfig cfg = fleet_config(1, /*threaded=*/false);
  cfg.admission = analysis::AdmissionMode::kEnforce;
  rt::GnbDeployment dep(cfg);
  ASSERT_TRUE(dep.status().ok()) << dep.status().error().message;
  ASSERT_TRUE(dep.run_slots(10).ok());

  // A self-recursive schedule() can never complete: admission refuses it.
  wasmbuilder::ModuleBuilder mb;
  mb.add_memory(1, 1);
  mb.add_func(wasm::FuncType{{}, {wasm::ValType::kI32}}, "schedule").call(0).end();
  ASSERT_FALSE(dep.sched_plugins(0).swap("stream-co", mb.build()).ok());

  uint64_t journaled = 0;
  for (const char* domain : {"mac0", "gnb0"}) {
    for (size_t k = 0; k <= static_cast<size_t>(obs::AnomalyKind::kOther); ++k) {
      journaled += obs::MetricsRegistry::global()
                       .counter("waran_anomaly_total",
                                {{"domain", domain},
                                 {"kind", obs::to_string(static_cast<obs::AnomalyKind>(k))}})
                       .value();
    }
  }
  EXPECT_EQ(journaled, 1u);
  EXPECT_EQ(dep.fleet().collect_cell(0).anomalies, journaled);
}

TEST(FleetPlane, AnomaliesBelongToTheirDeployment) {
  // Two deployments of one config in one process, nothing reset between
  // them: the second reports none of the first one's anomalies. SLO
  // windows are off here; FirstSloWindowJudgesOnlyItsOwnDeployment covers
  // them.
  reset_global_obs();
  rt::DeploymentConfig cfg = fleet_config(1, /*threaded=*/false);
  cfg.slo_window_slots = 0;
  {
    rt::GnbDeployment first(cfg);
    ASSERT_TRUE(first.status().ok());
    // Every cell-0 slot overruns, and a trapping scheduler is quarantined.
    first.mac(0).set_slot_time_padding([] { return uint64_t{2'000'000}; });
    auto oob = sched::plugins::faulty("oob");
    ASSERT_TRUE(oob.ok());
    ASSERT_TRUE(first.sched_plugins(0).swap("stream-co", *oob).ok());
    ASSERT_TRUE(first.run_slots(40).ok());
    const obs::CellTelemetry& t = first.fleet().collect_cell(0);
    ASSERT_GT(t.anomalies, 40u);
    ASSERT_EQ(t.quarantines, 1u);
  }
  rt::GnbDeployment second(cfg);
  ASSERT_TRUE(second.status().ok());
  ASSERT_TRUE(second.run_slots(40).ok());
  const obs::CellTelemetry& t = second.fleet().collect_cell(0);
  EXPECT_EQ(t.anomalies, 0u);
  EXPECT_EQ(t.quarantines, 0u);
  EXPECT_TRUE(second.anomalies().empty());
  for (const obs::AnomalyJournal* j : second.journals()) EXPECT_EQ(j->total(), 0u);
}

TEST(FleetPlane, FirstSloWindowJudgesOnlyItsOwnDeployment) {
  // The registry stays process-wide, so the series a cell's counts come
  // from still hold an earlier deployment's slots, overruns and faults.
  // A deployment built after one whose cell 0 overran every slot and
  // quarantined its scheduler, with nothing reset between them, must
  // judge its first SLO window on its own slots alone.
  reset_global_obs();
  const rt::DeploymentConfig cfg = fleet_config(1, /*threaded=*/false);
  {
    rt::GnbDeployment first(cfg);
    ASSERT_TRUE(first.status().ok());
    first.mac(0).set_slot_time_padding([] { return uint64_t{2'000'000}; });
    auto oob = sched::plugins::faulty("oob");
    ASSERT_TRUE(oob.ok());
    ASSERT_TRUE(first.sched_plugins(0).swap("stream-co", *oob).ok());
    ASSERT_TRUE(first.run_slots(2 * cfg.slo_window_slots).ok());
    ASSERT_EQ(first.slo_breach_windows(), 2u);
  }
  rt::GnbDeployment second(cfg);
  ASSERT_TRUE(second.status().ok());
  ASSERT_TRUE(second.run_slots(cfg.slo_window_slots).ok());
  EXPECT_TRUE(second.last_health().healthy) << second.last_health().to_json();
  EXPECT_EQ(second.last_health().breaches, 0u);
  EXPECT_EQ(second.slo_breach_windows(), 0u);
}

TEST(FleetPlane, CellCountsEqualItsComponentsLedgers) {
  // Every count a cell ships equals the ledger of a component the cell
  // owns: its slices' stats, the calls of its scheduler, comm and ctl
  // slots (of no other slot), and its own journals.
  reset_global_obs();
  const rt::DeploymentConfig cfg = fleet_config(2, /*threaded=*/true);
  rt::GnbDeployment dep(cfg);
  ASSERT_TRUE(dep.status().ok());
  // A slot outside the slices, as the chaos grower is: its calls are not
  // the cell's.
  plugin::PluginManager& mgr0 = dep.sched_plugins(0);
  auto extra = sched::plugins::scheduler("rr");
  ASSERT_TRUE(extra.ok());
  ASSERT_TRUE(mgr0.install("extra", *extra).ok());
  std::vector<uint8_t> out;
  for (int i = 0; i < 5; ++i) (void)mgr0.call("extra", "schedule", {}, out);
  ASSERT_EQ(mgr0.cost("extra")->calls(), 5u);
  auto oob = sched::plugins::faulty("oob");
  ASSERT_TRUE(oob.ok());
  ASSERT_TRUE(mgr0.swap("stream-co", *oob).ok());
  ASSERT_TRUE(dep.run_slots(40).ok());

  for (uint32_t c = 0; c < dep.cells(); ++c) {
    const obs::CellTelemetry& t = dep.fleet().collect_cell(c);
    uint64_t calls = 0, traps = 0, fuel = 0;
    auto add_slot = [&](plugin::PluginManager& m, const std::string& slot) {
      calls += m.cost(slot)->calls();
      traps += m.health(slot)->traps;
      fuel += m.cost(slot)->total_fuel();
    };
    for (const rt::SliceSpec& s : cfg.slices) add_slot(dep.sched_plugins(c), s.name);
    add_slot(dep.agent(c).plugins(), "comm");
    add_slot(dep.agent(c).plugins(), "ctl");
    EXPECT_EQ(t.plugin_calls, calls) << "cell " << c;
    EXPECT_EQ(t.plugin_traps, traps) << "cell " << c;
    EXPECT_EQ(t.plugin_fuel_used, fuel) << "cell " << c;

    uint64_t scheduled = 0, faults = 0;
    dep.mac(c).for_each_slice([&](const ran::SliceConfig&, const ran::SliceStats& st) {
      scheduled += st.slots_scheduled;
      faults += st.scheduler_faults;
    });
    EXPECT_EQ(t.slots_scheduled, scheduled) << "cell " << c;
    EXPECT_EQ(t.sched_faults, faults) << "cell " << c;

    uint64_t journaled = 0, quarantines = 0;
    const obs::AnomalyJournal* journals[] = {&dep.mac(c).journal(),
                                             &dep.sched_plugins(c).journal(),
                                             &dep.agent(c).plugins().journal()};
    for (const obs::AnomalyJournal* j : journals) {
      journaled += j->total();
      quarantines += j->count(obs::AnomalyKind::kQuarantine);
    }
    EXPECT_EQ(t.anomalies, journaled) << "cell " << c;
    EXPECT_EQ(t.quarantines, quarantines) << "cell " << c;
  }
  // Cell 0 faulted, so its comparisons are not between zeros.
  EXPECT_GT(dep.fleet().cell_total(0).plugin_traps, 0u);
  EXPECT_EQ(dep.fleet().cell_total(0).quarantines, 1u);
}

TEST(FlightRecorder, ScenarioReplayLineNamesSlotsAndClock) {
  // The replay line must reproduce the run it came from: its slot count
  // and, on virtual time, its clock.
  reset_global_obs();
  rt::GnbDeployment dep(fleet_config(2, /*threaded=*/true));
  ASSERT_TRUE(dep.status().ok());
  ASSERT_TRUE(dep.run_slots(300).ok());
  const std::string bundle = dep.capture_flight_bundle("export");
  EXPECT_NE(bundle.find("\"replay\":\"waran_obs --cells 2 --seed 11 --slots 300 "
                        "--virtual-time\""),
            std::string::npos)
      << bundle.substr(0, 400);

  obs::FlightContext real_time;
  real_time.seed = 3;
  real_time.virtual_time = false;
  EXPECT_EQ(obs::FlightRecorder(real_time).replay_command(40),
            "waran_obs --cells 1 --seed 3 --slots 40");
}

TEST(FlightRecorder, AnomalyTailIsIndependentOfArrivalOrder) {
  // Cells journal concurrently, so the same records can arrive in any
  // interleaving; the bundle's anomaly tail must not depend on it.
  rt::VirtualClockGuard clock(5000);
  const obs::FleetAggregator agg(0, nullptr);
  const obs::FlightRecorder recorder(obs::FlightContext{});
  auto capture = [&](bool mac0_first) {
    reset_global_obs();
    obs::set_current_slot(7);
    obs::AnomalyJournal mac0, mac1;
    auto record = [](obs::AnomalyJournal& j, const char* domain, const char* detail) {
      j.record(obs::AnomalyKind::kTrap, domain, "s", detail);
    };
    if (mac0_first) {
      record(mac0, "mac0", "a");
      record(mac1, "mac1", "c");
      record(mac0, "mac0", "b");
      record(mac1, "mac1", "d");
    } else {
      record(mac1, "mac1", "c");
      record(mac1, "mac1", "d");
      record(mac0, "mac0", "a");
      record(mac0, "mac0", "b");
    }
    const obs::AnomalyJournal* journals[] = {&mac1, &mac0};
    return recorder.capture("test", obs::HealthReport{}, agg,
                            obs::merge_journals(journals), {}, /*end_slot=*/8);
  };
  const std::string a = capture(/*mac0_first=*/true);
  const std::string b = capture(/*mac0_first=*/false);
  EXPECT_EQ(a, b);
  // Canonical order: (slot, domain), each domain in its own order, and
  // seq is the index in that order.
  EXPECT_LT(a.find("\"seq\":1,"), a.find("\"detail\":\"b\""));
  EXPECT_LT(a.find("\"detail\":\"b\""), a.find("\"seq\":2,"));
  EXPECT_LT(a.find("\"seq\":2,"), a.find("\"detail\":\"c\""));
}

TEST(FlightRecorder, ThreadedBundleEqualsInlineWhenEveryCellJournals) {
  // Every cell's scheduler traps in the same slots, so the four cells
  // journal concurrently; the threaded run's bundle must still equal the
  // inline run's byte for byte.
  auto bundle = [](bool threaded) {
    reset_global_obs();
    rt::GnbDeployment dep(fleet_config(4, threaded));
    EXPECT_TRUE(dep.status().ok());
    EXPECT_TRUE(dep.run_slots(20).ok());
    auto oob = sched::plugins::faulty("oob");
    EXPECT_TRUE(oob.ok());
    for (uint32_t c = 0; c < dep.cells(); ++c) {
      EXPECT_TRUE(dep.sched_plugins(c).swap("stream-co", *oob).ok());
    }
    EXPECT_TRUE(dep.run_slots(20).ok());
    return dep.capture_flight_bundle("test");
  };
  const std::string threaded = bundle(/*threaded=*/true);
  const std::string inline_run = bundle(/*threaded=*/false);
  // Each cell journaled its traps and quarantine; the last cell's are in
  // the tail.
  EXPECT_NE(threaded.find("\"domain\":\"mac3\",\"source\":\"stream-co\""),
            std::string::npos);
  EXPECT_EQ(threaded, inline_run);
}

TEST(SloEngine, HealthReportEscapesSloNames) {
  obs::HealthReport report;
  obs::SloVerdict v;
  v.slo = "p99 \"tight\"";
  v.metric = obs::SloMetric::kSlotWallP99Ns;
  report.verdicts.push_back(v);
  auto parsed = codec::Json::parse(report.to_json());
  ASSERT_TRUE(parsed.ok()) << parsed.error().message;
  EXPECT_EQ((*parsed)["verdicts"].as_array()[0]["slo"].as_string(), "p99 \"tight\"");
}

TEST(SloEngine, DefaultObjectivesPassOnAHealthyRun) {
  reset_global_obs();
  rt::GnbDeployment dep(fleet_config(2, /*threaded=*/true));
  ASSERT_TRUE(dep.status().ok());
  ASSERT_TRUE(dep.run_slots(40).ok());
  const obs::HealthReport& h = dep.last_health();
  EXPECT_TRUE(h.healthy);
  EXPECT_EQ(h.breaches, 0u);
  // 4 cell-scoped objectives x 2 cells + 1 fleet-scoped floor.
  EXPECT_EQ(h.verdicts.size(), 4u * 2u + 1u);
  EXPECT_EQ(dep.slo_breach_windows(), 0u);
}

}  // namespace
}  // namespace waran
