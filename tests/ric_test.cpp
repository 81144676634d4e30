// Near-RT RIC tests: E2-lite codecs, the framing communication plugin and
// its sanitization of corrupt frames, xApp decision logic (SLA + traffic
// steering), inter-xApp messaging, the vendor interop shim, and the full
// closed loop gNB -> RIC -> gNB. The binary counts its heap allocations
// (tests/heap_probe_guard.h) to pin warm inter-xApp messaging at zero.
#include <gtest/gtest.h>

#include <set>

#include "common/tracked_alloc.h"
#include "obs/metrics.h"
#include "plugin/plugin.h"
#include "ric/e2lite.h"
#include "ric/gnb_agent.h"
#include "ric/near_rt_ric.h"
#include "ric/plugin_sources.h"
#include "ric/quota_inter.h"
#include "ric/transport.h"
#include "sched/native.h"
#include "tests/heap_probe_guard.h"
#include "wcc/compiler.h"

namespace waran::ric {
namespace {

/// One plugin call into a fresh output buffer.
Result<std::vector<uint8_t>> call(plugin::Plugin& p, std::string_view fn,
                                  std::span<const uint8_t> input) {
  std::vector<uint8_t> out;
  WARAN_CHECK_OK(p.call(fn, input, out));
  return out;
}

std::vector<uint8_t> encoded(const IndicationReport& report) {
  std::vector<uint8_t> out;
  encode_indication(report, out);
  return out;
}

std::vector<uint8_t> encoded(const std::vector<ControlAction>& actions) {
  std::vector<uint8_t> out;
  encode_control(actions, out);
  return out;
}

IndicationReport sample_report() {
  IndicationReport r;
  r.slices.push_back({1, 10, 12e6, 8e6});
  r.slices.push_back({2, 20, 15e6, 15.1e6});
  r.ues.push_back({0x4601, 0, -80, -95, 12, 1});
  r.ues.push_back({0x4602, 0, -100, -70, 7, 1});
  return r;
}

TEST(E2Lite, IndicationRoundTrip) {
  IndicationReport r = sample_report();
  IndicationReport back;
  Status st = decode_indication(encoded(r), back);
  ASSERT_TRUE(st.ok()) << st.error().message;
  EXPECT_EQ(back, r);
}

TEST(E2Lite, ControlRoundTrip) {
  std::vector<ControlAction> actions = {
      {ActionType::kSetSliceQuota, 1, 20},
      {ActionType::kHandover, 0x4601, 1},
      {ActionType::kSetCqiTable, 2, 0},
  };
  std::vector<ControlAction> back;
  ASSERT_TRUE(decode_control(encoded(actions), back).ok());
  EXPECT_EQ(back, actions);
}

TEST(E2Lite, DecodeReplacesWhatTheTargetHeld) {
  // The agent and the RIC decode into one report and one action list for
  // their whole life: a decode must not carry over the previous message.
  IndicationReport with_tail = sample_report();
  with_tail.telemetry = obs::CellTelemetry{};
  IndicationReport back;
  ASSERT_TRUE(decode_indication(encoded(with_tail), back).ok());
  IndicationReport small;
  small.slices.push_back({3, 4, 5e6, 6e6});
  ASSERT_TRUE(decode_indication(encoded(small), back).ok());
  EXPECT_EQ(back, small);

  std::vector<ControlAction> actions = {{ActionType::kHandover, 0x4601, 1}};
  ASSERT_TRUE(decode_control(encoded(actions), actions).ok());
  ASSERT_TRUE(decode_control(encoded(std::vector<ControlAction>{}), actions).ok());
  EXPECT_TRUE(actions.empty());
}

TEST(E2Lite, RejectsTruncationAndBadCounts) {
  IndicationReport report;
  auto bytes = encoded(sample_report());
  bytes.pop_back();
  EXPECT_FALSE(decode_indication(bytes, report).ok());

  std::vector<uint8_t> huge = {1, 0, 0, 0, 0xff, 0xff, 0xff, 0x7f};
  EXPECT_FALSE(decode_indication(huge, report).ok());

  std::vector<ControlAction> bad = {{static_cast<ActionType>(9), 0, 0}};
  std::vector<ControlAction> actions;
  EXPECT_FALSE(decode_control(encoded(bad), actions).ok());
}

TEST(E2Lite, EncodesIntoOneExactSizeBuffer) {
  IndicationReport r = sample_report();
  r.telemetry = obs::CellTelemetry{};
  std::vector<uint8_t> indication;
  encode_indication(r, indication);
  // Header, 24 B per slice, 24 B per UE, then the tagged telemetry block:
  // its 702-byte body carries both histograms' buckets at 4 bytes.
  EXPECT_EQ(indication.size(), 8u + 2 * 24 + 4 + 2 * 24 + 8 + 702);
  // Sized once up front; a buffer grown field by field keeps spare capacity.
  EXPECT_EQ(indication.capacity(), indication.size());
  // A second encode into the same buffer writes over its storage.
  const uint8_t* storage = indication.data();
  encode_indication(r, indication);
  EXPECT_EQ(indication.data(), storage);
  EXPECT_EQ(indication, encoded(r));

  std::vector<ControlAction> actions = {{ActionType::kSetSliceQuota, 1, 20},
                                        {ActionType::kHandover, 0x4601, 1},
                                        {ActionType::kSetCqiTable, 2, 0}};
  auto control = encoded(actions);
  EXPECT_EQ(control.size(), 8u + 3 * 12);
  EXPECT_EQ(control.capacity(), control.size());
}

// --- Communication plugin. ---

class CommPluginTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto bytes = plugin_sources::comm_framing();
    ASSERT_TRUE(bytes.ok()) << bytes.error().message;
    auto p = plugin::Plugin::load(*bytes);
    ASSERT_TRUE(p.ok()) << p.error().message;
    plugin_ = std::move(*p);
  }
  std::unique_ptr<plugin::Plugin> plugin_;
};

TEST_F(CommPluginTest, FrameUnframeRoundTrip) {
  std::vector<uint8_t> payload = {1, 2, 3, 200, 255};
  auto framed = call(*plugin_, "frame", payload);
  ASSERT_TRUE(framed.ok());
  EXPECT_EQ(framed->size(), payload.size() + 12);
  // On-wire magic is little-endian 0xE2A0B1C2.
  uint32_t magic;
  memcpy(&magic, framed->data(), 4);
  EXPECT_EQ(magic, plugin_sources::kFrameMagic);

  auto unframed = call(*plugin_, "unframe", *framed);
  ASSERT_TRUE(unframed.ok()) << unframed.error().message;
  EXPECT_EQ(*unframed, payload);
}

TEST_F(CommPluginTest, EmptyPayloadFrames) {
  auto framed = call(*plugin_, "frame", {});
  ASSERT_TRUE(framed.ok());
  auto unframed = call(*plugin_, "unframe", *framed);
  ASSERT_TRUE(unframed.ok());
  EXPECT_TRUE(unframed->empty());
}

TEST_F(CommPluginTest, CorruptedChecksumRejectedInSandbox) {
  std::vector<uint8_t> payload = {9, 9, 9, 9};
  auto framed = call(*plugin_, "frame", payload);
  ASSERT_TRUE(framed.ok());
  (*framed)[9] ^= 0x40;  // flip a payload bit, checksum now stale
  auto unframed = call(*plugin_, "unframe", *framed);
  EXPECT_FALSE(unframed.ok());
}

TEST_F(CommPluginTest, BadMagicRejected) {
  std::vector<uint8_t> payload = {1};
  auto framed = call(*plugin_, "frame", payload);
  ASSERT_TRUE(framed.ok());
  (*framed)[0] ^= 0xff;
  EXPECT_FALSE(call(*plugin_, "unframe", *framed).ok());
}

TEST_F(CommPluginTest, ShortFrameRejected) {
  std::vector<uint8_t> tiny = {1, 2, 3};
  EXPECT_FALSE(call(*plugin_, "unframe", tiny).ok());
}

TEST_F(CommPluginTest, LengthMismatchRejected) {
  std::vector<uint8_t> payload = {5, 5};
  auto framed = call(*plugin_, "frame", payload);
  ASSERT_TRUE(framed.ok());
  framed->push_back(0);  // trailing junk: total no longer matches header len
  EXPECT_FALSE(call(*plugin_, "unframe", *framed).ok());
}

// The framing kernel checksums eight bytes per step in four 16-bit lanes
// and finishes the len % 8 tail bytewise. These tests hold it to the wire
// definition: the sum of payload bytes mod 2^32.

std::vector<uint8_t> pattern_payload(size_t len, uint32_t seed) {
  std::vector<uint8_t> out(len);
  uint32_t x = seed * 2654435761u + 1;
  for (uint8_t& b : out) {
    x = x * 1664525u + 1013904223u;
    b = static_cast<uint8_t>(x >> 24);
  }
  return out;
}

uint32_t byte_sum(const std::vector<uint8_t>& payload) {
  uint32_t sum = 0;
  for (uint8_t b : payload) sum += b;
  return sum;
}

uint32_t u32_at(const std::vector<uint8_t>& bytes, size_t at) {
  uint32_t v;
  memcpy(&v, bytes.data() + at, 4);
  return v;
}

TEST_F(CommPluginTest, ChecksumEqualsHostByteSumAtEveryLength) {
  std::vector<size_t> lengths;
  for (size_t n = 0; n <= 300; ++n) lengths.push_back(n);
  for (size_t n = 337; n <= 3000; n += 37) lengths.push_back(n);  // every residue mod 8
  lengths.push_back(1024);  // exactly one 128-word block
  lengths.push_back(1032);  // one block plus a word
  for (size_t n : lengths) {
    SCOPED_TRACE("payload length " + std::to_string(n));
    std::vector<uint8_t> payload = pattern_payload(n, static_cast<uint32_t>(n));
    auto framed = call(*plugin_, "frame", payload);
    ASSERT_TRUE(framed.ok()) << framed.error().message;
    ASSERT_EQ(framed->size(), n + 12);
    EXPECT_EQ(u32_at(*framed, 4), n);
    EXPECT_EQ(u32_at(*framed, 8 + n), byte_sum(payload));
    auto unframed = call(*plugin_, "unframe", *framed);
    ASSERT_TRUE(unframed.ok()) << unframed.error().message;
    EXPECT_EQ(*unframed, payload);
  }
}

TEST_F(CommPluginTest, AllOnesPayloadFillsEveryLaneBeforeItFolds) {
  // 0xFF everywhere drives each 16-bit lane to 128 * 2 * 255 = 65,280
  // before every fold: the largest value the lane bound allows.
  std::vector<uint8_t> payload(65536, 0xff);
  auto framed = call(*plugin_, "frame", payload);
  ASSERT_TRUE(framed.ok()) << framed.error().message;
  EXPECT_EQ(u32_at(*framed, 8 + payload.size()), 65536u * 255u);
  auto unframed = call(*plugin_, "unframe", *framed);
  ASSERT_TRUE(unframed.ok()) << unframed.error().message;
  EXPECT_EQ(*unframed, payload);
}

TEST_F(CommPluginTest, OneBitFlipRejectedInWordsAndTail) {
  const size_t n = 1461;  // 182 full words and a 5-byte tail
  std::vector<uint8_t> payload = pattern_payload(n, 3);
  auto framed = call(*plugin_, "frame", payload);
  ASSERT_TRUE(framed.ok());
  for (size_t at : {size_t{0}, size_t{3}, (n & ~size_t{7}) - 1, (n & ~size_t{7}) - 8,
                    n - 5, n - 1}) {
    SCOPED_TRACE("payload byte " + std::to_string(at));
    std::vector<uint8_t> bad = *framed;
    bad[8 + at] ^= 0x10;
    EXPECT_FALSE(call(*plugin_, "unframe", bad).ok());
  }
  EXPECT_TRUE(call(*plugin_, "unframe", *framed).ok());
}

TEST_F(CommPluginTest, LargePayloadFramesWithinDefaultFuel) {
  ASSERT_EQ(plugin_->limits().fuel_per_call, 2'000'000u);
  std::vector<uint8_t> payload = pattern_payload(200000, 9);
  auto framed = call(*plugin_, "frame", payload);
  ASSERT_TRUE(framed.ok()) << framed.error().message;
  EXPECT_EQ(u32_at(*framed, 8 + payload.size()), byte_sum(payload));
  auto unframed = call(*plugin_, "unframe", *framed);
  ASSERT_TRUE(unframed.ok()) << unframed.error().message;
  EXPECT_EQ(*unframed, payload);
}

TEST_F(CommPluginTest, FrameFuelIsPinned) {
  // Regression gate for the framing kernel: the exact fuel of framing a
  // 1,456-byte payload. The byte-at-a-time loop it replaced cost 26,250.
  std::vector<uint8_t> payload = pattern_payload(1456, 5);
  ASSERT_TRUE(call(*plugin_, "frame", payload).ok());
  EXPECT_EQ(plugin_->last_call_stats().fuel_used, 4887u);
}

// --- Vendor interop shim. ---

TEST(VendorShim, Widens8BitCqiTo12Bit) {
  auto bytes = plugin_sources::vendor_widen();
  ASSERT_TRUE(bytes.ok()) << bytes.error().message;
  auto p = plugin::Plugin::load(*bytes);
  ASSERT_TRUE(p.ok());

  // Vendor A: u32 n, then 3-byte records {u16 rnti, u8 cqi}.
  std::vector<uint8_t> input = {2, 0, 0, 0,
                                0x01, 0x46, 200,
                                0x02, 0x46, 15};
  auto out = call(**p, "widen", input);
  ASSERT_TRUE(out.ok()) << out.error().message;
  ASSERT_EQ(out->size(), 4u + 2 * 8);
  uint32_t n, rnti0, cqi0, rnti1, cqi1;
  memcpy(&n, out->data(), 4);
  memcpy(&rnti0, out->data() + 4, 4);
  memcpy(&cqi0, out->data() + 8, 4);
  memcpy(&rnti1, out->data() + 12, 4);
  memcpy(&cqi1, out->data() + 16, 4);
  EXPECT_EQ(n, 2u);
  EXPECT_EQ(rnti0, 0x4601u);
  EXPECT_EQ(cqi0, 200u * 16);  // 8-bit value on the 12-bit scale
  EXPECT_EQ(rnti1, 0x4602u);
  EXPECT_EQ(cqi1, 15u * 16);
}

TEST(VendorShim, RejectsTruncatedVendorPayload) {
  auto bytes = plugin_sources::vendor_widen();
  ASSERT_TRUE(bytes.ok());
  auto p = plugin::Plugin::load(*bytes);
  ASSERT_TRUE(p.ok());
  std::vector<uint8_t> input = {5, 0, 0, 0, 1, 2};  // claims 5 records
  EXPECT_FALSE(call(**p, "widen", input).ok());
}

// --- xApps in isolation. ---

std::vector<ControlAction> run_xapp(std::span<const uint8_t> module_bytes,
                                    const IndicationReport& report) {
  auto p = plugin::Plugin::load(module_bytes);
  EXPECT_TRUE(p.ok());
  auto out = call(**p, "on_indication", encoded(report));
  EXPECT_TRUE(out.ok()) << (out.ok() ? "" : out.error().message);
  if (!out.ok()) return {};
  std::vector<ControlAction> actions;
  EXPECT_TRUE(decode_control(*out, actions).ok());
  return actions;
}

TEST(SlaXapp, RaisesQuotaWhenUnderTarget) {
  auto bytes = plugin_sources::sla_xapp();
  ASSERT_TRUE(bytes.ok()) << bytes.error().message;
  IndicationReport r;
  r.slices.push_back({7, 10, 12e6, 6e6});  // far below target
  auto actions = run_xapp(*bytes, r);
  ASSERT_EQ(actions.size(), 1u);
  EXPECT_EQ(actions[0].type, ActionType::kSetSliceQuota);
  EXPECT_EQ(actions[0].a, 7u);
  EXPECT_EQ(actions[0].b, 11u);  // +1
}

TEST(SlaXapp, TrimsQuotaWhenOverTarget) {
  auto bytes = plugin_sources::sla_xapp();
  ASSERT_TRUE(bytes.ok());
  IndicationReport r;
  r.slices.push_back({7, 10, 12e6, 14e6});
  auto actions = run_xapp(*bytes, r);
  ASSERT_EQ(actions.size(), 1u);
  EXPECT_EQ(actions[0].b, 9u);  // -1
}

TEST(SlaXapp, SilentWhenOnTargetAndCapsAtCarrier) {
  auto bytes = plugin_sources::sla_xapp();
  ASSERT_TRUE(bytes.ok());
  IndicationReport r;
  r.slices.push_back({1, 10, 12e6, 12e6});   // on target: no action
  r.slices.push_back({2, 52, 40e6, 10e6});   // already at the cap: no-op
  auto actions = run_xapp(*bytes, r);
  EXPECT_TRUE(actions.empty());
}

TEST(SteerXapp, HandsOverOnHysteresisExceeded) {
  auto bytes = plugin_sources::steer_xapp();
  ASSERT_TRUE(bytes.ok()) << bytes.error().message;
  IndicationReport r;
  r.slices.push_back({1, 10, 0, 0});
  r.ues.push_back({0x4601, 0, -80, -75, 10, 1});   // neighbor +5 dB: handover
  r.ues.push_back({0x4602, 0, -80, -78, 10, 1});   // +2 dB: inside hysteresis
  r.ues.push_back({0x4603, 0, -80, -90, 10, 1});   // weaker: stay
  auto actions = run_xapp(*bytes, r);
  ASSERT_EQ(actions.size(), 1u);
  EXPECT_EQ(actions[0].type, ActionType::kHandover);
  EXPECT_EQ(actions[0].a, 0x4601u);
  EXPECT_EQ(actions[0].b, 1u);
}

// --- Transport. ---

TEST(Duplex, OneFrameInFlightCyclesTheSameBuffers) {
  // Each direction recycles its frame buffers: a frame is staged, swapped
  // into a ring slot and swapped out again into the receiver's previous
  // buffer. With one frame in flight the receiver only ever sees the three
  // buffers of that cycle, so a warm link allocates nothing.
  Duplex link;
  const std::vector<uint8_t> frame(1468, 0x5a);
  std::vector<uint8_t> rx;
  std::set<const uint8_t*> seen;
  for (int i = 0; i < 200; ++i) {
    link.send(Duplex::Side::kA, frame);
    ASSERT_TRUE(link.receive(Duplex::Side::kB, rx));
    ASSERT_EQ(rx, frame);
    seen.insert(rx.data());
  }
  EXPECT_LE(seen.size(), 3u);
  EXPECT_FALSE(link.receive(Duplex::Side::kB, rx));
  EXPECT_EQ(rx, frame);  // an empty receive leaves the caller's buffer alone
  EXPECT_EQ(link.frames_delivered(), 200u);
}

TEST(Duplex, FullQueueOverflowsInOrderAndDrainsFifo) {
  Duplex link;
  for (uint32_t i = 0; i < Duplex::kQueueCapacity + 5; ++i) {
    const std::vector<uint8_t> frame = {static_cast<uint8_t>(i)};
    link.send(Duplex::Side::kB, frame);
  }
  EXPECT_EQ(link.pending(Duplex::Side::kA), Duplex::kQueueCapacity);
  EXPECT_EQ(link.pending(Duplex::Side::kB), 0u);
  EXPECT_EQ(link.frames_overflowed(), 5u);
  // The oldest frames were kept; the newest ones overflowed.
  std::vector<uint8_t> rx;
  for (uint32_t i = 0; i < Duplex::kQueueCapacity; ++i) {
    ASSERT_TRUE(link.receive(Duplex::Side::kA, rx));
    EXPECT_EQ(rx, std::vector<uint8_t>{static_cast<uint8_t>(i)});
  }
  EXPECT_FALSE(link.receive(Duplex::Side::kA, rx));
}

// --- Full closed loop. ---

class ClosedLoop : public ::testing::Test {
 protected:
  void SetUp() override {
    mac_ = std::make_unique<ran::GnbMac>(ran::MacConfig{});
    auto quotas = std::make_unique<QuotaTableInterScheduler>();
    quotas_ = quotas.get();
    mac_->set_inter_scheduler(std::move(quotas));

    ran::SliceConfig cfg;
    cfg.slice_id = 1;
    cfg.target_rate_bps = 12e6;
    mac_->add_slice(cfg, std::make_unique<sched::RrScheduler>());
    rnti_ = mac_->add_ue(1, ran::Channel::pinned_mcs(28),
                         ran::TrafficSource::full_buffer());

    agent_ = std::make_unique<GnbAgent>(0, *mac_, quotas_, link_, Duplex::Side::kA);
    ric_ = std::make_unique<NearRtRic>(link_, Duplex::Side::kB);

    auto comm = plugin_sources::comm_framing();
    ASSERT_TRUE(comm.ok());
    ASSERT_TRUE(agent_->load_comm_plugin(*comm).ok());
    ASSERT_TRUE(ric_->load_comm_plugin(*comm).ok());
    auto ctl = plugin_sources::control_dispatch();
    ASSERT_TRUE(ctl.ok());
    ASSERT_TRUE(agent_->load_control_plugin(*ctl).ok());
  }

  Duplex link_;
  std::unique_ptr<ran::GnbMac> mac_;
  QuotaTableInterScheduler* quotas_ = nullptr;
  uint32_t rnti_ = 0;
  std::unique_ptr<GnbAgent> agent_;
  std::unique_ptr<NearRtRic> ric_;
};

TEST_F(ClosedLoop, SlaXappConvergesSliceTowardTarget) {
  auto sla = plugin_sources::sla_xapp();
  ASSERT_TRUE(sla.ok());
  ASSERT_TRUE(ric_->add_xapp("sla", *sla).ok());

  // Start the slice with a starvation quota.
  quotas_->set_quota(1, 2);
  for (int round = 0; round < 100; ++round) {
    ASSERT_TRUE(mac_->run_slots(100).ok());      // 100 ms
    ASSERT_TRUE(agent_->send_indication().ok());
    ASSERT_TRUE(ric_->poll().ok());
    ASSERT_TRUE(agent_->poll().ok());
  }
  double rate = mac_->slice_rate_bps(1);
  EXPECT_GT(rate, 10e6);
  EXPECT_LT(rate, 15e6);
  EXPECT_GT(agent_->stats().quota_updates, 0u);
  EXPECT_EQ(agent_->stats().frames_rejected, 0u);
  EXPECT_EQ(ric_->stats().frames_rejected, 0u);
}

TEST_F(ClosedLoop, SteeringTriggersHandoverCallback)  {
  auto steer = plugin_sources::steer_xapp();
  ASSERT_TRUE(steer.ok());
  ASSERT_TRUE(ric_->add_xapp("steer", *steer).ok());

  uint32_t handed_over_rnti = 0, target = 99;
  agent_->set_handover_handler([&](uint32_t rnti, uint32_t cell) {
    handed_over_rnti = rnti;
    target = cell;
  });
  agent_->set_ue_radio(rnti_, {-85, -70, 1});

  ASSERT_TRUE(mac_->run_slots(10).ok());
  ASSERT_TRUE(agent_->send_indication().ok());
  ASSERT_TRUE(ric_->poll().ok());
  ASSERT_TRUE(agent_->poll().ok());

  EXPECT_EQ(handed_over_rnti, rnti_);
  EXPECT_EQ(target, 1u);
  EXPECT_EQ(agent_->stats().handovers, 1u);
}

TEST_F(ClosedLoop, CorruptedFramesAreSanitizedNotParsed) {
  auto sla = plugin_sources::sla_xapp();
  ASSERT_TRUE(sla.ok());
  ASSERT_TRUE(ric_->add_xapp("sla", *sla).ok());

  // Corrupt every frame on the wire.
  link_.add_fault_stage([](std::vector<uint8_t>& frame, Duplex::Side) {
    if (frame.size() > 10) frame[10] ^= 0xff;
    return Duplex::Fault{Duplex::FaultAction::kCorrupt};
  });
  ASSERT_TRUE(mac_->run_slots(10).ok());
  ASSERT_TRUE(agent_->send_indication().ok());
  ASSERT_TRUE(ric_->poll().ok());
  EXPECT_EQ(ric_->stats().indications_processed, 0u);
  EXPECT_EQ(ric_->stats().frames_rejected, 1u);
  // Corrupted-but-delivered frames are visible in the link accounting, not
  // just as the receiver's rejection.
  EXPECT_EQ(link_.frames_corrupted(), 1u);
  EXPECT_EQ(link_.frames_delivered(), 1u);
  EXPECT_EQ(link_.frames_reordered(), 0u);
}

TEST_F(ClosedLoop, ReorderedFramesAreCountedAndStillProcessed) {
  auto sla = plugin_sources::sla_xapp();
  ASSERT_TRUE(sla.ok());
  ASSERT_TRUE(ric_->add_xapp("sla", *sla).ok());

  // Hold the first indication back until two later sends pass it.
  bool first = true;
  link_.add_fault_stage([&first](std::vector<uint8_t>&, Duplex::Side) {
    if (first) {
      first = false;
      return Duplex::Fault{Duplex::FaultAction::kReorder, 2};
    }
    return Duplex::Fault{};
  });
  quotas_->set_quota(1, 2);
  ASSERT_TRUE(mac_->run_slots(30).ok());
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(agent_->send_indication().ok());
  }
  ASSERT_TRUE(ric_->poll().ok());
  EXPECT_EQ(link_.frames_reordered(), 1u);
  EXPECT_EQ(link_.delayed_in_flight(), 0u);  // released after 2 later sends
  // All three indications (in permuted order) are intact and parse.
  EXPECT_EQ(ric_->stats().indications_processed, 3u);
  EXPECT_EQ(ric_->stats().frames_rejected, 0u);
  EXPECT_EQ(link_.frames_delivered(), link_.frames_sent());
}

TEST_F(ClosedLoop, DuplicatedAndDroppedFramesBalanceLinkAccounting) {
  auto sla = plugin_sources::sla_xapp();
  ASSERT_TRUE(sla.ok());
  ASSERT_TRUE(ric_->add_xapp("sla", *sla).ok());

  // Duplicate the first frame, drop the second, deliver the rest.
  uint32_t n = 0;
  link_.add_fault_stage([&n](std::vector<uint8_t>&, Duplex::Side) {
    ++n;
    if (n == 1) return Duplex::Fault{Duplex::FaultAction::kDuplicate};
    if (n == 2) return Duplex::Fault{Duplex::FaultAction::kDrop};
    return Duplex::Fault{};
  });
  ASSERT_TRUE(mac_->run_slots(10).ok());
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(agent_->send_indication().ok());
  }
  ASSERT_TRUE(ric_->poll().ok());
  EXPECT_EQ(link_.frames_sent(), 4u);
  EXPECT_EQ(link_.frames_duplicated(), 1u);
  EXPECT_EQ(link_.frames_dropped(), 1u);
  // Conservation: sent + duplicated == delivered + dropped (+ held).
  EXPECT_EQ(link_.frames_sent() + link_.frames_duplicated(),
            link_.frames_delivered() + link_.frames_dropped());
  // The duplicate is a well-formed frame: it parses as a second indication.
  EXPECT_EQ(ric_->stats().indications_processed, 4u);
}

TEST_F(ClosedLoop, StalledRicOverflowsTheBoundedLinkInsteadOfGrowingIt) {
  // A RIC that stops polling must not grow gNB memory: the link holds
  // kQueueCapacity frames toward it and counts the rest as overflowed,
  // apart from the fault stages' drops.
  auto sla = plugin_sources::sla_xapp();
  ASSERT_TRUE(sla.ok());
  ASSERT_TRUE(ric_->add_xapp("sla", *sla).ok());
  obs::Counter& overflow =
      obs::MetricsRegistry::global().counter("waran_transport_overflow_total");
  const uint64_t overflow0 = overflow.value();
  constexpr size_t kCapacity = Duplex::kQueueCapacity;
  ASSERT_TRUE(mac_->run_slots(10).ok());
  for (size_t i = 0; i < 10 * kCapacity; ++i) {
    ASSERT_TRUE(agent_->send_indication().ok());
  }
  EXPECT_EQ(link_.pending(Duplex::Side::kB), kCapacity);
  EXPECT_EQ(link_.frames_overflowed(), link_.frames_sent() - kCapacity);
  EXPECT_EQ(overflow.value() - overflow0, link_.frames_overflowed());
  EXPECT_EQ(link_.frames_dropped(), 0u);
  EXPECT_EQ(link_.frames_delivered(), kCapacity);
  EXPECT_EQ(link_.frames_sent() + link_.frames_duplicated(),
            link_.frames_delivered() + link_.frames_dropped() + link_.frames_overflowed());
  // The RIC catches up on what the link kept, and the loop runs on.
  ASSERT_TRUE(ric_->poll().ok());
  EXPECT_EQ(ric_->stats().indications_processed, kCapacity);
  EXPECT_EQ(link_.pending(Duplex::Side::kB), 0u);
  ASSERT_TRUE(agent_->send_indication().ok());
  ASSERT_TRUE(ric_->poll().ok());
  EXPECT_EQ(ric_->stats().indications_processed, kCapacity + 1);
}

TEST_F(ClosedLoop, FaultyXappIsContainedOthersKeepWorking) {
  // First xApp traps on every indication; the SLA xApp still runs.
  auto bad = wcc::compile("export fn on_indication() -> i32 { trap(); return 0; }");
  ASSERT_TRUE(bad.ok());
  ASSERT_TRUE(ric_->add_xapp("bad", *bad).ok());
  auto sla = plugin_sources::sla_xapp();
  ASSERT_TRUE(sla.ok());
  ASSERT_TRUE(ric_->add_xapp("sla", *sla).ok());

  quotas_->set_quota(1, 2);
  ASSERT_TRUE(mac_->run_slots(200).ok());
  ASSERT_TRUE(agent_->send_indication().ok());
  ASSERT_TRUE(ric_->poll().ok());
  ASSERT_TRUE(agent_->poll().ok());

  EXPECT_GT(ric_->stats().xapp_faults, 0u);
  EXPECT_GT(agent_->stats().quota_updates, 0u);  // SLA actions still landed
}

TEST_F(ClosedLoop, RefusedCallsAddNoFuel) {
  // The agent's and RIC's fuel totals are read back from the managers' cost
  // ledgers, so a call the manager refuses before the sandbox — quarantine
  // or an injected failure — adds nothing. (Re-reading a slot's last
  // CallStats after a refusal would count the previous call's fuel again.)
  auto bad = wcc::compile("export fn on_indication() -> i32 { trap(); return 0; }");
  ASSERT_TRUE(bad.ok());
  ASSERT_TRUE(ric_->add_xapp("bad", *bad).ok());
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(agent_->send_indication().ok());
    ASSERT_TRUE(ric_->poll().ok());
    ASSERT_TRUE(agent_->poll().ok());
  }
  // Quarantined after 3 trapping calls; the other 7 were refused.
  EXPECT_TRUE(ric_->plugins().health("xapp:bad")->quarantined);
  const CallCostAcc* xapp = ric_->xapp_cost("bad");
  ASSERT_NE(xapp, nullptr);
  EXPECT_EQ(xapp->calls(), 3u);
  EXPECT_EQ(xapp->total_fuel(), 3u);
  EXPECT_EQ(ric_->stats().xapp_fuel_used, 3u);

  const CallCostAcc* comm = agent_->plugin_cost("comm");
  const CallCostAcc* ctl = agent_->plugin_cost("ctl");
  ASSERT_NE(comm, nullptr);
  ASSERT_NE(ctl, nullptr);
  EXPECT_EQ(comm->calls(), 10u);  // one frame per indication, nothing back
  const uint64_t agent_fuel = agent_->stats().plugin_fuel_used;
  EXPECT_GT(agent_fuel, 0u);
  EXPECT_EQ(agent_fuel, comm->total_fuel() + ctl->total_fuel());

  // Fail every comm call before it enters the sandbox: 3 injected faults,
  // then quarantine refuses the other 7. None of them costs fuel.
  agent_->plugins().set_call_interceptor([](std::string_view slot, std::string_view) {
    plugin::PluginManager::CallIntercept intercept;
    if (slot == "comm") intercept.fail = Error::trap("injected comm fault");
    return intercept;
  });
  for (int i = 0; i < 10; ++i) {
    EXPECT_FALSE(agent_->send_indication().ok());
    ASSERT_TRUE(ric_->poll().ok());
    ASSERT_TRUE(agent_->poll().ok());
  }
  EXPECT_TRUE(agent_->plugins().health("comm")->quarantined);
  EXPECT_EQ(comm->total_fuel() + ctl->total_fuel(), agent_fuel);
  EXPECT_EQ(agent_->stats().plugin_fuel_used, agent_fuel);
}

TEST_F(ClosedLoop, XappHotSwapChangesPolicyLive) {
  auto sla = plugin_sources::sla_xapp();
  ASSERT_TRUE(sla.ok());
  ASSERT_TRUE(ric_->add_xapp("sla", *sla).ok());

  // Swap the SLA xApp for a no-op variant mid-flight.
  auto noop = wcc::compile(R"(
    export fn on_indication() -> i32 {
      store32(0, 2); store32(4, 0);
      output_write(0, 8);
      return 0;
    }
  )");
  ASSERT_TRUE(noop.ok());

  quotas_->set_quota(1, 2);
  ASSERT_TRUE(mac_->run_slots(200).ok());
  ASSERT_TRUE(agent_->send_indication().ok());
  ASSERT_TRUE(ric_->poll().ok());
  uint64_t actions_before = ric_->stats().actions_sent;
  EXPECT_GT(actions_before, 0u);

  ASSERT_TRUE(ric_->plugins().swap("xapp:sla", *noop).ok());
  ASSERT_TRUE(mac_->run_slots(200).ok());
  ASSERT_TRUE(agent_->send_indication().ok());
  ASSERT_TRUE(ric_->poll().ok());
  EXPECT_EQ(ric_->stats().actions_sent, actions_before);  // no new actions
}

TEST_F(ClosedLoop, InterXappMessagingDelivers) {
  auto counter = plugin_sources::counter_xapp();
  ASSERT_TRUE(counter.ok()) << counter.error().message;
  // xApp 0 receives; xApp 1 sends to index 0 on every indication.
  ASSERT_TRUE(ric_->add_xapp("receiver", *counter).ok());
  ASSERT_TRUE(ric_->add_xapp("sender", *counter).ok());

  ASSERT_TRUE(mac_->run_slots(5).ok());
  ASSERT_TRUE(agent_->send_indication().ok());
  ASSERT_TRUE(ric_->poll().ok());
  // Both xApps sent a 1-byte note to index 0; receiver got 2 messages.
  EXPECT_EQ(ric_->stats().messages_delivered, 2u);

  // Warm: each later turn delivers its 2 messages in buffers the inbox
  // kept from the turns before.
  uint64_t poll_allocs = 0;
  for (uint64_t round = 1; round <= 20; ++round) {
    ASSERT_TRUE(mac_->run_slots(5).ok());
    ASSERT_TRUE(agent_->send_indication().ok());
    const uint64_t before = heap_probe::allocations();
    ASSERT_TRUE(ric_->poll().ok());
    poll_allocs += heap_probe::allocations() - before;
    ASSERT_EQ(ric_->stats().messages_delivered, 2 + 2 * round);
  }
  EXPECT_EQ(poll_allocs, 0u);
}

TEST_F(ClosedLoop, SelfSendingXappCannotHoldThePoll) {
  // An echo xApp at index 0 answers every indication and every message by
  // sending itself another: its inbox never drains on its own.
  auto echo = wcc::compile(R"W(
    extern fn xapp_send(dst: i32, ptr: i32, len: i32);
    export fn on_indication() -> i32 {
      store8(0, 7);
      xapp_send(0, 0, 1);
      store32(100, 2);     // empty control message
      store32(104, 0);
      output_write(100, 8);
      return 0;
    }
    export fn on_message() -> i32 {
      input_read(0, 0, 1);
      xapp_send(0, 0, 1);
      return 0;
    }
  )W");
  ASSERT_TRUE(echo.ok()) << echo.error().message;
  ASSERT_TRUE(ric_->add_xapp("echo", *echo).ok());

  uint64_t warm_allocs = 0;
  for (uint64_t i = 1; i <= 50; ++i) {
    ASSERT_TRUE(mac_->run_slots(5).ok());
    ASSERT_TRUE(agent_->send_indication().ok());
    const uint64_t before = heap_probe::allocations();
    ASSERT_TRUE(ric_->poll().ok());
    if (i > 2) warm_allocs += heap_probe::allocations() - before;
    // Eight rounds deliver one message each; the eighth's echo is dropped.
    ASSERT_EQ(ric_->stats().messages_delivered, 8 * i);
    ASSERT_EQ(ric_->stats().messages_dropped, i);
  }
  EXPECT_EQ(warm_allocs, 0u);
}

}  // namespace
}  // namespace waran::ric

// Appended: the feature-upgrade story — a new control action (type 4,
// set_report_period) rolled out purely by hot-swapping the control plugin.
namespace waran::ric {
namespace {

class FeatureUpgrade : public ::testing::Test {
 protected:
  void SetUp() override {
    mac_ = std::make_unique<ran::GnbMac>(ran::MacConfig{});
    mac_->set_inter_scheduler(std::make_unique<sched::WeightedShareInterScheduler>());
    ran::SliceConfig cfg;
    cfg.slice_id = 1;
    mac_->add_slice(cfg, std::make_unique<sched::RrScheduler>());
    agent_ = std::make_unique<GnbAgent>(0, *mac_, nullptr, link_, Duplex::Side::kA);
    auto comm = plugin_sources::comm_framing();
    ASSERT_TRUE(comm.ok());
    ASSERT_TRUE(agent_->load_comm_plugin(*comm).ok());
    // A standalone framing plugin to forge RIC-side frames in the test.
    auto framer = plugin::Plugin::load(*comm);
    ASSERT_TRUE(framer.ok());
    framer_ = std::move(*framer);
  }

  void send_control(const std::vector<ControlAction>& actions) {
    auto frame = call(*framer_, "frame", encoded(actions));
    ASSERT_TRUE(frame.ok());
    link_.send(Duplex::Side::kB, *frame);
  }

  Duplex link_;
  std::unique_ptr<ran::GnbMac> mac_;
  std::unique_ptr<GnbAgent> agent_;
  std::unique_ptr<plugin::Plugin> framer_;
};

TEST_F(FeatureUpgrade, V1SkipsUnknownActionV2AppliesIt) {
  auto v1 = plugin_sources::control_dispatch();
  ASSERT_TRUE(v1.ok());
  ASSERT_TRUE(agent_->load_control_plugin(*v1).ok());
  EXPECT_EQ(agent_->report_period_slots(), 100u);

  // v1 era: the new action is skipped silently; known actions still work.
  send_control({{ActionType::kSetReportPeriod, 10, 0},
                {ActionType::kSetCqiTable, 1, 0}});
  ASSERT_TRUE(agent_->poll().ok());
  EXPECT_EQ(agent_->report_period_slots(), 100u);   // unknown to v1
  EXPECT_EQ(agent_->cqi_table_index(), 1u);         // known action applied
  EXPECT_EQ(mac_->mcs_table(), ran::McsTable::kQam256);  // ...and took effect
  EXPECT_EQ(agent_->stats().frames_rejected, 0u);   // no fault either

  // Hot-swap to v2: the same wire bytes now take effect.
  auto v2 = plugin_sources::control_dispatch_v2();
  ASSERT_TRUE(v2.ok()) << v2.error().message;
  ASSERT_TRUE(agent_->load_control_plugin(*v2).ok());
  send_control({{ActionType::kSetReportPeriod, 10, 0}});
  ASSERT_TRUE(agent_->poll().ok());
  EXPECT_EQ(agent_->report_period_slots(), 10u);
  EXPECT_EQ(agent_->stats().period_updates, 1u);
}

TEST_F(FeatureUpgrade, V2RejectsOutOfRangePeriods) {
  auto v2 = plugin_sources::control_dispatch_v2();
  ASSERT_TRUE(v2.ok());
  ASSERT_TRUE(agent_->load_control_plugin(*v2).ok());
  send_control({{ActionType::kSetReportPeriod, 0, 0}});
  ASSERT_TRUE(agent_->poll().ok());
  EXPECT_EQ(agent_->report_period_slots(), 100u);  // host-side sanity bound
  EXPECT_EQ(agent_->stats().period_updates, 0u);
}

}  // namespace
}  // namespace waran::ric

// Appended: one near-RT RIC serving multiple E2 nodes (real O-RAN topology).
namespace waran::ric {
namespace {

TEST(MultiCell, OneRicDrivesTwoGnbsIndependently) {
  auto comm = plugin_sources::comm_framing();
  auto ctl = plugin_sources::control_dispatch();
  auto sla = plugin_sources::sla_xapp();
  ASSERT_TRUE(comm.ok() && ctl.ok() && sla.ok());

  struct Cell {
    std::unique_ptr<ran::GnbMac> mac;
    QuotaTableInterScheduler* quotas;
    std::unique_ptr<Duplex> link;
    std::unique_ptr<GnbAgent> agent;
  };
  auto make_cell = [&](uint32_t id, double target_bps) {
    Cell c;
    c.mac = std::make_unique<ran::GnbMac>(ran::MacConfig{});
    auto q = std::make_unique<QuotaTableInterScheduler>();
    c.quotas = q.get();
    c.mac->set_inter_scheduler(std::move(q));
    ran::SliceConfig cfg;
    cfg.slice_id = 1;
    cfg.target_rate_bps = target_bps;
    c.mac->add_slice(cfg, std::make_unique<sched::RrScheduler>());
    c.mac->add_ue(1, ran::Channel::pinned_mcs(28), ran::TrafficSource::full_buffer());
    c.link = std::make_unique<Duplex>();
    c.agent = std::make_unique<GnbAgent>(id, *c.mac, c.quotas, *c.link,
                                         Duplex::Side::kA);
    EXPECT_TRUE(c.agent->load_comm_plugin(*comm).ok());
    EXPECT_TRUE(c.agent->load_control_plugin(*ctl).ok());
    c.quotas->set_quota(1, 2);  // both start starved
    return c;
  };

  Cell cell0 = make_cell(0, 10e6);
  Cell cell1 = make_cell(1, 20e6);

  NearRtRic ric(*cell0.link, Duplex::Side::kB);
  ric.add_link(*cell1.link, Duplex::Side::kB);
  ASSERT_TRUE(ric.load_comm_plugin(*comm).ok());
  ASSERT_TRUE(ric.add_xapp("sla", *sla).ok());
  EXPECT_EQ(ric.link_count(), 2u);

  for (int round = 0; round < 120; ++round) {
    ASSERT_TRUE(cell0.mac->run_slots(100).ok());
    ASSERT_TRUE(cell1.mac->run_slots(100).ok());
    ASSERT_TRUE(cell0.agent->send_indication().ok());
    ASSERT_TRUE(cell1.agent->send_indication().ok());
    ASSERT_TRUE(ric.poll().ok());
    ASSERT_TRUE(cell0.agent->poll().ok());
    ASSERT_TRUE(cell1.agent->poll().ok());
  }

  // Each cell converged to its own target — control frames were routed to
  // the link their indications came from.
  EXPECT_NEAR(cell0.mac->slice_rate_bps(1) / 1e6, 10.0, 2.5);
  EXPECT_NEAR(cell1.mac->slice_rate_bps(1) / 1e6, 20.0, 3.5);
  EXPECT_GT(cell0.agent->stats().quota_updates, 0u);
  EXPECT_GT(cell1.agent->stats().quota_updates, 0u);
  EXPECT_EQ(ric.stats().indications_processed, 240u);
}

}  // namespace
}  // namespace waran::ric
