// Tests for waran::rt — the virtual/steady clock, the cell executor, and
// the multi-cell gNB deployment's determinism contract: under virtual time
// the same config + seed must produce bit-identical metrics digests and
// trace hashes whether the cells run inline on one thread or sharded across
// worker threads, and across repeated threaded runs (the latter is also the
// CI TSan workload for the runtime layer). The binary counts its heap
// allocations (tests/heap_probe_guard.h) to pin a warm step's at zero.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "common/tracked_alloc.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "plugin/plugin.h"
#include "ric/e2lite.h"
#include "ric/gnb_agent.h"
#include "ric/near_rt_ric.h"
#include "ric/plugin_sources.h"
#include "rt/clock.h"
#include "rt/deployment.h"
#include "rt/executor.h"
#include "sched/plugins.h"
#include "tests/heap_probe_guard.h"

namespace waran {
namespace {

// ---------------------------------------------------------------------------
// rt::Clock

TEST(Clock, RealModeIsMonotonic) {
  rt::Clock& clock = rt::Clock::global();
  ASSERT_FALSE(clock.is_virtual());
  const uint64_t a = clock.now_ns();
  const uint64_t b = clock.now_ns();
  EXPECT_LE(a, b);
  EXPECT_LE(a, clock.real_ns());
}

TEST(Clock, VirtualModeOnlyMovesWhenAdvanced) {
  rt::Clock& clock = rt::Clock::global();
  rt::VirtualClockGuard guard(1000);
  ASSERT_TRUE(clock.is_virtual());
  EXPECT_EQ(clock.now_ns(), 1000u);
  EXPECT_EQ(clock.now_ns(), 1000u);  // frozen until advanced
  clock.advance_ns(500);
  EXPECT_EQ(clock.now_ns(), 1500u);
  EXPECT_EQ(rt::now_ns(), 1500u);  // the free-function shorthand agrees
}

TEST(Clock, RealNsKeepsTickingInVirtualMode) {
  rt::VirtualClockGuard guard(0);
  rt::Clock& clock = rt::Clock::global();
  const uint64_t w0 = clock.real_ns();
  // Burn a little real time without touching the virtual clock.
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  EXPECT_GT(clock.real_ns(), w0);
  EXPECT_EQ(clock.now_ns(), 0u);
}

TEST(Clock, GuardRestoresRealModeAndSupportsNesting) {
  rt::Clock& clock = rt::Clock::global();
  ASSERT_FALSE(clock.is_virtual());
  {
    rt::VirtualClockGuard outer(100);
    EXPECT_TRUE(clock.is_virtual());
    {
      // The inner guard re-bases the virtual origin but must NOT drop back
      // to real mode on exit — the outer scope still owns virtual time.
      rt::VirtualClockGuard inner(42);
      EXPECT_TRUE(clock.is_virtual());
      EXPECT_EQ(clock.now_ns(), 42u);
    }
    EXPECT_TRUE(clock.is_virtual());
  }
  EXPECT_FALSE(clock.is_virtual());
}

// ---------------------------------------------------------------------------
// rt::CellExecutor

TEST(CellExecutor, InlineModeRunsOnCallerThread) {
  rt::CellExecutor exec("inline");
  EXPECT_FALSE(exec.threaded());
  const std::thread::id caller = std::this_thread::get_id();
  std::thread::id ran_on;
  exec.post([&] { ran_on = std::this_thread::get_id(); });
  EXPECT_EQ(ran_on, caller);  // ran synchronously, before post returned
  EXPECT_EQ(exec.tasks_run(), 1u);
  exec.wait_idle();  // trivially satisfied, must not deadlock
}

TEST(CellExecutor, ThreadedModeRunsTasksInFifoOrderOffThread) {
  rt::CellExecutor exec("worker");
  exec.start();
  EXPECT_TRUE(exec.threaded());

  const std::thread::id caller = std::this_thread::get_id();
  std::vector<int> order;
  std::thread::id ran_on;
  for (int i = 0; i < 100; ++i) {
    exec.post([&, i] {
      order.push_back(i);
      ran_on = std::this_thread::get_id();
    });
  }
  exec.wait_idle();  // barrier: all 100 finished, writes visible here
  ASSERT_EQ(order.size(), 100u);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(order[i], i);
  EXPECT_NE(ran_on, caller);
  EXPECT_EQ(exec.tasks_run(), 100u);

  exec.stop();
  EXPECT_FALSE(exec.threaded());
  // After stop() posts run inline again.
  bool inline_ran = false;
  exec.post([&] { inline_ran = true; });
  EXPECT_TRUE(inline_ran);
}

TEST(CellExecutor, WaitIdleIsAHappensBeforeBarrier) {
  rt::CellExecutor exec("barrier");
  exec.start();
  uint64_t counter = 0;  // plain (non-atomic): the barrier must order it
  for (int step = 0; step < 50; ++step) {
    exec.post([&] { ++counter; });
    exec.wait_idle();
    ASSERT_EQ(counter, static_cast<uint64_t>(step) + 1);
  }
  exec.stop();
}

// ---------------------------------------------------------------------------
// rt::GnbDeployment determinism

// The deployment digests the process-wide metrics registry, so comparable
// runs must each start from a clean sheet.
void reset_global_obs() {
  obs::MetricsRegistry::global().reset_values();
  obs::set_current_slot(0);
}

struct RunResult {
  std::string digest;
  uint64_t trace_hash = 0;
};

RunResult run_deployment(uint32_t cells, bool threaded, uint32_t slots) {
  reset_global_obs();
  rt::DeploymentConfig cfg;
  cfg.cells = cells;
  cfg.seed = 7;
  cfg.threaded = threaded;
  cfg.virtual_time = true;
  cfg.report_period_slots = 5;
  cfg.trace_capacity = 256;
  rt::GnbDeployment dep(cfg);
  EXPECT_TRUE(dep.status().ok())
      << (dep.status().ok() ? "" : dep.status().error().message);
  if (!dep.status().ok()) return {};
  auto st = dep.run_slots(slots);
  EXPECT_TRUE(st.ok()) << (st.ok() ? "" : st.error().message);
  EXPECT_EQ(dep.slots_run(), slots);
  return {dep.digest(), dep.trace_hash()};
}

TEST(GnbDeployment, InlineAndThreadedRunsProduceIdenticalDigests) {
  const RunResult inline_run = run_deployment(/*cells=*/2, /*threaded=*/false,
                                              /*slots=*/20);
  const RunResult threaded_run = run_deployment(/*cells=*/2, /*threaded=*/true,
                                                /*slots=*/20);
  ASSERT_FALSE(inline_run.digest.empty());
  EXPECT_EQ(inline_run.digest, threaded_run.digest);
  EXPECT_EQ(inline_run.trace_hash, threaded_run.trace_hash);
  EXPECT_NE(inline_run.trace_hash, 0u);
}

TEST(GnbDeployment, RepeatedFourCellThreadedRunsAreBitIdentical) {
  // Four cells on four worker threads, twice: the barrier-stepped virtual
  // clock must make the runs indistinguishable. This is also the runtime
  // layer's TSan workload in CI.
  const RunResult a = run_deployment(/*cells=*/4, /*threaded=*/true,
                                     /*slots=*/25);
  const RunResult b = run_deployment(/*cells=*/4, /*threaded=*/true,
                                     /*slots=*/25);
  ASSERT_FALSE(a.digest.empty());
  EXPECT_EQ(a.digest, b.digest);
  EXPECT_EQ(a.trace_hash, b.trace_hash);
}

TEST(GnbDeployment, PerCellTraceRingsAreDistinctAndPopulated) {
  reset_global_obs();
  rt::DeploymentConfig cfg;
  cfg.cells = 3;
  cfg.seed = 11;
  cfg.threaded = true;
  cfg.virtual_time = true;
  cfg.trace_capacity = 128;
  rt::GnbDeployment dep(cfg);
  ASSERT_TRUE(dep.status().ok());
  ASSERT_TRUE(dep.run_slots(10).ok());
  for (uint32_t c = 0; c < 3; ++c) {
    obs::TraceRing* ring = dep.trace_ring(c);
    ASSERT_NE(ring, nullptr) << "cell " << c;
    EXPECT_GT(ring->writes(), 0u) << "cell " << c;
    for (uint32_t d = 0; d < c; ++d) {
      EXPECT_NE(ring, dep.trace_ring(d));  // one ring per shard
    }
  }
}

/// Heap allocations of each of `steps` consecutive single-slot steps.
std::vector<uint64_t> step_allocations(rt::GnbDeployment& dep, int steps) {
  std::vector<uint64_t> out;
  out.reserve(static_cast<size_t>(steps));
  for (int i = 0; i < steps; ++i) {
    const uint64_t before = heap_probe::allocations();
    const Status st = dep.run_slots(1);
    out.push_back(heap_probe::allocations() - before);
    EXPECT_TRUE(st.ok());
  }
  return out;
}

// Every buffer a warm step uses is kept by its owner from one step to the
// next (doc/architecture.md): these pins hold the slot path, the scheduler
// crossings and the whole E2 loop at exactly zero heap allocations. All run
// inline on virtual time, so a slow build cannot journal a slot overrun
// into the count. The warm-up runs past one 1 s rate window, so every UE's
// RateMeter ring holds a full window.

TEST(GnbDeployment, SteadyStateSlotAllocationsArePinned) {
  // The dense-cell slot path: 3 Wasm-scheduled slices x 64 UEs, E2 off.
  reset_global_obs();
  rt::DeploymentConfig cfg;
  cfg.cells = 1;
  cfg.threaded = false;
  cfg.virtual_time = true;
  cfg.report_period_slots = 0;
  for (rt::SliceSpec& s : cfg.slices) s.ues = 64;
  rt::GnbDeployment dep(cfg);
  ASSERT_TRUE(dep.status().ok());
  ASSERT_TRUE(dep.run_slots(1100).ok());
  EXPECT_EQ(step_allocations(dep, 20), std::vector<uint64_t>(20, 0));
}

TEST(GnbDeployment, E2LoopEverySlotAllocatesNothing) {
  // 3 slices x 2 UEs with an indication, a RIC turn and the agent's poll
  // on every slot: the comm plugins on both ends, the SLA xApp, the
  // control path and the link's frame buffers.
  reset_global_obs();
  rt::DeploymentConfig cfg;
  cfg.cells = 1;
  cfg.threaded = false;
  cfg.virtual_time = true;
  cfg.report_period_slots = 1;
  rt::GnbDeployment dep(cfg);
  ASSERT_TRUE(dep.status().ok());
  ASSERT_TRUE(dep.run_slots(1100).ok());
  const uint64_t indications = dep.agent(0).stats().indications_sent;
  const uint64_t controls = dep.ric().stats().control_frames_sent;
  EXPECT_EQ(step_allocations(dep, 20), std::vector<uint64_t>(20, 0));
  EXPECT_EQ(dep.agent(0).stats().indications_sent - indications, 20u);
  // The SLA xApp keeps adjusting quotas, so control frames cross the link
  // back and the agent's ctl plugin runs inside the pinned steps too.
  EXPECT_GT(dep.ric().stats().control_frames_sent - controls, 0u);
}

TEST(GnbDeployment, FirstStepAfterHotSwapAllocatesNothing) {
  // Admission sizes the new instance's interpreter arenas, so the swapped
  // scheduler's first call finds them reserved. The swap itself (decode,
  // validate, translate, admit, instantiate) allocates and is not counted.
  reset_global_obs();
  rt::DeploymentConfig cfg;
  cfg.cells = 1;
  cfg.threaded = false;
  cfg.virtual_time = true;
  cfg.report_period_slots = 1;
  cfg.admission = analysis::AdmissionMode::kEnforce;
  rt::GnbDeployment dep(cfg);
  ASSERT_TRUE(dep.status().ok());
  ASSERT_TRUE(dep.run_slots(1100).ok());
  for (const char* kind : {"pf", "rr", "mt"}) {
    SCOPED_TRACE(kind);
    auto bytes = sched::plugins::scheduler(kind);
    ASSERT_TRUE(bytes.ok());
    const uint64_t calls = dep.sched_plugins(0).cost("stream-co")->calls();
    ASSERT_TRUE(dep.sched_plugins(0).swap("stream-co", *bytes).ok());
    EXPECT_EQ(step_allocations(dep, 1), std::vector<uint64_t>{0});
    EXPECT_EQ(dep.sched_plugins(0).cost("stream-co")->calls(), calls + 1);
  }
}

TEST(GnbDeployment, ThreeCellStepAllocatesNothing) {
  // Three cells stepped inline with E2 every 10 slots: 20 consecutive
  // steps cover two RIC turns over three links. (The threaded executor's
  // task queue is not covered: it may allocate.)
  reset_global_obs();
  rt::DeploymentConfig cfg;
  cfg.cells = 3;
  cfg.threaded = false;
  cfg.virtual_time = true;
  cfg.report_period_slots = 10;
  rt::GnbDeployment dep(cfg);
  ASSERT_TRUE(dep.status().ok());
  ASSERT_TRUE(dep.run_slots(1100).ok());
  const uint64_t turns = dep.ric().stats().indications_processed;
  EXPECT_EQ(step_allocations(dep, 20), std::vector<uint64_t>(20, 0));
  EXPECT_EQ(dep.ric().stats().indications_processed - turns, 6u);
}

TEST(GnbDeployment, DuplicateSliceIdsFailConstruction) {
  // Two slices under one id would wire one MAC slice, an uncalled plugin
  // and double-counted fleet telemetry; the config is refused instead.
  reset_global_obs();
  rt::DeploymentConfig cfg;
  cfg.threaded = false;
  cfg.virtual_time = true;
  cfg.slices = {{1, "a-co", "rr", 4e6, 12, 2}, {1, "b-co", "pf", 4e6, 12, 2}};
  rt::GnbDeployment dep(cfg);
  ASSERT_FALSE(dep.status().ok());
  EXPECT_EQ(dep.status().error().code, Error::Code::kInvalidArgument);
  EXPECT_FALSE(dep.run_slots(1).ok());
}

TEST(GnbDeployment, ThreadedRunSlotsRunsAllCells) {
  reset_global_obs();
  rt::DeploymentConfig cfg;
  cfg.cells = 2;
  cfg.seed = 3;
  cfg.threaded = true;
  cfg.virtual_time = true;
  cfg.report_period_slots = 4;
  rt::GnbDeployment dep(cfg);
  ASSERT_TRUE(dep.status().ok());
  ASSERT_TRUE(dep.run_slots(12).ok());
  EXPECT_EQ(dep.slots_run(), 12u);
  const uint64_t slots =
      static_cast<uint64_t>(obs::MetricsRegistry::global()
                                .counter("waran_mac_slots_total", {})
                                .value());
  EXPECT_EQ(slots, 24u);  // 12 slots on each of 2 cells
}

TEST(GnbDeployment, RicSetReportPeriodChangesThatCellsCadence) {
  // Each cell's agent owns its indication period: it starts at the
  // configured one, and a set_report_period control (rolled out with the
  // v2 control plugin on cell 0 only) changes that cell's cadence alone.
  reset_global_obs();
  rt::DeploymentConfig cfg;
  cfg.cells = 2;
  cfg.virtual_time = true;
  cfg.report_period_slots = 10;
  rt::GnbDeployment dep(cfg);
  ASSERT_TRUE(dep.status().ok());
  EXPECT_EQ(dep.agent(0).report_period_slots(), 10u);
  EXPECT_EQ(dep.agent(1).report_period_slots(), 10u);

  auto v2 = ric::plugin_sources::control_dispatch_v2();
  ASSERT_TRUE(v2.ok());
  ASSERT_TRUE(dep.agent(0).load_control_plugin(*v2).ok());
  auto comm = ric::plugin_sources::comm_framing();
  ASSERT_TRUE(comm.ok());
  auto framer = plugin::Plugin::load(*comm);
  ASSERT_TRUE(framer.ok());
  std::vector<uint8_t> control, frame;
  ric::encode_control({{ric::ActionType::kSetReportPeriod, 5, 0}}, control);
  ASSERT_TRUE((*framer)->call("frame", control, frame).ok());
  dep.link(0).send(ric::Duplex::Side::kB, frame);
  ASSERT_TRUE(dep.agent(0).poll().ok());
  EXPECT_EQ(dep.agent(0).stats().period_updates, 1u);
  EXPECT_EQ(dep.agent(0).report_period_slots(), 5u);

  const uint64_t sent0 = dep.agent(0).stats().indications_sent;
  const uint64_t sent1 = dep.agent(1).stats().indications_sent;
  ASSERT_TRUE(dep.run_slots(40).ok());
  EXPECT_EQ(dep.agent(0).stats().indications_sent - sent0, 8u);  // every 5 slots
  EXPECT_EQ(dep.agent(1).stats().indications_sent - sent1, 4u);  // every 10 slots
}

}  // namespace
}  // namespace waran
