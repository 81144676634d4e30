// Ablation — observability overhead: what does waran::obs cost on the
// metered dispatch path? The contract (src/obs/trace.h) is that with no
// trace ring bound — how production runs — a span site costs a
// thread-local read and a branch: no clock reads, no ring writes, no heap
// allocations. That is asserted here structurally —
// real operator-new counts via heap_probe plus the ring's write counter —
// so a regression aborts the bench instead of hiding in timing noise. The
// timed arms then report the enabled-mode cost (clock reads + 56-byte ring
// stores per span) and the raw instrument costs.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstdlib>

#include "bench/bench_util.h"
#include "common/tracked_alloc.h"
#include "obs/fleet.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "rt/deployment.h"
#include "tests/heap_probe_guard.h"
#include "wasm/wasm.h"
#include "wcc/compiler.h"

namespace {

using namespace waran;
using bench::instantiate_w;
using wasm::TypedValue;

// A scheduler-shaped workload: a compute loop plus ABI host calls, so both
// instrumented crossings (Instance::call span, host trampoline spans) sit
// on the measured path.
constexpr const char* kWorkload = R"(
  export fn work(n: i32) -> i32 {
    var acc: i32 = 0;
    var i: i32 = 0;
    while (i < n) {
      if (i % 3 == 0) { acc = acc + i * 7; } else { acc = acc - i / 3; }
      store32((i % 64) * 4, acc);
      i = i + 1;
    }
    output_write(0, 64);
    return acc;
  }
)";

wasm::Linker abi_stub_linker() {
  // Just enough of the plugin ABI for the workload: a no-op output_write,
  // so the host-trampoline span site is on the path without dragging the
  // full PluginManager in.
  wasm::Linker linker;
  linker.register_func(
      "waran", "output_write",
      wasm::HostFunc{wasm::FuncType{{wasm::ValType::kI32, wasm::ValType::kI32}, {}},
                     [](wasm::HostContext&, std::span<const wasm::Value>)
                         -> Result<std::optional<wasm::Value>> {
                       return std::optional<wasm::Value>{};
                     }});
  return linker;
}

void BM_TracedDispatch(benchmark::State& state) {
  auto inst = instantiate_w(kWorkload, abi_stub_linker());
  const bool traced = state.range(1) != 0;
  wasm::CallOptions opts;
  opts.fuel = uint64_t{1} << 40;
  wasm::CallStats stats;
  std::vector<TypedValue> args =
      {TypedValue::i32(static_cast<int32_t>(state.range(0)))};

  // The traced arm binds an enabled ring; the untraced arm binds none, as
  // production runs.
  obs::TraceRing ring;
  if (traced) ring.enable(1 << 14);
  obs::TraceRing::bind_current(traced ? &ring : nullptr);

  // Warm up, then assert the off-path contract: across 64 warm calls the
  // obs layer must make ZERO heap allocations and ZERO ring writes.
  for (int i = 0; i < 4; ++i) {
    if (!inst->call("work", args, opts, &stats).ok()) std::abort();
  }
  const uint64_t allocs_before = heap_probe::allocations();
  const uint64_t writes_before = ring.writes();
  for (int i = 0; i < 64; ++i) {
    if (!inst->call("work", args, opts, &stats).ok()) std::abort();
  }
  const uint64_t warm_allocs = heap_probe::allocations() - allocs_before;
  const uint64_t warm_writes = ring.writes() - writes_before;
  if (warm_allocs != 0) {
    std::fprintf(stderr,
                 "zero-alloc guarantee broken: %llu heap allocations across "
                 "64 warm calls (traced=%d)\n",
                 static_cast<unsigned long long>(warm_allocs), traced ? 1 : 0);
    std::abort();
  }
  if (!traced && warm_writes != 0) {
    std::fprintf(stderr,
                 "untraced calls wrote %llu ring events across 64 warm "
                 "calls — the off path must be inert\n",
                 static_cast<unsigned long long>(warm_writes));
    std::abort();
  }
  if (traced && warm_writes == 0) {
    std::fprintf(stderr, "enabled tracing recorded nothing — spans are dead\n");
    std::abort();
  }

  for (auto _ : state) {
    auto r = inst->call("work", args, opts, &stats);
    benchmark::DoNotOptimize(r);
  }
  obs::TraceRing::bind_current(nullptr);
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(stats.instrs_retired));
  state.counters["warm_heap_allocs"] = static_cast<double>(warm_allocs);
  state.counters["warm_ring_writes"] = static_cast<double>(warm_writes);
}

void BM_SpanDisabled(benchmark::State& state) {
  // Floor cost of one span site with no ring bound: a thread-local read and
  // a branch on construction, another branch on destruction.
  obs::TraceRing::bind_current(nullptr);
  for (auto _ : state) {
    obs::ObsSpan span(obs::TraceCat::kOther, "bench");
    benchmark::DoNotOptimize(&span);
  }
}

void BM_SpanEnabled(benchmark::State& state) {
  // Full span cost with tracing on: two clock reads + one ring store.
  obs::TraceRing ring;
  ring.enable(1 << 14);
  obs::TraceRing::bind_current(&ring);
  for (auto _ : state) {
    obs::ObsSpan span(obs::TraceCat::kOther, "bench");
    benchmark::DoNotOptimize(&span);
  }
  obs::TraceRing::bind_current(nullptr);
}

void BM_CounterAdd(benchmark::State& state) {
  obs::Counter& c =
      obs::MetricsRegistry::global().counter("waran_bench_counter_total");
  for (auto _ : state) {
    c.add();
  }
  benchmark::DoNotOptimize(c.value());
}

void BM_HistogramAdd(benchmark::State& state) {
  obs::Histogram& h =
      obs::MetricsRegistry::global().histogram("waran_bench_hist_ns");
  uint64_t v = 1;
  for (auto _ : state) {
    h.add(v);
    v = (v * 2862933555777941757ull + 3037000493ull) >> 8;  // vary the bucket
  }
  benchmark::DoNotOptimize(h.count());
}

void BM_FleetCollect(benchmark::State& state) {
  // The fleet aggregation warm path: per-cell collection (what rides every
  // E2 indication) plus the gNB/fleet rollup. The contract mirrors the span
  // sites above — handles resolve at construction, so the warm path makes
  // ZERO heap allocations; a regression aborts the bench.
  rt::DeploymentConfig cfg;
  cfg.cells = 2;
  cfg.seed = 42;
  cfg.threaded = false;  // inline: the bench thread owns every shard
  cfg.virtual_time = true;
  cfg.report_period_slots = 10;
  rt::GnbDeployment dep(cfg);
  if (!dep.status().ok()) {
    state.SkipWithError(dep.status().error().message.c_str());
    return;
  }
  if (!dep.run_slots(30).ok()) {
    state.SkipWithError("deployment warm-up failed");
    return;
  }

  obs::FleetAggregator& fleet = dep.fleet();
  auto collect_all = [&fleet]() {
    for (size_t i = 0; i < fleet.cells(); ++i) {
      benchmark::DoNotOptimize(&fleet.collect_cell(i));
    }
    obs::CellTelemetry rollup = fleet.fleet_rollup();
    benchmark::DoNotOptimize(&rollup);
  };

  for (int i = 0; i < 4; ++i) collect_all();
  const uint64_t allocs_before = heap_probe::allocations();
  for (int i = 0; i < 64; ++i) collect_all();
  const uint64_t warm_allocs = heap_probe::allocations() - allocs_before;
  if (warm_allocs != 0) {
    std::fprintf(stderr,
                 "fleet aggregation zero-alloc guarantee broken: %llu heap "
                 "allocations across 64 warm collect+rollup passes\n",
                 static_cast<unsigned long long>(warm_allocs));
    std::abort();
  }

  for (auto _ : state) {
    collect_all();
  }
  state.SetItemsProcessed(state.iterations() * 2);  // cells collected
  state.counters["warm_heap_allocs"] = static_cast<double>(warm_allocs);
}

BENCHMARK(BM_TracedDispatch)
    ->Args({2000, 0})
    ->Args({2000, 1})
    ->ArgNames({"n", "traced"});
BENCHMARK(BM_SpanDisabled);
BENCHMARK(BM_SpanEnabled);
BENCHMARK(BM_CounterAdd);
BENCHMARK(BM_HistogramAdd);
BENCHMARK(BM_FleetCollect);

}  // namespace
