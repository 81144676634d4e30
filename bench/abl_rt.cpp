// Runtime-layer ablation: multi-cell slot throughput scaling.
//
// BM_MultiCellSlots stands up an rt::GnbDeployment with N cells (one
// CellExecutor worker thread per cell, shared near-RT RIC) on virtual time
// and drives it with run_slots, the barrier-stepped loop every deployment
// runs: every cell's MAC + three Wasm MVNO schedulers + E2 agent, the
// per-slot barrier and the RIC turn, with no wall-clock pacing.
//
// items_per_second counts MAC slots across all cells, so on a machine with
// >= N cores an N-cell run should approach N x the 1-cell rate. main()
// derives `abl_rt.BM_MultiCellSlots.scale_<N>x` ratio keys from the runs
// and merges everything into BENCH_interp.json. The scale ratios are
// reported, not gated — CI runner core counts vary — while the 1-cell
// throughput key is gated conservatively by scripts/check_bench.py.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <cstdio>
#include <map>
#include <string>

#include "bench/bench_util.h"
#include "bench/json_capture.h"
#include "rt/clock.h"
#include "rt/deployment.h"

namespace {

using namespace waran;

constexpr uint32_t kSlotsPerIter = 16;

void BM_MultiCellSlots(benchmark::State& state) {
  const uint32_t cells = static_cast<uint32_t>(state.range(0));
  rt::DeploymentConfig cfg;
  cfg.cells = cells;
  cfg.seed = 42;
  cfg.threaded = true;
  cfg.virtual_time = true;
  cfg.report_period_slots = 10;
  rt::GnbDeployment dep(cfg);
  if (!dep.status().ok()) {
    state.SkipWithError(dep.status().error().message.c_str());
    return;
  }
  for (auto _ : state) {
    auto st = dep.run_slots(kSlotsPerIter);
    if (!st.ok()) {
      state.SkipWithError(st.error().message.c_str());
      return;
    }
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(kSlotsPerIter) * cells);
  state.counters["cells"] = static_cast<double>(cells);
}

BENCHMARK(BM_MultiCellSlots)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->ArgName("cells")
    ->UseRealTime()
    ->MeasureProcessCPUTime();

// UE-count stress sweep: how slot cost scales with per-slice UE population
// and with slice count (each slice is one Wasm scheduler call per slot, so
// slices/cell scales dispatch count while UEs/slice scales per-call work).
// With e2:0 the E2 loop is off and the run times the slot path alone.
// ns_per_ue_slot is the wall time per slot divided by the cell's UEs.
// Keys land in BENCH_interp.json as abl_rt.BM_UeStress.* — reported for
// trend tracking, not gated (absolute cost varies with CI hardware).
void BM_UeStress(benchmark::State& state) {
  const uint32_t ues_per_slice = static_cast<uint32_t>(state.range(0));
  const uint32_t slices = static_cast<uint32_t>(state.range(1));
  const bool e2 = state.range(2) != 0;
  static const char* kPolicies[] = {"rr", "mt", "pf"};

  rt::DeploymentConfig cfg;
  cfg.cells = 1;
  cfg.seed = 42;
  cfg.threaded = false;  // single cell: measure the slot path, not the pool
  cfg.virtual_time = true;
  cfg.report_period_slots = e2 ? 10 : 0;
  cfg.slices.clear();
  for (uint32_t s = 0; s < slices; ++s) {
    rt::SliceSpec spec;
    spec.slice_id = s + 1;
    spec.name = "mvno" + std::to_string(s + 1);
    spec.policy = kPolicies[s % 3];
    spec.target_rate_bps = 8e6;
    spec.quota_prbs = 8;
    spec.ues = ues_per_slice;
    cfg.slices.push_back(spec);
  }
  rt::GnbDeployment dep(cfg);
  if (!dep.status().ok()) {
    state.SkipWithError(dep.status().error().message.c_str());
    return;
  }
  // Wall time through the rt clock's real source (the deployment runs on
  // virtual time).
  const uint64_t t0 = rt::Clock::global().real_ns();
  for (auto _ : state) {
    auto st = dep.run_slots(kSlotsPerIter);
    if (!st.ok()) {
      state.SkipWithError(st.error().message.c_str());
      return;
    }
  }
  const double wall_ns = static_cast<double>(rt::Clock::global().real_ns() - t0);
  const double ues = static_cast<double>(ues_per_slice * slices);
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(kSlotsPerIter));
  state.counters["ues"] = ues;
  state.counters["slices"] = static_cast<double>(slices);
  state.counters["ns_per_ue_slot"] =
      wall_ns / (static_cast<double>(state.iterations()) * kSlotsPerIter * ues);
}

BENCHMARK(BM_UeStress)
    ->Args({2, 3, 1})
    ->Args({8, 3, 1})
    ->Args({32, 3, 1})
    ->Args({64, 3, 1})
    ->Args({341, 3, 1})  // ~1,024 UEs per cell
    ->Args({8, 6, 1})
    ->Args({8, 3, 0})
    ->Args({64, 3, 0})
    ->Args({341, 3, 0})
    ->ArgNames({"ues_per_slice", "slices", "e2"});

/// slots/sec for the N-cell run (the median under --benchmark_repetitions),
/// or 0 if that run is missing.
double cells_ips(const std::map<std::string, double>& entries, uint32_t n) {
  auto it = entries.find("abl_rt.BM_MultiCellSlots/cells:" + std::to_string(n) +
                         "/process_time/real_time.items_per_second");
  return it == entries.end() ? 0.0 : it->second;
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  waran::bench::JsonCaptureReporter reporter("abl_rt");
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();

  // Scaling summary: N-cell aggregate slot rate over the 1-cell rate. On a
  // single-core machine these hover near 1.0; with >= N cores they should
  // approach N (the acceptance target is >= 3x at 4 cells on 4+ cores).
  const double base_ips = cells_ips(reporter.entries, 1);
  if (base_ips > 0.0) {
    for (uint32_t n : {2u, 4u, 8u}) {
      const double ips = cells_ips(reporter.entries, n);
      if (ips <= 0.0) continue;
      const double ratio = ips / base_ips;
      reporter.entries["abl_rt.BM_MultiCellSlots.scale_" + std::to_string(n) +
                       "x"] = ratio;
      std::printf("scale %ux: %.0f slots/s vs %.0f slots/s at 1 cell "
                  "(%.2fx)\n",
                  n, ips, base_ips, ratio);
    }
  }

  waran::bench::bench_json_merge(reporter.entries);
  return 0;
}
