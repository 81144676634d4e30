// Ablation — cost of fuel metering (the mechanism enforcing the 5G slot
// deadline on plugins, §6B/§6C). Same compute-heavy plugin run with fuel
// armed vs disabled; the delta is the per-instruction metering overhead.
#include <benchmark/benchmark.h>

#include "plugin/plugin.h"
#include "wcc/compiler.h"

namespace {

using namespace waran;

constexpr char kWorkSource[] = R"(
  // ~60k instructions of integer work per call.
  export fn run() -> i32 {
    var acc: i32 = 0;
    var i: i32 = 0;
    while (i < 10000) {
      acc = acc + i * 3 - (i / 7);
      i = i + 1;
    }
    store32(0, acc);
    output_write(0, 4);
    return 0;
  }
)";

std::unique_ptr<plugin::Plugin> make_plugin(uint64_t fuel) {
  auto bytes = wcc::compile(kWorkSource);
  if (!bytes.ok()) std::abort();
  plugin::PluginLimits limits;
  limits.fuel_per_call = fuel;  // 0 disables metering
  auto p = plugin::Plugin::load(*bytes, {}, limits);
  if (!p.ok()) std::abort();
  return std::move(*p);
}

void BM_PluginCall_FuelOff(benchmark::State& state) {
  auto p = make_plugin(0);
  std::vector<uint8_t> out;
  for (auto _ : state) {
    Status r = p->call("run", {}, out);
    benchmark::DoNotOptimize(r);
  }
  state.SetItemsProcessed(state.iterations());
}

void BM_PluginCall_FuelOn(benchmark::State& state) {
  auto p = make_plugin(10'000'000);
  std::vector<uint8_t> out;
  for (auto _ : state) {
    Status r = p->call("run", {}, out);
    benchmark::DoNotOptimize(r);
  }
  state.SetItemsProcessed(state.iterations());
}

BENCHMARK(BM_PluginCall_FuelOff);
BENCHMARK(BM_PluginCall_FuelOn);

}  // namespace
