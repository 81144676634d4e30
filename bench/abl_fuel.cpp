// Ablation — cost of fuel metering (the mechanism enforcing the 5G slot
// deadline on plugins, §6B/§6C). Same compute-heavy plugin run with fuel
// armed vs disabled; the delta is the per-instruction metering overhead.
#include <benchmark/benchmark.h>

#include <chrono>

#include "plugin/plugin.h"
#include "wasm/wasm.h"
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

// Instance-level cost of the wall-clock deadline guard. The interpreter's
// charge path keeps a cached poll countdown, so the unarmed run never reads
// the clock at all and the armed run touches it only every
// kDeadlinePollStride charge points; the delta between these two is the
// whole price of arming a deadline.
void BM_InstanceCall_Deadline(benchmark::State& state) {
  auto bytes = wcc::compile(kWorkSource);
  if (!bytes.ok()) std::abort();
  auto module = wasm::decode_module(*bytes);
  if (!module.ok() || !wasm::validate_module(*module).ok()) std::abort();
  if (!wasm::translate_module(*module).ok()) std::abort();
  wasm::Linker linker;
  linker.register_func(
      "waran", "output_write",
      wasm::HostFunc{wasm::FuncType{{wasm::ValType::kI32, wasm::ValType::kI32}, {}},
                     [](wasm::HostContext&, std::span<const wasm::Value>)
                         -> Result<std::optional<wasm::Value>> {
                       return std::optional<wasm::Value>{};
                     }});
  auto inst = wasm::Instance::instantiate(
      std::make_shared<wasm::Module>(std::move(*module)), linker);
  if (!inst.ok()) std::abort();

  wasm::CallOptions opts;
  opts.fuel = uint64_t{10'000'000};
  if (state.range(0) != 0) opts.deadline = std::chrono::milliseconds(100);
  wasm::CallStats stats;
  for (auto _ : state) {
    auto r = (*inst)->call("run", {}, opts, &stats);
    benchmark::DoNotOptimize(r);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(stats.instrs_retired));
}

BENCHMARK(BM_InstanceCall_Deadline)->Arg(0)->Arg(1)->ArgName("armed");

}  // namespace
