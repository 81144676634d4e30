// Ablation — the wcc optimizer's effect (paper §6C "code optimization" as a
// mitigation for interpretation overhead): retired instructions and wall
// time of the real scheduler plugins compiled with and without the
// optimizer, plus a folding-heavy synthetic kernel as an upper bound.
#include <benchmark/benchmark.h>

#include "common/rng.h"
#include "plugin/plugin.h"
#include "ran/phy_tables.h"
#include "sched/plugins.h"
#include "codec/wire.h"
#include "wcc/compiler.h"

namespace {

using namespace waran;

std::unique_ptr<plugin::Plugin> load(const std::string& src, bool optimize) {
  wcc::CompileOptions options;
  options.optimize = optimize;
  auto bytes = wcc::compile(src, options);
  if (!bytes.ok()) std::abort();
  auto p = plugin::Plugin::load(*bytes);
  if (!p.ok()) std::abort();
  return std::move(*p);
}

std::vector<uint8_t> sched_input() {
  Xoshiro256 rng(5);
  codec::SchedRequest req;
  req.slot = 3;
  req.prb_quota = 52;
  for (uint32_t i = 0; i < 20; ++i) {
    codec::UeInfo ue;
    ue.rnti = 0x4601 + i;
    ue.mcs = static_cast<uint32_t>(rng.range(0, 28));
    ue.buffer_bytes = static_cast<uint32_t>(rng.range(1, 1 << 20));
    ue.tbs_per_prb = ran::transport_block_bits(ue.mcs, 1);
    ue.avg_tput_bps = rng.uniform() * 3e7;
    ue.achievable_bps = rng.uniform() * 4.5e7;
    req.ues.push_back(ue);
  }
  std::vector<uint8_t> bytes;
  codec::wire::encode_request(req, bytes);
  return bytes;
}

void run_plugin_bench(benchmark::State& state, const std::string& src,
                      const std::string& entry, const std::vector<uint8_t>& input,
                      bool optimize) {
  auto p = load(src, optimize);
  std::vector<uint8_t> out;
  for (auto _ : state) {
    Status r = p->call(entry, input, out);
    benchmark::DoNotOptimize(r);
  }
  state.SetLabel((optimize ? "opt " : "noopt ") +
                 std::to_string(p->last_call_stats().instrs_retired) + " instr/call");
}

void BM_PfPlugin(benchmark::State& state) {
  run_plugin_bench(state, sched::plugins::scheduler_source("pf"), "schedule",
                   sched_input(), state.range(0) != 0);
}

// Folding-heavy kernel: constants and identities inside a hot loop.
const char* kFoldHeavy = R"(
  export fn run() -> i32 {
    var acc: i32 = 0;
    var i: i32 = 0;
    while (i < 5000) {
      acc = acc + i * (3 + 4 - 6) + (100 / 10) - (0 * 7) + i * 1;
      i = i + 1 + 0;
    }
    store32(0, acc);
    output_write(0, 4);
    return 0;
  }
)";

void BM_FoldHeavy(benchmark::State& state) {
  run_plugin_bench(state, kFoldHeavy, "run", {}, state.range(0) != 0);
}

BENCHMARK(BM_PfPlugin)->Arg(0)->Arg(1);
BENCHMARK(BM_FoldHeavy)->Arg(0)->Arg(1);

}  // namespace
