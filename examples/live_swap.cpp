// Live scheduler swap (the paper's §5C flexibility experiment as a story):
// an MVNO changes its scheduling policy three times while its UEs stream —
// the gNB never stops, no UE reattaches, and a botched upload is rejected
// without touching the running scheduler.
//
// Run: ./build/examples/live_swap
#include <cstdio>
#include <memory>

#include "plugin/manager.h"
#include "ran/mac.h"
#include "sched/native.h"
#include "sched/plugins.h"
#include "sched/wasm_sched.h"

using namespace waran;

int main() {
  ran::MacConfig cfg;
  cfg.pf_time_constant_slots = 2000;
  ran::GnbMac mac(cfg);
  mac.set_inter_scheduler(std::make_unique<sched::TargetRateInterScheduler>(1000.0));

  plugin::PluginManager mgr;
  auto mt = sched::plugins::scheduler("mt");
  if (!mt.ok() || !mgr.install("mvno", *mt).ok()) return 1;

  ran::SliceConfig slice;
  slice.slice_id = 1;
  slice.target_rate_bps = 22e6;
  mac.add_slice(slice, std::make_unique<sched::WasmIntraScheduler>(mgr, "mvno"));

  const uint32_t mcs[] = {20, 24, 28};
  uint32_t rnti[3];
  for (int i = 0; i < 3; ++i) {
    rnti[i] = mac.add_ue(1, ran::Channel::pinned_mcs(mcs[i]),
                         ran::TrafficSource::full_buffer());
  }

  auto report = [&](const char* label) {
    std::printf("%-34s", label);
    for (int i = 0; i < 3; ++i) {
      std::printf("  MCS%u: %5.2f Mb/s", mcs[i], mac.ue(rnti[i])->rate_bps(mac.now_s()) / 1e6);
    }
    std::printf("\n");
  };

  std::printf("== Phase 1: Maximum Throughput (the paper's starvation case) ==\n");
  if (!mac.run_slots(8000).ok()) return 1;
  report("MT after 8 s");

  std::printf("\n== A corrupt plugin upload is rejected before going live ==\n");
  std::vector<uint8_t> garbage = {0xde, 0xad, 0xbe, 0xef};
  auto bad_swap = mgr.swap("mvno", garbage);
  std::printf("swap(corrupt bytes) -> %s\n",
              bad_swap.ok() ? "UNEXPECTED OK" : bad_swap.error().message.c_str());
  if (!mac.run_slots(1000).ok()) return 1;
  report("old scheduler still serving");

  std::printf("\n== Phase 2: swap to Proportional Fair, mid-stream ==\n");
  auto pf = sched::plugins::scheduler("pf");
  if (!pf.ok() || !mgr.swap("mvno", *pf).ok()) return 1;
  if (!mac.run_slots(2000).ok()) return 1;
  report("PF after 2 s (starved UE revived)");
  if (!mac.run_slots(8000).ok()) return 1;
  report("PF after 10 s");

  std::printf("\n== Phase 3: swap to Round Robin ==\n");
  auto rr = sched::plugins::scheduler("rr");
  if (!rr.ok() || !mgr.swap("mvno", *rr).ok()) return 1;
  if (!mac.run_slots(8000).ok()) return 1;
  report("RR after 8 s (equal PRB shares)");

  std::printf("\nslot 'mvno': %llu calls, %llu successful swaps — gNB uptime 100%%,\n"
              "no UE detached, scheduler faults answered by host fallback: %llu\n",
              static_cast<unsigned long long>(mgr.cost("mvno")->calls()),
              static_cast<unsigned long long>(mgr.health("mvno")->swaps),
              static_cast<unsigned long long>(mac.slice_stats(1)->scheduler_faults));
  return 0;
}
