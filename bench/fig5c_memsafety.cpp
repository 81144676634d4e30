// Figure 5c — Memory safety: leak inside the sandbox vs on the host.
//
// Paper setup (§5D): a scheduler that allocates on every invocation and
// never frees. Run (a) inside a Wasm plugin — the gNB host's memory stays
// stable because the leak is confined to the plugin's linear memory, which
// is capped and reclaimed wholesale on plugin unload; and (b) natively on
// the host — memory grows linearly, a classic leak.
//
// We run both arms for 80 simulated seconds (one scheduler call per ms,
// leaking 64 KiB per call). The "host" arm routes allocations through the
// byte-accounting TrackedHeap (a real in-process leak of this size would be
// ~5 GiB); the plugin arm is a real Wasm instance growing its own memory.
#include <cstdio>

#include "bench/bench_util.h"
#include "common/tracked_alloc.h"

using namespace waran;

int main() {
  plugin::PluginManager mgr;
  auto leak = sched::plugins::faulty("leak");
  if (!leak.ok()) {
    std::fprintf(stderr, "FATAL: %s\n", leak.error().message.c_str());
    return 1;
  }
  if (auto st = mgr.install("leak", *leak); !st.ok()) {
    std::fprintf(stderr, "FATAL: %s\n", st.error().message.c_str());
    return 1;
  }

  TrackedHeap host_heap;
  constexpr uint32_t kLeakBytesPerCall = 65536;
  constexpr int kSeconds = 80;
  constexpr int kCallsPerSecond = 1000;

  size_t plugin_base = mgr.plugin("leak")->memory_bytes();

  std::printf("# Fig 5c — Memory increase while running leaky scheduler code\n");
  std::printf("# 1 call/ms, 64 KiB leaked per call, 80 s\n");
  std::printf("%6s %22s %22s\n", "t[s]", "plugin-arm [MiB]", "host-arm [MiB]");

  double plugin_final = 0, host_final = 0;
  std::vector<uint8_t> out;
  for (int sec = 1; sec <= kSeconds; ++sec) {
    for (int call = 0; call < kCallsPerSecond; ++call) {
      // Sandbox arm: the leak lives inside the plugin's linear memory.
      Status r = mgr.call("leak", "schedule", {}, out);
      if (!r.ok()) {
        std::fprintf(stderr, "FATAL: plugin call failed: %s\n",
                     r.error().message.c_str());
        return 1;
      }
      // Host arm: the same allocation pattern against the host heap.
      auto h = host_heap.allocate(kLeakBytesPerCall);
      (void)h;
    }
    // What an RSS probe of the gNB process would attribute to each arm.
    double plugin_mib =
        static_cast<double>(mgr.plugin("leak")->memory_bytes() - plugin_base) /
        (1024.0 * 1024.0);
    double host_mib = static_cast<double>(host_heap.live_bytes()) / (1024.0 * 1024.0);
    plugin_final = plugin_mib;
    host_final = host_mib;
    if (sec % 5 == 0 || sec == 1) {
      std::printf("%6d %22.2f %22.2f\n", sec, plugin_mib, host_mib);
    }
  }

  std::printf("\n# Plugin arm: growth stops at the sandbox memory cap (%zu KiB pages);\n",
              mgr.plugin("leak")->memory_bytes() / 1024);
  std::printf("# unloading the plugin reclaims all of it at once.\n");
  bool plugin_flat = plugin_final < 8.0;           // capped around 4 MiB
  bool host_linear = host_final > 4000.0;          // ~5 GiB after 80 s
  std::printf("# host leak after %d s: %.0f MiB (linear) | plugin: %.2f MiB (flat)\n",
              kSeconds, host_final, plugin_final);
  std::printf("# shape %s: sandbox confines the leak, host arm grows without bound\n",
              (plugin_flat && host_linear) ? "OK" : "DEGRADED");

  // And the reclamation: dropping the plugin releases its whole memory.
  bench::check(mgr.remove("leak"), "remove leak plugin");
  std::printf("# plugin removed: leaked sandbox memory fully reclaimed\n");
  return (plugin_flat && host_linear) ? 0 : 1;
}
