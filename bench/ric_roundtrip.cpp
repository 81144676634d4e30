// Near-RT RIC blueprint harness (paper §4B / Fig. 4 — design contribution,
// no paper figure): measures the full WA-RAN control loop
//
//   gNB MAC state -> indication -> comm plugin (frame) -> transport ->
//   comm plugin (unframe) -> xApp plugins -> control -> frame -> transport
//   -> unframe -> control-dispatch plugin -> host functions -> gNB knobs
//
// Reports (1) closed-loop convergence of the SLA xApp driving a slice to
// its target, (2) round-trip latency percentiles through five sandbox
// crossings, and (3) the vendor interop shim's conversion throughput.
#include <cstdio>
#include <memory>

#include "bench/bench_util.h"
#include "common/stats.h"
#include "ric/gnb_agent.h"
#include "ric/near_rt_ric.h"
#include "ric/plugin_sources.h"
#include "ric/quota_inter.h"
#include "sched/native.h"

using namespace waran;

int main() {
  ran::GnbMac mac(ran::MacConfig{});
  auto quotas = std::make_unique<ric::QuotaTableInterScheduler>();
  ric::QuotaTableInterScheduler* quota_table = quotas.get();
  mac.set_inter_scheduler(std::move(quotas));

  ran::SliceConfig slice;
  slice.slice_id = 1;
  slice.target_rate_bps = 12e6;
  mac.add_slice(slice, std::make_unique<sched::RrScheduler>());
  for (int i = 0; i < 4; ++i) {
    mac.add_ue(1, ran::Channel::pinned_mcs(26), ran::TrafficSource::full_buffer());
  }
  quota_table->set_quota(1, 2);  // start starved

  ric::Duplex link;
  ric::GnbAgent agent(0, mac, quota_table, link, ric::Duplex::Side::kA);
  ric::NearRtRic ric(link, ric::Duplex::Side::kB);

  auto comm = ric::plugin_sources::comm_framing();
  auto ctl = ric::plugin_sources::control_dispatch();
  auto sla = ric::plugin_sources::sla_xapp();
  auto steer = ric::plugin_sources::steer_xapp();
  if (!comm.ok() || !ctl.ok() || !sla.ok() || !steer.ok()) {
    std::fprintf(stderr, "FATAL: plugin compilation failed\n");
    return 1;
  }
  bench::check(agent.load_comm_plugin(*comm), "agent comm");
  bench::check(agent.load_control_plugin(*ctl), "agent ctl");
  bench::check(ric.load_comm_plugin(*comm), "ric comm");
  if (!ric.add_xapp("sla", *sla).ok() || !ric.add_xapp("steer", *steer).ok()) {
    std::fprintf(stderr, "FATAL: xApp registration failed\n");
    return 1;
  }

  std::printf("# RIC closed loop — SLA xApp steering a starved slice to 12 Mb/s\n");
  std::printf("%8s %12s %10s\n", "round", "rate[Mb/s]", "loop[us]");

  QuantileAcc loop_us;
  double final_rate = 0;
  for (int round = 1; round <= 60; ++round) {
    bench::check(mac.run_slots(100), "run_slots");
    double t0 = bench::now_us();
    bench::check(agent.send_indication(), "send_indication");
    bench::check(ric.poll(), "ric poll");
    bench::check(agent.poll(), "agent poll");
    double dt = bench::now_us() - t0;
    loop_us.add(dt);
    final_rate = mac.slice_rate_bps(1) / 1e6;
    if (round % 5 == 0) std::printf("%8d %12.2f %10.1f\n", round, final_rate, dt);
  }

  std::printf("\n# Control-loop latency through 5 sandbox crossings\n");
  std::printf("p50 %.1f us | p99 %.1f us | max %.1f us (near-RT budget: 10-1000 ms)\n",
              loop_us.quantile(0.5), loop_us.quantile(0.99), loop_us.max());

  bool converged = final_rate > 10.0 && final_rate < 16.0;
  std::printf("# SLA convergence %s: %.2f Mb/s vs 12 Mb/s target; quota updates: %llu\n",
              converged ? "OK" : "DEGRADED", final_rate,
              static_cast<unsigned long long>(agent.stats().quota_updates));

  // Vendor interop shim throughput (8-bit -> 12-bit CQI widening).
  plugin::PluginManager shim_mgr;
  auto widen = ric::plugin_sources::vendor_widen();
  bench::check(widen.ok() ? Status() : Status(widen.error()), "widen compile");
  bench::check(shim_mgr.install("widen", *widen), "widen install");
  std::vector<uint8_t> vendor_a(4 + 3 * 64);
  vendor_a[0] = 64;
  QuantileAcc widen_us;
  std::vector<uint8_t> widened;
  for (int i = 0; i < 2000; ++i) {
    double t0 = bench::now_us();
    Status st = shim_mgr.call("widen", "widen", vendor_a, widened);
    widen_us.add(bench::now_us() - t0);
    if (!st.ok()) {
      std::fprintf(stderr, "FATAL: widen failed\n");
      return 1;
    }
  }
  std::printf("# interop shim: 64-UE CQI report widened in p50 %.1f us / p99 %.1f us\n",
              widen_us.quantile(0.5), widen_us.quantile(0.99));
  return converged ? 0 : 1;
}
