// waran_obs — runs the instrumented MVNO-slicing deployment and exports the
// observability surfaces: a merged cross-cell Chrome trace_event JSON
// (chrome://tracing / Perfetto), a Prometheus text snapshot, a JSON
// snapshot, a flight-recorder bundle, and the deployment's anomalies. This is
// the CLI face of waran::obs and the CI smoke check for the whole telemetry
// pipeline.
//
// Usage:
//   waran_obs [--cells N] [--slots N] [--seed S] [--virtual-time]
//             [--trace FILE] [--prom FILE] [--json FILE] [--flight FILE]
//             [--check] [--quiet]
//
// The run is the paper's §4A MVNO-slicing use case on a threaded N-cell
// rt::GnbDeployment (default 1 cell, 600 slots) under one near-RT RIC with
// the SLA xApp, and the SLO engine judging 100-slot windows. Three MVNOs
// bring their own Wasm intra-slice schedulers; on cell 0 a fourth "rogue"
// MVNO ships a faulty plugin (out-of-bounds access) that the sandbox
// contains and the manager quarantines; midway through the run a
// corrupted-frame burst on cell 0's E2 link exercises the comm plugins'
// rejection path.
//
// --virtual-time runs on the rt virtual clock: the same seed gives the same
// exports byte for byte. Without it the run is on the real clock, so plugin
// wall-time histograms and trace spans carry real durations.
//
// Exports: --trace writes the merged trace (per-cell process tracks plus
// the ric track, ring drop accounting in the metadata); --prom the labeled
// Prometheus snapshot; --json the hierarchical fleet rollup (cell -> gNB ->
// fleet), the latest HealthReport, the RIC's reconstructed view and the
// registry snapshot under "metrics"; --flight a flight-recorder bundle
// (reason records whether an SLO window breached).
//
// --check self-validates the exports and exits non-zero on violation:
// well-formed Prometheus text with the expected families, a parseable trace
// with nested mac/wasm/host spans on every cell's track and the ric track,
// parseable JSON, a flight bundle with its replay line, journaled
// anomalies, an exact fleet slot count, and the RIC's wire-reconstructed
// fleet view equal to the deployment's ground truth. With --virtual-time it
// also runs the deployment a second time and requires byte-identical trace,
// health, rollup and bundle.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "codec/json.h"
#include "common/stats.h"
#include "obs/anomaly.h"
#include "obs/fleet.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "plugin/manager.h"
#include "ran/mac.h"
#include "ric/gnb_agent.h"
#include "ric/near_rt_ric.h"
#include "ric/transport.h"
#include "rt/deployment.h"
#include "sched/plugins.h"

using namespace waran;

namespace {

constexpr uint32_t kReportPeriod = 20;  ///< slots between E2 indications

struct Options {
  uint32_t cells = 1;
  uint32_t slots = 600;
  uint64_t seed = 7;  // flight bundles replay from it
  bool virtual_time = false;
  std::string trace_path;
  std::string prom_path;
  std::string json_path;
  std::string flight_path;
  bool check = false;
  bool quiet = false;
};

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--cells N] [--slots N] [--seed S] [--virtual-time]\n"
               "          [--trace FILE] [--prom FILE] [--json FILE] [--flight FILE]\n"
               "          [--check] [--quiet]\n",
               argv0);
  return 2;
}

bool write_file(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary);
  out << content;
  return out.good();
}

/// Everything one deployment run exports, captured so --check can run the
/// whole thing twice and compare byte-for-byte.
struct Run {
  bool ok = false;
  std::string trace;        ///< merged cross-cell Chrome trace (obs/fleet.h)
  std::string health_json;  ///< latest HealthReport
  std::string json;         ///< rollup + health + RIC view + registry snapshot
  std::string prom;
  std::string flight;       ///< flight-recorder bundle
  uint64_t fleet_slots = 0;
  uint64_t telemetry_updates = 0;
  uint64_t anomalies = 0;
  bool ric_matches = false;  ///< RIC fleet view == shipped ground truth
};

void print_run(const Options& opt, rt::GnbDeployment& dep, const Run& run) {
  std::printf("waran_obs: %u cell%s x %u slots (seed %llu, %s time)\n", opt.cells,
              opt.cells == 1 ? "" : "s", opt.slots,
              static_cast<unsigned long long>(opt.seed),
              opt.virtual_time ? "virtual" : "real");
  for (uint32_t i = 0; i < opt.cells; ++i) {
    const obs::TraceRing* ring = dep.trace_ring(i);
    const obs::CellTelemetry& t = dep.fleet().cell_total(i);
    std::printf(
        "  cell %u: %llu slots, %llu PRBs granted, %llu plugin calls, "
        "trace %llu recorded / %llu dropped\n",
        i, static_cast<unsigned long long>(t.slots),
        static_cast<unsigned long long>(t.prb_granted),
        static_cast<unsigned long long>(t.plugin_calls),
        static_cast<unsigned long long>(ring != nullptr ? ring->writes() : 0),
        static_cast<unsigned long long>(ring != nullptr ? ring->dropped() : 0));
  }
  const obs::CellTelemetry fleet = dep.fleet().fleet_rollup();
  std::printf("  fleet rollup: %llu slots, %llu PRBs granted, %u cells merged\n",
              static_cast<unsigned long long>(fleet.slots),
              static_cast<unsigned long long>(fleet.prb_granted), fleet.cells_merged);
  const obs::HealthReport& health = dep.last_health();
  std::printf("  slo: %zu objectives, %llu breached, %llu unhealthy windows"
              " (last window %s)\n",
              health.verdicts.size(), static_cast<unsigned long long>(health.breaches),
              static_cast<unsigned long long>(dep.slo_breach_windows()),
              health.healthy ? "healthy" : "UNHEALTHY");
  const ric::RicStats& rs = dep.ric().stats();
  std::printf("  ric: %llu indications, %llu telemetry updates, %llu frames rejected, "
              "%llu xApp faults, reconstruction %s\n",
              static_cast<unsigned long long>(rs.indications_processed),
              static_cast<unsigned long long>(rs.telemetry_updates),
              static_cast<unsigned long long>(rs.frames_rejected),
              static_cast<unsigned long long>(rs.xapp_faults),
              run.ric_matches ? "== ground truth" : "MISMATCH");

  std::printf("\n%-20s %8s %8s %10s %10s %9s %6s\n", "cell 0 plugin", "calls", "faults",
              "p50_ns", "p99_ns", "fuel/call", "state");
  for (plugin::PluginManager* m :
       {&dep.sched_plugins(0), &dep.agent(0).plugins(), &dep.ric().plugins()}) {
    for (const std::string& s : m->slot_names()) {
      const plugin::SlotHealth* h = m->health(s);
      const CallCostAcc* c = m->cost(s);
      if (h == nullptr || c == nullptr) continue;
      std::printf("%-20s %8llu %8llu %10.0f %10.0f %9.0f %6s\n",
                  (m->domain() + "/" + s).c_str(),
                  static_cast<unsigned long long>(c->calls()),
                  static_cast<unsigned long long>(h->faults()), c->wall_ns().quantile(0.50),
                  c->wall_ns().quantile(0.99),
                  c->calls() ? static_cast<double>(c->total_fuel()) /
                                   static_cast<double>(c->calls())
                             : 0.0,
                  h->quarantined ? "QUAR" : "ok");
    }
  }
  std::printf("\ncell 0 slice rates:");
  const ran::GnbMac& mac = dep.mac(0);
  for (uint32_t id : mac.slice_ids()) {
    std::printf(" slice %u: %.2f Mb/s", id, mac.slice_rate_bps(id) / 1e6);
  }

  const std::vector<obs::AnomalyRecord> anomalies = dep.anomalies();
  std::printf("\n\nanomalies (%zu records, newest last):\n", anomalies.size());
  const size_t start = anomalies.size() > 8 ? anomalies.size() - 8 : 0;
  for (size_t i = start; i < anomalies.size(); ++i) {
    const obs::AnomalyRecord& a = anomalies[i];
    std::printf("  [%zu] slot %llu %s/%s %s: %s\n", i,
                static_cast<unsigned long long>(a.slot), a.domain.c_str(),
                a.source.c_str(), obs::to_string(a.kind), a.detail.c_str());
  }
}

Run run_once(const Options& opt, bool print) {
  Run out;
  // Runs accumulate into the global registry; reset so repeated runs are
  // comparable byte-for-byte.
  auto& reg = obs::MetricsRegistry::global();
  reg.reset_values();

  rt::DeploymentConfig dc;
  dc.cells = opt.cells;
  dc.seed = opt.seed;
  dc.threaded = true;
  dc.virtual_time = opt.virtual_time;
  dc.report_period_slots = kReportPeriod;
  dc.trace_capacity = 1 << 12;
  dc.slo_window_slots = std::min(100u, opt.slots);
  // The rogue MVNO's slice: a benign scheduler until cell 0's is swapped.
  dc.slices.push_back({4, "rogue-co", "rr", 1e6, 4, 1});
  rt::GnbDeployment dep(dc);
  if (!dep.status().ok()) {
    std::fprintf(stderr, "deployment failed: %s\n", dep.status().error().message.c_str());
    return out;
  }
  obs::FlightContext fctx = dep.flight_context();
  fctx.scenario = "waran_obs";
  dep.set_flight_context(fctx);

  // The rogue's scheduler on cell 0 reads out of bounds every call. The
  // trap is contained, counted, journaled, and the slot ends up quarantined
  // while the MAC serves the slice with host RR.
  auto rogue = sched::plugins::faulty("oob");
  if (!rogue.ok() || !dep.sched_plugins(0).swap("rogue-co", *rogue).ok()) {
    std::fprintf(stderr, "failed to install the rogue plugin\n");
    return out;
  }

  // Corrupted-frame burst: for one report period mid-run every frame on
  // cell 0's link is corrupted, and the comm plugins reject them inside the
  // sandbox (anomaly kind frame_rejected). At least one clean period
  // follows, so the run ends on indications the RIC accepted.
  const uint32_t periods = opt.slots / kReportPeriod;
  const uint32_t burst_at = periods >= 3 ? periods / 2 * kReportPeriod : opt.slots;
  Status st = dep.run_slots(burst_at);
  if (st.ok() && burst_at < opt.slots) {
    dep.link(0).add_fault_stage([](std::vector<uint8_t>& frame, ric::Duplex::Side) {
      if (frame.size() > 14) frame[14] ^= 0x5a;
      return ric::Duplex::Fault{ric::Duplex::FaultAction::kCorrupt};
    });
    st = dep.run_slots(kReportPeriod);
    dep.link(0).clear_fault_stages();
    if (st.ok()) st = dep.run_slots(opt.slots - burst_at - kReportPeriod);
  }
  if (!st.ok()) {
    std::fprintf(stderr, "run_slots failed: %s\n", st.error().message.c_str());
    return out;
  }

  // The RIC-reconstruction invariant: the fleet view rebuilt purely from
  // telemetry blocks that crossed the E2 wire must equal the exact
  // summaries the cells last shipped.
  out.ric_matches = dep.ric().fleet_view() == dep.shipped_view();
  out.telemetry_updates = dep.ric().stats().telemetry_updates;
  for (const obs::AnomalyJournal* j : dep.journals()) out.anomalies += j->total();

  // Workers are parked between run_slots calls, so the coordinator may
  // collect every cell for the final ground-truth rollup.
  for (uint32_t i = 0; i < opt.cells; ++i) (void)dep.fleet().collect_cell(i);
  out.fleet_slots = dep.fleet().fleet_rollup().slots;

  out.trace = dep.export_merged_trace();
  out.health_json = dep.last_health().to_json();
  out.prom = reg.to_prometheus();
  out.json = "{\"fleet\":" + dep.fleet().to_json() + ",\"health\":" + out.health_json +
             ",\"ric_view\":" + dep.ric().fleet_view().to_json() +
             ",\"metrics\":" + reg.to_json() + "}";
  out.flight =
      dep.capture_flight_bundle(dep.slo_breach_windows() > 0 ? "slo_breach" : "export");

  if (print) print_run(opt, dep, out);
  out.ok = true;
  return out;
}

int check(const Options& opt, const Run& first) {
  int failures = 0;
  auto fail = [&failures](const std::string& what) {
    std::fprintf(stderr, "check FAILED: %s\n", what.c_str());
    ++failures;
  };

  // Prometheus: every sample line is `name[{labels}] value`, and both the
  // per-plugin and the fleet-plane families are present.
  const std::string& prom = first.prom;
  if (prom.empty()) fail("Prometheus output is empty");
  bool saw_type = false;
  for (size_t pos = 0; pos < prom.size();) {
    size_t end = prom.find('\n', pos);
    if (end == std::string::npos) {
      fail("Prometheus output missing trailing newline");
      break;
    }
    std::string line = prom.substr(pos, end - pos);
    pos = end + 1;
    if (line.empty()) continue;
    if (line.rfind("# TYPE ", 0) == 0) {
      saw_type = true;
      continue;
    }
    if (line[0] == '#') continue;
    size_t sp = line.rfind(' ');
    if (sp == std::string::npos || sp == 0 || sp + 1 >= line.size()) {
      fail("malformed Prometheus line: " + line);
      continue;
    }
    const std::string value = line.substr(sp + 1);
    char* endp = nullptr;
    std::strtod(value.c_str(), &endp);
    if (endp == value.c_str() || *endp != '\0') fail("non-numeric Prometheus value: " + line);
  }
  if (!saw_type) fail("Prometheus output has no # TYPE lines");
  for (const char* family :
       {"waran_plugin_calls_total", "waran_plugin_traps_total",
        "waran_plugin_fuel_used_total", "waran_plugin_wall_ns",
        "waran_mac_prb_granted_total", "waran_mac_slots_total",
        "waran_e2_encoded_messages_total", "waran_anomaly_total",
        "waran_cell_slots_total", "waran_cell_slot_wall_ns"}) {
    if (prom.find(family) == std::string::npos) {
      fail(std::string("Prometheus output missing family ") + family);
    }
  }

  // Merged trace: parseable, nested mac/wasm/host spans, events on every
  // cell's track plus the ric track, and per-ring drop accounting that adds
  // up.
  auto trace_parsed = codec::Json::parse(first.trace);
  if (!trace_parsed.ok()) {
    fail("merged trace does not parse as JSON");
  } else {
    const codec::Json& events = (*trace_parsed)["traceEvents"];
    if (!events.is_array() || events.size() == 0) {
      fail("merged trace has no events");
    } else {
      bool saw_slot = false, saw_wasm = false, saw_host = false;
      std::vector<bool> saw_pid(opt.cells + 2, false);
      for (const codec::Json& e : events.as_array()) {
        const std::string& cat = e["cat"].as_string();
        saw_slot = saw_slot || cat == "mac";
        saw_wasm = saw_wasm || cat == "wasm";
        saw_host = saw_host || cat == "host";
        const codec::Json& pid = e["pid"];
        if (!pid.is_number()) continue;
        auto p = static_cast<size_t>(pid.as_number());
        if (p < saw_pid.size()) saw_pid[p] = true;
      }
      if (!saw_slot) fail("merged trace has no MAC slot spans");
      if (!saw_wasm) fail("merged trace has no Wasm call spans");
      if (!saw_host) fail("merged trace has no host-call spans");
      for (uint32_t i = 1; i <= opt.cells; ++i) {
        if (!saw_pid[i]) {
          fail("merged trace has no events for cell track pid " + std::to_string(i));
        }
      }
      if (!saw_pid[opt.cells + 1]) fail("merged trace has no ric-track events");
    }
    const codec::Json& rings = (*trace_parsed)["metadata"]["rings"];
    if (!rings.is_array() || rings.size() != opt.cells + 1) {
      fail("merged trace metadata must list one ring per cell plus the ric ring");
    } else {
      for (const codec::Json& r : rings.as_array()) {
        if (!r["recorded"].is_number() || !r["retained"].is_number() ||
            !r["dropped"].is_number() ||
            r["recorded"].as_number() !=
                r["retained"].as_number() + r["dropped"].as_number()) {
          fail("merged trace ring drop accounting does not balance");
        }
      }
    }
  }

  if (!codec::Json::parse(first.json).ok()) fail("JSON snapshot does not parse");

  // Flight bundle: parseable, self-describing, and carrying the replay
  // command that reproduces this exact run.
  auto flight_parsed = codec::Json::parse(first.flight);
  if (!flight_parsed.ok()) {
    fail("flight bundle does not parse as JSON");
  } else {
    if (!(*flight_parsed)["waran_flight_bundle"].is_number()) {
      fail("flight bundle missing schema marker");
    }
    const std::string& replay = (*flight_parsed)["replay"].as_string();
    for (const char* flag : {"--cells", "--slots"}) {
      if (replay.find(flag) == std::string::npos) {
        fail(std::string("flight bundle replay command missing ") + flag);
      }
    }
  }

  if (first.anomalies == 0) fail("no anomaly was journaled despite injected faults");

  // Hierarchical rollup: each cell's counter increments once per run slot.
  if (first.fleet_slots != static_cast<uint64_t>(opt.cells) * opt.slots) {
    fail("fleet rollup slots != cells * slots");
  }

  if (first.telemetry_updates == 0) fail("RIC received no telemetry blocks");
  if (!first.ric_matches) fail("RIC fleet view != shipped ground truth");

  // Determinism: on virtual time the entire export surface must be
  // byte-identical on a second run with the same seed.
  if (opt.virtual_time) {
    const Run second = run_once(opt, /*print=*/false);
    if (!second.ok) {
      fail("second deterministic run failed");
    } else {
      if (second.trace != first.trace) fail("merged trace is not byte-identical across runs");
      if (second.health_json != first.health_json) {
        fail("HealthReport is not identical across runs");
      }
      if (second.json != first.json) fail("rollup JSON is not identical across runs");
      if (second.flight != first.flight) {
        fail("flight bundle is not byte-identical across runs");
      }
    }
  }

  if (failures != 0) return 1;
  if (!opt.quiet) std::printf("\ncheck OK: all exports well-formed\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--virtual-time") {
      opt.virtual_time = true;
      continue;
    }
    if (arg == "--check") {
      opt.check = true;
      continue;
    }
    if (arg == "--quiet") {
      opt.quiet = true;
      continue;
    }
    if (i + 1 >= argc) return usage(argv[0]);
    const char* v = argv[++i];
    if (arg == "--cells") {
      opt.cells = static_cast<uint32_t>(std::strtoul(v, nullptr, 10));
    } else if (arg == "--slots") {
      opt.slots = static_cast<uint32_t>(std::strtoul(v, nullptr, 10));
    } else if (arg == "--seed") {
      opt.seed = std::strtoull(v, nullptr, 0);
    } else if (arg == "--trace") {
      opt.trace_path = v;
    } else if (arg == "--prom") {
      opt.prom_path = v;
    } else if (arg == "--json") {
      opt.json_path = v;
    } else if (arg == "--flight") {
      opt.flight_path = v;
    } else {
      return usage(argv[0]);
    }
  }
  if (opt.cells == 0 || opt.slots == 0) return usage(argv[0]);

  const Run first = run_once(opt, !opt.quiet);
  if (!first.ok) return 1;
  for (const auto& [path, content] :
       {std::pair{&opt.trace_path, &first.trace}, std::pair{&opt.prom_path, &first.prom},
        std::pair{&opt.json_path, &first.json}, std::pair{&opt.flight_path, &first.flight}}) {
    if (!path->empty() && !write_file(*path, *content)) return 1;
  }
  return opt.check ? check(opt, first) : 0;
}
