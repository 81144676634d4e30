#include "chaos/harness.h"

#include <algorithm>
#include <memory>
#include <set>
#include <utility>

#include "common/tracked_alloc.h"
#include "obs/anomaly.h"
#include "obs/metrics.h"
#include "plugin/manager.h"
#include "plugin/plugin.h"
#include "ran/mac.h"
#include "ric/gnb_agent.h"
#include "ric/near_rt_ric.h"
#include "ric/transport.h"
#include "rt/deployment.h"
#include "sched/plugins.h"
#include "wcc/compiler.h"

namespace waran::chaos {

namespace {

// The grower exercises the spec-conformant growth-denial path: a denied
// memory.grow answers -1 and the plugin must carry on, reporting the denial
// through its output instead of trapping.
constexpr char kGrowerSource[] = R"W(
export fn tick() -> i32 {
  var got: i32 = memory_grow(1);
  var denied: i32 = 0;
  if (got < 0) {
    denied = 1;
  }
  store32(64, denied);
  output_write(64, 4);
  return 0;
}
)W";

// Pure-arithmetic workload for the warm-call probe: no ABI imports, so a
// direct Instance::call must not touch the host heap once warm.
constexpr char kProbeSource[] = R"W(
export fn work() -> i32 {
  var i: i32 = 0;
  var acc: i32 = 0;
  while (i < 48) {
    acc = acc + i * 3;
    i = i + 1;
  }
  return acc;
}
)W";

/// Decorator around a slice's real (Wasm) scheduler that injects
/// output-level faults on the plan's schedule: forged grants the host must
/// sanitize, empty allocation lists, and outright errors that force the
/// MAC's host-side fallback.
class ChaosIntraScheduler final : public ran::IntraSliceScheduler {
 public:
  ChaosIntraScheduler(std::unique_ptr<ran::IntraSliceScheduler> inner, FaultPlan& plan,
                      uint32_t cell, uint32_t slice_id)
      : inner_(std::move(inner)),
        plan_(plan),
        site_("cell" + std::to_string(cell) + " slice " + std::to_string(slice_id)),
        name_(std::string("chaos:") + inner_->name()) {}

  Result<codec::SchedResponse> schedule(const codec::SchedRequest& req) override {
    std::optional<FaultKind> fault = plan_.draw_sched();
    if (!fault) return inner_->schedule(req);
    switch (*fault) {
      case FaultKind::kSchedEmpty:
        plan_.note_applied(FaultKind::kSchedEmpty, site_);
        return codec::SchedResponse{};
      case FaultKind::kSchedError:
        plan_.note_applied(FaultKind::kSchedError, site_);
        return Error::internal("chaos: injected scheduler error");
      default: {
        // Garbage rides on a successful inner decision; if the sandbox
        // crossing itself faulted (a call-site injection won the race) the
        // garbage is not applied and not counted.
        auto resp = inner_->schedule(req);
        if (!resp.ok()) return resp;
        plan_.note_applied(FaultKind::kSchedGarbage, site_);
        codec::SchedResponse out;
        out.allocs.push_back(codec::SchedAlloc{0x1, 1});  // foreign RNTI
        out.allocs.insert(out.allocs.end(), resp->allocs.begin(), resp->allocs.end());
        return out;
      }
    }
  }

  const char* name() const override { return name_.c_str(); }

 private:
  std::unique_ptr<ran::IntraSliceScheduler> inner_;
  FaultPlan& plan_;
  std::string site_;
  std::string name_;
};

/// Call-site interceptor drawing from `plan` for the named domain. Only
/// `eligible` slots are touched.
plugin::PluginManager::CallInterceptor make_call_interceptor(
    FaultPlan& plan, std::string domain, std::set<std::string> eligible,
    bool allow_deadline) {
  return [&plan, domain = std::move(domain), eligible = std::move(eligible),
          allow_deadline](std::string_view slot_view,
                          std::string_view) -> plugin::PluginManager::CallIntercept {
    plugin::PluginManager::CallIntercept out;
    const std::string slot(slot_view);
    if (!eligible.contains(slot)) return out;
    auto fault = plan.draw_call(domain, slot, allow_deadline);
    if (!fault) return out;
    switch (fault->kind) {
      case FaultKind::kFuelStarve:
        out.fuel = 1;  // first block charge exhausts: real engine trap
        break;
      case FaultKind::kDeadlineOverrun:
        // A call cut off mid-execution: 24 fuel lets it run a few blocks
        // before the engine reports genuine exhaustion, on real and on
        // virtual time alike.
        out.fuel = 24;
        break;
      default:
        out.fail = Error::trap("chaos: injected trap");
        break;
    }
    return out;
  };
}

/// Duplex fault stage drawing from `plan` (one draw per frame in flight).
ric::Duplex::FaultStage make_link_stage(FaultPlan& plan) {
  return [&plan](std::vector<uint8_t>& frame,
                 ric::Duplex::Side) -> ric::Duplex::Fault {
    auto fault = plan.draw_link();
    if (!fault) return {};
    switch (fault->kind) {
      case FaultKind::kLinkCorrupt: {
        // Flip one payload bit (past the 12-byte magic/len/checksum
        // header) so the sandboxed unframe rejects on checksum — never a
        // wild length that could send the plugin reading out of bounds.
        size_t lo = frame.size() > 12 ? 12 : 0;
        size_t off = lo + fault->entropy % (frame.size() - lo);
        frame[off] ^= static_cast<uint8_t>(1u << ((fault->entropy >> 32) % 8));
        return {ric::Duplex::FaultAction::kCorrupt};
      }
      case FaultKind::kLinkDrop:
        return {ric::Duplex::FaultAction::kDrop};
      case FaultKind::kLinkDuplicate:
        return {ric::Duplex::FaultAction::kDuplicate};
      default:
        return {ric::Duplex::FaultAction::kReorder,
                static_cast<uint32_t>(1 + fault->entropy % 3)};
    }
  };
}

/// The zero-alloc warm-call probe (invariant 5).
void run_warm_probe(EpisodeReport& rep,
                    const std::function<void(bool, std::string)>& expect) {
  auto probe_bytes = wcc::compile(kProbeSource);
  auto probe = probe_bytes.ok() ? plugin::Plugin::load(*probe_bytes)
                                : Result<std::unique_ptr<plugin::Plugin>>(
                                      Error::internal("probe compile failed"));
  expect(probe.ok(), "warm-path probe plugin failed to load");
  if (!probe.ok()) return;
  wasm::CallOptions copts;
  copts.fuel = 100'000;
  wasm::CallStats cstats;
  bool ok = true;
  for (int i = 0; i < 4; ++i) {
    ok = ok && (*probe)->instance().call("work", {}, copts, &cstats).ok();
  }
  const uint64_t before = heap_probe::allocations();
  for (int i = 0; i < 64; ++i) {
    ok = ok && (*probe)->instance().call("work", {}, copts, &cstats).ok();
  }
  rep.warm_heap_allocs = heap_probe::allocations() - before;
  expect(ok, "warm-path probe call failed");
  expect(rep.warm_heap_allocs == 0,
         "warm Instance::call touched the heap " +
             std::to_string(rep.warm_heap_allocs) + " time(s)");
}

}  // namespace

// The episode runs against a threaded rt::GnbDeployment — N cells (N >= 1)
// on N worker threads, one shared RIC — with one independent FaultPlan per
// cell. A cell's slot work (scheduler output and call faults, slot
// overruns, its indications on the link, its ctl plugin) draws from the
// cell's plan on the cell's worker. The RIC's control sends, the lifecycle
// sites (grower, hot swap) and the RIC's xApp (on cell 0's plan) draw on
// the coordinator while every worker is parked at the barrier, so no plan
// is ever touched by two threads at once.
EpisodeReport run_episode(const EpisodeOptions& options) {
  EpisodeReport rep;
  rep.seed = options.seed;
  const uint32_t cells = std::max(options.cells, 1u);

  auto expect = [&rep](bool ok, std::string what) {
    if (!ok) rep.violations.push_back(std::move(what));
  };
  auto eq = [&expect](uint64_t got, uint64_t want, const std::string& what) {
    expect(got == want, what + ": got " + std::to_string(got) + ", want " +
                            std::to_string(want));
  };
  auto tolerate = [&rep](const Status& st) {
    if (!st.ok()) ++rep.contained_errors;
  };

  auto& reg = obs::MetricsRegistry::global();
  reg.reset_values();

  // One plan per cell at the default PlanConfig rates, derived
  // deterministically from the master seed, so each cell's fault schedule
  // is independent and the whole episode still replays from `--seed` alone.
  std::vector<std::unique_ptr<FaultPlan>> plans;
  for (uint32_t i = 0; i < cells; ++i) {
    plans.push_back(
        std::make_unique<FaultPlan>(options.seed ^ (0x9e3779b97f4a7c15ULL * (i + 1))));
  }

  rt::DeploymentConfig dc;
  dc.cells = cells;
  dc.seed = options.seed;
  dc.threaded = true;
  dc.virtual_time = options.virtual_time;
  dc.report_period_slots = options.slots_per_round;
  // The slot budget is one full second: a real slot takes microseconds even
  // under sanitizers, so every kSlotOverrun anomaly is an injected one.
  dc.mac.slot_us = 1'000'000;
  // Fleet telemetry plane under fire: per-cell trace rings feed the flight
  // recorder, and the SLO engine evaluates one window per report round.
  dc.trace_capacity = 1024;
  dc.slo_window_slots = options.slots_per_round;
  dc.decorate_scheduler = [&plans](std::unique_ptr<ran::IntraSliceScheduler> inner,
                                   uint32_t cell, uint32_t slice_id) {
    return std::make_unique<ChaosIntraScheduler>(std::move(inner), *plans[cell], cell,
                                                 slice_id);
  };
  rt::GnbDeployment dep(dc);
  if (!dep.status().ok()) {
    expect(false, "deployment construction failed: " + dep.status().error().message);
    return rep;
  }

  // Flight recorder: the bundle's replay command must reproduce this exact
  // episode, so the context carries the episode shape, not just the seed.
  obs::FlightContext fctx = dep.flight_context();
  fctx.rounds = options.rounds;
  fctx.slots_per_round = options.slots_per_round;
  fctx.scenario = "chaos_episode";
  dep.set_flight_context(fctx);
  dep.set_breach_hook([&rep, &dep](const obs::HealthReport& health) {
    rep.slo_breaches += health.breaches;
    if (rep.flight_bundle.empty()) {
      rep.flight_bundle = dep.capture_flight_bundle("slo_breach");
    }
  });

  // --- Chaos hooks, one set per cell --------------------------------------
  // Call-site injections are restricted to slots whose failures the host
  // contains without secondary effects: the slice schedulers (MAC falls
  // back to host RR), the control dispatcher (frame is rejected) and the
  // xApp (RIC skips it). The comm slots stay clean — failing them would
  // double-count (a comm trap plus the resulting frame rejection) — and so
  // do grower (its fault site is memory.grow) and the probe.
  auto grower_bytes = wcc::compile(kGrowerSource);
  if (!grower_bytes.ok()) {
    expect(false, "failed to compile the grower plugin");
    return rep;
  }
  const uint64_t budget_ns = static_cast<uint64_t>(dc.mac.slot_us) * 1000;
  std::set<std::string> slice_slots;
  for (const auto& s : dc.slices) slice_slots.insert(s.name);
  // Armed by the hot-swap site for one swap at a time (on the coordinator).
  bool fail_next_load = false;
  auto load_interceptor = [&fail_next_load](const std::string&) -> std::optional<Error> {
    if (!fail_next_load) return std::nullopt;
    fail_next_load = false;
    return Error::validation("chaos: injected load failure");
  };
  std::vector<plugin::PluginManager*> managers;
  for (uint32_t i = 0; i < cells; ++i) {
    FaultPlan& plan = *plans[i];
    plugin::PluginManager& mgr = dep.sched_plugins(i);
    if (!mgr.install("grower", *grower_bytes).ok()) {
      expect(false, "failed to install the grower plugin");
      return rep;
    }
    mgr.set_call_interceptor(
        make_call_interceptor(plan, mgr.domain(), slice_slots, /*allow_deadline=*/true));
    mgr.set_load_interceptor(load_interceptor);
    plugin::PluginManager& agent = dep.agent(i).plugins();
    agent.set_call_interceptor(
        make_call_interceptor(plan, agent.domain(), {"ctl"}, /*allow_deadline=*/false));
    ran::GnbMac& mac = dep.mac(i);
    mac.set_slot_time_padding([&plan, &mac, budget_ns]() -> uint64_t {
      return plan.draw_slot_overrun(mac.slot()) ? budget_ns + 1'000'000 : 0;
    });
    dep.link(i).add_fault_stage(make_link_stage(plan));
    managers.push_back(&mgr);
    managers.push_back(&agent);
  }
  // The RIC runs only on the coordinator, while every worker is parked, so
  // its xApp can draw from cell 0's plan without racing cell 0's worker.
  plugin::PluginManager& ric_plugins = dep.ric().plugins();
  ric_plugins.set_call_interceptor(make_call_interceptor(
      *plans[0], ric_plugins.domain(), {"xapp:sla"}, /*allow_deadline=*/false));
  managers.push_back(&ric_plugins);

  // --- Episode loop -------------------------------------------------------
  // Barrier-stepped rounds, each ending on an E2 report. Between rounds the
  // workers are parked and the coordinator runs every cell's lifecycle
  // sites, then lifts latched quarantines.
  for (uint32_t round = 0; round < options.rounds; ++round) {
    Status st = dep.run_slots(options.slots_per_round);
    if (!st.ok()) {
      expect(false, "deployment.run_slots failed: " + st.error().message);
      break;
    }
    // The hot-swap site rotates over the slice schedulers.
    const rt::SliceSpec& spec = dc.slices[round % dc.slices.size()];
    auto swap_bytes = sched::plugins::scheduler(spec.policy);
    for (uint32_t i = 0; i < cells; ++i) {
      FaultPlan& plan = *plans[i];
      plugin::PluginManager& mgr = dep.sched_plugins(i);

      // Growth-denial site: the grower must survive a denied grow gracefully.
      plugin::Plugin* grower = mgr.plugin("grower");
      wasm::Memory* mem = grower != nullptr ? grower->instance().memory() : nullptr;
      if (mem != nullptr && plan.draw_grow_denial()) mem->set_grow_denial_after(0);
      std::vector<uint8_t> out;
      Status r = mgr.call("grower", "tick", {}, out);
      expect(r.ok(), "grower did not survive a denied memory.grow: " +
                         (r.ok() ? std::string() : r.error().message));
      if (mem != nullptr) mem->set_grow_denial_after(std::nullopt);

      // Hot-swap site. A slot mid-storm is skipped: a successful swap clears
      // the consecutive-fault count and would defuse the storm's
      // deterministic quarantine.
      if (!swap_bytes.ok() || plan.storm_active(mgr.domain(), spec.name)) continue;
      const bool fail = plan.draw_load_failure(spec.name);
      fail_next_load = fail;
      Status sw = mgr.swap(spec.name, *swap_bytes);
      fail_next_load = false;
      if (sw.ok() == fail) {
        expect(false, fail ? std::string("injected load failure did not fail the swap")
                           : "clean hot swap failed: " + sw.error().message);
      }
      expect(mgr.plugin(spec.name) != nullptr, "swap left the slot without a plugin");
    }

    // Lift quarantines (operator intervention) so every round starts with
    // live slots; only latched slots are touched, so in-flight fault
    // sequences keep their consecutive counts.
    for (plugin::PluginManager* m : managers) {
      for (const std::string& s : m->slot_names()) {
        const plugin::SlotHealth* h = m->health(s);
        if (h != nullptr && h->quarantined) (void)m->reset_quarantine(s);
      }
    }
  }
  const uint64_t per_cell_slots = dep.slots_run();
  rep.slots = per_cell_slots * cells;
  rep.slo_breach_windows = dep.slo_breach_windows();

  // --- Drain: stop injecting, land everything in flight -------------------
  for (auto& p : plans) p->set_active(false);
  for (uint32_t i = 0; i < cells; ++i) dep.link(i).flush_delayed();
  tolerate(dep.ric().poll());
  for (uint32_t i = 0; i < cells; ++i) {
    tolerate(dep.agent(i).poll());
    dep.mac(i).set_slot_time_padding(nullptr);
  }

  // --- Warm-call probe ----------------------------------------------------
  if (options.warm_path_probe) run_warm_probe(rep, expect);

  // --- Invariants ---------------------------------------------------------
  // Per-kind counts over every journal of the deployment. A journal counts
  // each record once, evicted or not, so the audit is exact however long
  // the episode runs.
  const std::vector<const obs::AnomalyJournal*> journals = dep.journals();
  for (const obs::AnomalyJournal* j : journals) rep.anomalies += j->total();
  auto anomalies_of = [&journals](obs::AnomalyKind kind) {
    uint64_t n = 0;
    for (const obs::AnomalyJournal* j : journals) n += j->count(kind);
    return n;
  };
  auto sum_count = [&plans](FaultKind k) {
    uint64_t n = 0;
    for (const auto& p : plans) n += p->count(k);
    return n;
  };
  for (const auto& p : plans) {
    rep.injections += p->total();
    rep.injection_log.insert(rep.injection_log.end(), p->log().begin(),
                             p->log().end());
  }
  for (size_t k = 0; k < kFaultKindCount; ++k) {
    rep.injected_by_kind[k] = sum_count(static_cast<FaultKind>(k));
  }

  // 1:1 fault -> anomaly accounting, kind by kind, summed across cells.
  eq(anomalies_of(obs::AnomalyKind::kTrap), sum_count(FaultKind::kForceTrap),
     "kTrap anomalies vs injected traps");
  eq(anomalies_of(obs::AnomalyKind::kFuelExhausted),
     sum_count(FaultKind::kFuelStarve) + sum_count(FaultKind::kDeadlineOverrun),
     "kFuelExhausted anomalies vs injected starvations");
  eq(anomalies_of(obs::AnomalyKind::kQuarantine), sum_count(FaultKind::kQuarantineStorm),
     "kQuarantine anomalies vs completed storms");
  eq(anomalies_of(obs::AnomalyKind::kLoadFailed), sum_count(FaultKind::kLoadFailure),
     "kLoadFailed anomalies vs injected load failures");
  eq(anomalies_of(obs::AnomalyKind::kFrameRejected), sum_count(FaultKind::kLinkCorrupt),
     "kFrameRejected anomalies vs corrupted frames");
  eq(anomalies_of(obs::AnomalyKind::kSanitized), sum_count(FaultKind::kSchedGarbage),
     "kSanitized anomalies vs injected garbage responses");
  eq(anomalies_of(obs::AnomalyKind::kSlotOverrun), sum_count(FaultKind::kSlotOverrun),
     "kSlotOverrun anomalies vs injected overruns");
  eq(anomalies_of(obs::AnomalyKind::kDecline), 0, "unexpected kDecline anomalies");
  eq(anomalies_of(obs::AnomalyKind::kOther), 0, "unexpected kOther anomalies");
  // SLO breach accounting is exact: every breached verdict the engine
  // produced landed as one kSloBreach journal entry, and vice versa.
  eq(anomalies_of(obs::AnomalyKind::kSloBreach), rep.slo_breaches,
     "kSloBreach anomalies vs breached SLO verdicts");
  expect(rep.slo_breaches == 0 || !rep.flight_bundle.empty(),
         "SLO breach occurred but no flight bundle was captured");

  for (uint32_t i = 0; i < cells; ++i) {
    const FaultPlan& plan = *plans[i];
    const std::string ci = "cell " + std::to_string(i) + " ";

    // Per-cell attribution: each cell's sanitizations land in its own MAC's
    // journal (so none come from the xApp, and none smear between shards).
    eq(dep.mac(i).journal().count(obs::AnomalyKind::kSanitized),
       plan.count(FaultKind::kSchedGarbage), ci + "kSanitized anomalies vs its plan");

    // Spec-conformant growth denial: denied exactly as scheduled, no anomaly.
    plugin::Plugin* grower = dep.sched_plugins(i).plugin("grower");
    const wasm::Memory* mem = grower != nullptr ? grower->instance().memory() : nullptr;
    eq(mem != nullptr ? mem->denied_grows() : 0, plan.count(FaultKind::kGrowDenial),
       ci + "denied grows vs scheduled denials");

    // Link conservation: every frame is delivered, dropped, overflowed or
    // still held — and after the drain nothing is held or pending. The RIC
    // polls every report step, so no queue may ever have been full.
    ric::Duplex& link = dep.link(i);
    eq(link.frames_corrupted(), plan.count(FaultKind::kLinkCorrupt),
       ci + "link corruption counter vs plan");
    eq(link.frames_dropped(), plan.count(FaultKind::kLinkDrop),
       ci + "link drop counter vs plan");
    eq(link.frames_duplicated(), plan.count(FaultKind::kLinkDuplicate),
       ci + "link duplicate counter vs plan");
    eq(link.frames_reordered(), plan.count(FaultKind::kLinkReorder),
       ci + "link reorder counter vs plan");
    eq(link.frames_overflowed(), 0, ci + "frames lost to a full link queue");
    eq(link.frames_sent() + link.frames_duplicated(),
       link.frames_delivered() + link.frames_dropped() + link.frames_overflowed(),
       ci + "link frame conservation");
    eq(link.delayed_in_flight(), 0, ci + "frames still held after drain");
    eq(link.pending(ric::Duplex::Side::kA) + link.pending(ric::Duplex::Side::kB), 0,
       ci + "frames still queued after drain");

    // PRB conservation: grants never exceed carrier capacity.
    uint64_t granted = 0;
    const std::string cell_label = std::to_string(i);
    for (const auto& s : dc.slices) {
      const std::string sid = std::to_string(s.slice_id);
      granted += reg.counter("waran_mac_prb_granted_total",
                             {{"cell", cell_label}, {"slice", sid}})
                     .value();
    }
    expect(granted <= static_cast<uint64_t>(dc.mac.n_prbs) * per_cell_slots,
           ci + "PRB conservation violated: " + std::to_string(granted) +
               " granted over " + std::to_string(per_cell_slots) + " slots of " +
               std::to_string(dc.mac.n_prbs));
  }
  eq(reg.counter("waran_mac_slots_total").value(), rep.slots,
     "MAC slot counter across cells");
  eq(reg.counter("waran_mac_slot_overrun_total").value(),
     sum_count(FaultKind::kSlotOverrun), "MAC slot-overrun counter vs plans");

  // Cross-layer accounting balance: the metrics registry must agree with
  // the manager's ledger (CallCostAcc calls, SlotHealth faults) call for
  // call, fault for fault, in every manager.
  uint64_t traps_sum = 0;
  uint64_t fuel_sum = 0;
  for (plugin::PluginManager* m : managers) {
    for (const std::string& s : m->slot_names()) {
      const plugin::SlotHealth* h = m->health(s);
      const CallCostAcc* c = m->cost(s);
      if (h == nullptr || c == nullptr) continue;
      const std::string where = m->domain() + "/" + s;
      const obs::Labels labels = {{"domain", m->domain()}, {"slot", s}};
      eq(reg.counter("waran_plugin_calls_total", labels).value(), c->calls(),
         "calls_total counter vs cost.calls for " + where);
      eq(reg.counter("waran_plugin_traps_total", labels).value(), h->traps,
         "traps_total counter vs health for " + where);
      traps_sum += h->traps;
      fuel_sum += h->fuel_exhaustions;
    }
  }
  // With only benign plugins in the scenario, every sandbox fault is an
  // injected one.
  eq(traps_sum, sum_count(FaultKind::kForceTrap), "summed slot traps vs injected traps");
  eq(fuel_sum, sum_count(FaultKind::kFuelStarve) + sum_count(FaultKind::kDeadlineOverrun),
     "summed fuel exhaustions vs injected starvations");

  rep.passed = rep.violations.empty();
  return rep;
}

CampaignReport run_campaign(uint64_t base_seed, uint32_t episodes,
                            const EpisodeOptions& base) {
  CampaignReport camp;
  for (uint32_t i = 0; i < episodes; ++i) {
    EpisodeOptions o = base;
    o.seed = base_seed + i;
    EpisodeReport rep = run_episode(o);
    ++camp.episodes;
    camp.injections += rep.injections;
    camp.anomalies += rep.anomalies;
    for (size_t k = 0; k < kFaultKindCount; ++k) {
      camp.injected_by_kind[k] += rep.injected_by_kind[k];
    }
    if (!rep.passed) {
      ++camp.failures;
      camp.failed.push_back(std::move(rep));
    }
  }
  return camp;
}

std::string summarize(const EpisodeReport& report) {
  std::string s = "seed " + std::to_string(report.seed) + ": " +
                  std::to_string(report.slots) + " slots, " +
                  std::to_string(report.injections) + " injected, " +
                  std::to_string(report.anomalies) + " anomalies, " +
                  std::to_string(report.contained_errors) + " contained -> " +
                  (report.passed ? "OK" : "FAIL");
  for (const auto& v : report.violations) s += "\n  violation: " + v;
  return s;
}

}  // namespace waran::chaos
