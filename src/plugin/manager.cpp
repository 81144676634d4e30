#include "plugin/manager.h"

#include <algorithm>

#include "common/log.h"
#include "obs/fleet.h"
#include "obs/trace.h"

namespace waran::plugin {

void PluginManager::bind_metrics(const std::string& slot_name, Slot& slot) {
  auto& reg = obs::MetricsRegistry::global();
  obs::Labels labels = {{"domain", domain_}, {"slot", slot_name}};
  slot.m_calls = &reg.counter("waran_plugin_calls_total", labels);
  slot.m_traps = &reg.counter("waran_plugin_traps_total", labels);
  slot.m_fuel_exhausted = &reg.counter("waran_plugin_fuel_exhausted_total", labels);
  slot.m_declines = &reg.counter("waran_plugin_declines_total", labels);
  slot.m_fuel_used = &reg.counter("waran_plugin_fuel_used_total", labels);
  slot.m_instrs = &reg.counter("waran_plugin_instructions_total", labels);
  slot.m_wall_ns = &reg.histogram("waran_plugin_wall_ns", labels);
}

namespace {

// Reserves the instance's interpreter arenas for the deepest call chain of
// any export whose bounds are finite and fit the engine's depth limit, so
// that even the first call after install/swap allocates nothing. Exports
// without such bounds (recursion, indirect calls) grow the arenas on
// first use, as an instance loaded with admission off does.
void reserve_arenas(wasm::Instance& inst, const analysis::AdmissionReport& report) {
  uint64_t frames = 0, cells = 0;
  for (const analysis::ExportReport& e : report.exports) {
    const analysis::FuncBounds& b = e.bounds;
    if (b.max_frames > inst.max_call_depth()) continue;  // also kUnbounded
    frames = std::max(frames, b.max_frames);
    cells = std::max(cells, b.max_frame_cells);
  }
  inst.reserve_arenas(frames, cells);
}

}  // namespace

// Shared install/swap front half: consult the chaos load interceptor, then
// decode/validate/instantiate. Any failure — injected or natural — is a
// containment event worth journaling: a broken upload was refused before it
// could touch a live slot.
Result<std::shared_ptr<Plugin>> PluginManager::load_checked(
    const std::string& slot, std::span<const uint8_t> module_bytes,
    const wasm::Linker& extra_host) {
  if (load_interceptor_) {
    if (std::optional<Error> err = load_interceptor_(slot)) {
      journal_.record(obs::AnomalyKind::kLoadFailed, domain_, slot, err->message);
      return *err;
    }
  }
  auto loaded = Plugin::load(module_bytes, extra_host, default_limits_);
  if (!loaded.ok()) {
    journal_.record(obs::AnomalyKind::kLoadFailed, domain_, slot,
                    loaded.error().message);
    return loaded.error();
  }
  auto plugin = std::shared_ptr<Plugin>(std::move(*loaded));
  if (default_limits_.admission == analysis::AdmissionMode::kOff) {
    last_admission_.reset();
    return plugin;
  }
  // Admission-time static analysis: verify the translated streams and check
  // every export's static fuel/frame bounds against the slot budget. The
  // module is fully built but has never run — a rejection here is exactly
  // "refused before first call".
  wasm::Instance& inst = plugin->instance();
  analysis::AdmissionLimits budget;
  budget.fuel_per_call = default_limits_.fuel_per_call;
  budget.max_call_depth = inst.max_call_depth();
  last_admission_ = analysis::admit(inst.module(), *inst.translation(), budget);
  if (!last_admission_->admitted) {
    const std::string reason = last_admission_->reject_reason();
    journal_.record(obs::AnomalyKind::kAdmissionReject, domain_, slot, reason);
    obs::MetricsRegistry::global()
        .counter("waran_plugin_admission_rejects_total",
                 {{"domain", domain_}, {"slot", slot}})
        .add();
    WARAN_LOG(kWarn, "plugin", "admission rejected slot '" << slot << "': " << reason);
    return Error::limit_exceeded("admission rejected: " + reason);
  }
  reserve_arenas(inst, *last_admission_);
  return plugin;
}

Status PluginManager::install(const std::string& slot,
                              std::span<const uint8_t> module_bytes,
                              const wasm::Linker& extra_host) {
  if (slots_.contains(slot)) {
    return Error::state("slot already exists: " + slot + " (use swap)");
  }
  WARAN_TRY(p, load_checked(slot, module_bytes, extra_host));
  Slot s;
  s.plugin = std::move(p);
  s.admission = last_admission_;
  bind_metrics(slot, s);
  slots_.emplace(slot, std::move(s));
  WARAN_LOG(kInfo, "plugin", "installed slot '" << slot << "'");
  return {};
}

Status PluginManager::swap(const std::string& slot,
                           std::span<const uint8_t> module_bytes,
                           const wasm::Linker& extra_host) {
  auto it = slots_.find(slot);
  if (it == slots_.end()) return Error::not_found("no such slot: " + slot);
  // Build the replacement completely before touching the live slot.
  WARAN_TRY(p, load_checked(slot, module_bytes, extra_host));
  it->second.plugin = std::move(p);
  it->second.admission = last_admission_;
  it->second.health.quarantined = false;
  it->second.health.consecutive_faults = 0;
  ++it->second.health.swaps;
  WARAN_LOG(kInfo, "plugin", "hot-swapped slot '" << slot << "'");
  return {};
}

Status PluginManager::remove(const std::string& slot) {
  if (slots_.erase(slot) == 0) return Error::not_found("no such slot: " + slot);
  return {};
}

Status PluginManager::call(std::string_view slot, std::string_view fn,
                           std::span<const uint8_t> input, std::vector<uint8_t>& output) {
  output.clear();
  auto it = slots_.find(slot);
  if (it == slots_.end()) return Error::not_found("no such slot: " + std::string(slot));
  Slot& s = it->second;
  if (s.health.quarantined) {
    return Error::state("slot '" + it->first + "' is quarantined after repeated faults");
  }
  obs::ObsSpan span(obs::TraceCat::kPlugin, slot);
  s.m_calls->add();

  CallIntercept intercept;
  if (call_interceptor_) intercept = call_interceptor_(slot, fn);

  Status result;
  if (intercept.fail) {
    // Injected failure: the sandbox is never entered, so the crossing costs
    // nothing — but it still counts as a call so the accounting invariant
    // (cost.calls() == calls_total) holds.
    result = *intercept.fail;
    s.cost.add(0, 0);
    s.m_wall_ns->add(0);
  } else {
    result = s.plugin->call(fn, input, output, CallOverrides{intercept.fuel});
    // Canonical telemetry path: every sandbox crossing feeds the engine's
    // CallStats into both the exact per-slot accumulator (CallCostAcc, for
    // offline p50/p99) and the metrics registry (for live exposition) —
    // including faulting calls, whose partial cost still counts.
    const wasm::CallStats& cs = s.plugin->last_call_stats();
    s.cost.add(cs.fuel_used, cs.wall_ns);
    s.m_fuel_used->add(cs.fuel_used);
    s.m_instrs->add(cs.instrs_retired);
    s.m_wall_ns->add(cs.wall_ns);
  }
  if (!result.ok()) {
    if (result.error().code == Error::Code::kState) {
      // Deliberate rejection: legitimate behaviour (a comm plugin refusing
      // a corrupt frame must not get itself quarantined).
      ++s.health.declines;
      s.m_declines->add();
      s.health.last_error = result.error().message;
      return result.error();
    }
    ++s.health.consecutive_faults;
    s.health.last_error = result.error().message;
    if (result.error().code == Error::Code::kFuelExhausted) {
      ++s.health.fuel_exhaustions;
      s.m_fuel_exhausted->add();
      journal_.record(obs::AnomalyKind::kFuelExhausted, domain_, slot,
                      result.error().message);
    } else {
      ++s.health.traps;
      s.m_traps->add();
      journal_.record(obs::AnomalyKind::kTrap, domain_, slot, result.error().message);
    }
    if (s.health.consecutive_faults >= kQuarantineAfterFaults) {
      s.health.quarantined = true;
      journal_.record(obs::AnomalyKind::kQuarantine, domain_, slot,
                      s.health.last_error);
      WARAN_LOG(kWarn, "plugin",
                "slot '" << slot << "' quarantined after "
                         << s.health.consecutive_faults
                         << " consecutive faults: " << s.health.last_error);
    }
    return result.error();
  }
  s.health.consecutive_faults = 0;
  return {};
}

std::vector<std::string> PluginManager::slot_names() const {
  std::vector<std::string> names;
  names.reserve(slots_.size());
  for (const auto& [name, _] : slots_) names.push_back(name);
  return names;
}

const SlotHealth* PluginManager::health(const std::string& slot) const {
  auto it = slots_.find(slot);
  return it == slots_.end() ? nullptr : &it->second.health;
}

const analysis::AdmissionReport* PluginManager::admission_report(
    const std::string& slot) const {
  auto it = slots_.find(slot);
  if (it == slots_.end() || !it->second.admission) return nullptr;
  return &*it->second.admission;
}

const CallCostAcc* PluginManager::cost(const std::string& slot) const {
  auto it = slots_.find(slot);
  return it == slots_.end() ? nullptr : &it->second.cost;
}

void PluginManager::add_telemetry(std::string_view slot, obs::CellTelemetry& t,
                                  obs::HistState* wall) const {
  auto it = slots_.find(slot);
  if (it == slots_.end()) return;
  const Slot& s = it->second;
  t.plugin_calls += s.m_calls->value();
  t.plugin_traps += s.m_traps->value();
  t.plugin_fuel_exhausted += s.m_fuel_exhausted->value();
  t.plugin_declines += s.m_declines->value();
  t.plugin_fuel_used += s.m_fuel_used->value();
  if (wall != nullptr) wall->merge(*s.m_wall_ns);
}

Status PluginManager::reset_quarantine(const std::string& slot) {
  auto it = slots_.find(slot);
  if (it == slots_.end()) return Error::not_found("no such slot: " + slot);
  it->second.health.quarantined = false;
  it->second.health.consecutive_faults = 0;
  return {};
}

Plugin* PluginManager::plugin(const std::string& slot) {
  auto it = slots_.find(slot);
  return it == slots_.end() ? nullptr : it->second.plugin.get();
}

}  // namespace waran::plugin
