// WA-RAN plugin framework (the paper's core mechanism, modeled on Extism):
// a Plugin wraps one wasm instance plus an input/output exchange buffer.
// The host passes a serialized request by exposing it through the
// `waran.input_*` host functions; the plugin computes and hands back a
// response through `waran.output_write`. All plugin failures — traps, fuel
// exhaustion, malformed output — surface as Result errors the host can
// contain (paper §5D, §6A).
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "analysis/analysis.h"
#include "common/result.h"
#include "wasm/wasm.h"

namespace waran::plugin {

/// Largest input payload the host passes to a plugin call.
inline constexpr uint32_t kMaxInputBytes = 1 << 20;
/// Largest output payload the host accepts from one (output_write traps
/// beyond it, before reading plugin memory).
inline constexpr uint32_t kMaxOutputBytes = 1 << 20;
/// Consecutive faults after which PluginManager quarantines a slot (§6A).
inline constexpr uint32_t kQuarantineAfterFaults = 3;

/// Per-plugin resource policy. Defaults bound a scheduler plugin well below
/// the 1 ms slot budget on any plausible host.
struct PluginLimits {
  /// Fuel units (≈ interpreted instructions) per call; 0 disables metering.
  uint64_t fuel_per_call = 2'000'000;
  /// Admission-time static analysis (analysis/analysis.h): with kEnforce,
  /// PluginManager verifies the translated streams and checks every
  /// export's static fuel/frame bounds against this slot budget before the
  /// first call, refusing plugins that *must* exceed it.
  analysis::AdmissionMode admission = analysis::AdmissionMode::kOff;
};

/// One-call budget override, replacing the plugin's fuel_per_call for a
/// single sandbox crossing. The chaos harness uses it to force *real*
/// engine-level fuel exhaustion on schedule; a plugin's standing limits are
/// fixed when it loads.
struct CallOverrides {
  std::optional<uint64_t> fuel;  ///< fuel budget for this call only
};

/// One loaded plugin instance.
class Plugin {
 public:
  /// Decodes, validates and instantiates `module_bytes`. `extra_host` lets
  /// the embedder expose additional control-surface functions (the gNB /
  /// RIC host functions of paper §4B) beyond the base `waran.*` ABI.
  static Result<std::unique_ptr<Plugin>> load(std::span<const uint8_t> module_bytes,
                                              const wasm::Linker& extra_host = {},
                                              const PluginLimits& limits = {});

  /// Calls exported `fn` with `input` readable through the ABI and writes
  /// the bytes the plugin passed to output_write into `output`, replacing
  /// its contents and keeping its capacity. Both buffers are the caller's
  /// and are touched only during the call. An `input` that overlaps
  /// `output`'s storage is refused with kInvalidArgument: output_write may
  /// reallocate it mid-call. The exported function must have type () -> i32
  /// and return 0; a nonzero return is a plugin-declared failure (kState).
  /// Sandbox faults return kTrap or kFuelExhausted. After any failure
  /// `output` is empty; the call's cost is in last_call_stats() either way.
  /// Counting calls and faults is the PluginManager's job. `overrides`
  /// replaces the fuel budget for this call only.
  Status call(std::string_view fn, std::span<const uint8_t> input,
              std::vector<uint8_t>& output, const CallOverrides& overrides = {});

  /// True if the module exports function `fn`.
  bool has_export(const std::string& fn) const;

  const PluginLimits& limits() const { return limits_; }

  /// Full cost record of the most recent call (fuel, instructions, wall
  /// time, peak interpreter stack depth).
  const wasm::CallStats& last_call_stats() const { return last_call_stats_; }

  /// Linear-memory footprint right now (bytes). Fig. 5c probes this.
  size_t memory_bytes() const;

  /// Log lines emitted via waran.log since the last call (cleared per call).
  const std::vector<std::string>& log_lines() const { return exchange_.log; }

  wasm::Instance& instance() { return *instance_; }

 private:
  Plugin() = default;

  /// What the ABI host functions see; `input` and `output` are the
  /// caller's buffers, set for the duration of one call.
  struct Exchange {
    std::span<const uint8_t> input;
    std::vector<uint8_t>* output = nullptr;
    std::vector<std::string> log;
  };

  static void register_abi(wasm::Linker& linker);

  std::shared_ptr<const wasm::Module> module_;
  std::unique_ptr<wasm::Instance> instance_;
  Exchange exchange_;
  PluginLimits limits_;
  wasm::CallStats last_call_stats_;
};

}  // namespace waran::plugin
