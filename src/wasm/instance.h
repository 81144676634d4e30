// Module instantiation and execution. An Instance owns the runtime state of
// one loaded plugin: linear memory, globals, the indirect-call table, and
// resolved host imports. Execution is an explicit-frame interpreter over the
// translated micro-op stream (wasm/translate.h): control flow is
// pre-resolved into direct jumps, the operand stack is a raw Value* against
// a buffer reserved once per frame entry, and dispatch is computed-goto
// threaded on GCC/Clang (with a portable switch fallback that doubles as
// the differential-test oracle). wasm->wasm calls push interpreter frames
// onto a reusable ExecContext instead of recursing natively, so call depth
// is bounded exactly and cheaply, and a warm repeated call performs zero
// heap allocations. Fuel metering (the mechanism WA-RAN uses to bound
// plugin execution time against the 5G slot deadline) is charged per
// straight-line segment rather than per instruction — see doc/interpreter.md.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "wasm/host.h"
#include "wasm/memory.h"
#include "wasm/module.h"
#include "wasm/translate.h"

// Threaded (computed-goto) dispatch needs the GNU labels-as-values
// extension; define WARAN_INTERP_SWITCH to force the portable switch loop
// even where the extension is available.
#if !defined(WARAN_INTERP_SWITCH) && (defined(__GNUC__) || defined(__clang__))
#define WARAN_HAS_THREADED_DISPATCH 1
#else
#define WARAN_HAS_THREADED_DISPATCH 0
#endif

namespace waran::wasm {

/// Interpreter dispatch strategy. kThreaded (computed goto) falls back to
/// the switch loop where the toolchain lacks it; kSwitch forces the
/// portable loop — differential tests use it as the oracle against the
/// threaded hot path. Both execute observably identical semantics
/// (results, traps, fuel, stats).
enum class Dispatch : uint8_t { kThreaded, kSwitch };

struct InstanceOptions {
  /// Opaque pointer surfaced to host functions via HostContext::user_data.
  void* user_data = nullptr;
  /// Maximum interpreter call depth (wasm->wasm recursion). Frames are
  /// interpreter state, not native stack, so this can be raised into the
  /// tens of thousands without risking the host stack.
  uint32_t max_call_depth = 256;
  Dispatch dispatch = Dispatch::kThreaded;
};

/// Per-call execution policy, threaded from the embedder (PluginManager,
/// RIC, scheduler) down to the interpreter.
struct CallOptions {
  /// Fuel budget for this call only, the one bound on its execution: a
  /// positive value meters the call with exactly that budget, 0 runs it
  /// unmetered, and nullopt continues the enclosing call's metering (a
  /// host function re-entering wasm draws on its caller's budget) and runs
  /// unmetered at top level. A call with its own budget leaves the
  /// enclosing call's remaining fuel untouched.
  std::optional<uint64_t> fuel;
};

/// Per-call observability, filled by Instance::call for the embedder to
/// feed into its per-plugin cost accounting (common/stats::CallCostAcc).
struct CallStats {
  /// Fuel consumed by this call (== instructions retired when the call was
  /// unmetered; == the full budget when the call exhausted it).
  uint64_t fuel_used = 0;
  /// Instructions retired by this call (including nested wasm->wasm and
  /// re-entrant host->wasm work).
  uint64_t instrs_retired = 0;
  /// Wall-clock duration of the call.
  uint64_t wall_ns = 0;
  /// Deepest interpreter call-frame depth reached during the call.
  uint32_t peak_stack_depth = 0;
};

class Instance {
 public:
  /// Resolves imports against `linker`, allocates memory/table, evaluates
  /// global initializers, applies data/element segments (bounds-checked,
  /// failing instantiation on overflow per spec), then runs the start
  /// function. The module must already be validated. Uses the module's
  /// attached translation (Module::translated) when present, else lowers
  /// the bodies here.
  static Result<std::unique_ptr<Instance>> instantiate(
      std::shared_ptr<const Module> module, const Linker& linker,
      const InstanceOptions& options = {});

  // -- Calls ---------------------------------------------------------------

  /// Calls an exported function by name with type-checked arguments under
  /// the given per-call policy; fills `stats` (if non-null) with the call's
  /// cost. Performs no heap allocation once the instance is warm.
  Result<std::optional<TypedValue>> call(std::string_view export_name,
                                         std::span<const TypedValue> args,
                                         const CallOptions& options,
                                         CallStats* stats = nullptr);

  /// Convenience overload: default policy (fuel = nullopt).
  Result<std::optional<TypedValue>> call(std::string_view export_name,
                                         std::span<const TypedValue> args) {
    return call(export_name, args, CallOptions{}, nullptr);
  }

  /// Total instructions retired over the instance lifetime.
  uint64_t instructions_retired() const { return instructions_retired_; }

  // -- Introspection -------------------------------------------------------

  Memory* memory() { return memory_ ? &*memory_ : nullptr; }
  const Memory* memory() const { return memory_ ? &*memory_ : nullptr; }
  const Module& module() const { return *module_; }
  void* user_data() const { return user_data_; }

  /// Frame-depth limit enforced by push_frame (admission analysis checks
  /// static frame needs against this).
  uint32_t max_call_depth() const { return max_call_depth_; }

  /// Reserves the interpreter arenas for calls that nest at most `frames`
  /// frames holding at most `operand_cells` operand and `local_cells` local
  /// values, so that no call within those bounds allocates, not even the
  /// first. PluginManager sizes them at admission from the report's finite
  /// bounds; without a reservation the arenas grow on first use.
  void reserve_arenas(size_t frames, size_t operand_cells, size_t local_cells);

  /// The dispatch strategy actually in use (kThreaded resolved).
  Dispatch dispatch() const { return dispatch_; }

  /// The translated micro-op module this instance executes — the module's
  /// shared translation, or a private lowering when the embedder skipped
  /// translate_module().
  const std::shared_ptr<const TranslatedModule>& translation() const {
    return translated_;
  }

  std::optional<uint32_t> find_export(std::string_view name, ImportKind kind) const;

  Value global(uint32_t index) const { return globals_[index]; }

 private:
  Instance() = default;

  /// Reusable interpreter state: one operand-value arena, one explicit
  /// call-frame stack and one locals arena shared by every call on this
  /// instance (including re-entrant host->wasm calls, which nest on the
  /// same stacks). The arenas only ever grow, so a warm call allocates
  /// nothing, and reserve_arenas() makes the first call warm too. The
  /// operand arena is oversized: each frame reserves stack_base + max_stack
  /// cells at entry and the hot loop then runs a raw Value* with no bounds
  /// checks; `top` is the live height, maintained only at suspension points
  /// (calls, host trampolines, returns).
  struct ExecContext {
    struct Frame {
      const TranslatedFunc* tf;
      uint32_t ip;           // resume point (micro-op index)
      uint32_t func_index;   // for diagnostics / signature lookups
      uint32_t locals_base;  // offset of this frame's locals in the arena
      uint32_t stack_base;   // operand height at entry (args consumed)
      uint8_t result_arity;
    };
    std::vector<Value> values;  // operand arena; live region is [0, top)
    uint32_t top = 0;
    std::vector<Frame> frames;
    std::vector<Value> locals;  // arena: frame locals live at [locals_base, ...)
    uint32_t peak_frames = 0;   // high-water mark for the current call
  };

  /// Runs `func_index` with `args`, iterating frames until the call that
  /// pushed `base_frames` returns. Never recurses for wasm->wasm calls;
  /// host functions may re-enter via Instance::call, nesting on exec_.
  Status invoke(uint32_t func_index, std::span<const Value> args, Value* result);
  Status run(size_t base_frames, Value* result);
  // The two dispatcher bodies, generated from wasm/interp_loop.inc.
  Status run_switch(size_t base_frames, Value* result);
  Status run_threaded(size_t base_frames, Value* result);
  Status push_frame(uint32_t func_index);
  Status invoke_host(uint32_t import_index, std::span<const Value> args, Value* result);

  std::shared_ptr<const Module> module_;
  std::shared_ptr<const TranslatedModule> translated_;
  std::optional<Memory> memory_;
  std::vector<Value> globals_;                 // defined globals only (no global imports)
  std::vector<uint32_t> table_;                // func indices; kNullFuncRef = null
  // Resolved host imports, copied by value: the Linker used at
  // instantiation time need not outlive the instance.
  std::vector<HostFunc> host_funcs_;
  // "module.name" per host import, for trace spans around trampolines.
  std::vector<std::string> host_func_names_;
  ExecContext exec_;
  void* user_data_ = nullptr;
  uint32_t max_call_depth_ = 256;
  Dispatch dispatch_ = Dispatch::kSwitch;

  /// Metering state of the running call: each retired instruction consumes
  /// one unit of fuel_, and when it cannot cover the next straight-line
  /// segment the call traps with kFuelExhausted. Instance::call sets both
  /// from CallOptions::fuel and restores them when the call returns.
  bool fuel_enabled_ = false;
  uint64_t fuel_ = 0;
  uint64_t instructions_retired_ = 0;

  static constexpr uint32_t kNullFuncRef = UINT32_MAX;
};

}  // namespace waran::wasm
