// Module instantiation and execution. An Instance owns the runtime state of
// one loaded plugin: linear memory, globals, the indirect-call table, and
// resolved host imports. Execution is a register-form interpreter over the
// translated micro-op stream (wasm/translate.h): control flow is
// pre-resolved into direct jumps, every micro-op names the frame slots it
// reads and writes, and dispatch is computed-goto threaded on GCC/Clang
// (with a portable switch fallback that doubles as the differential-test
// oracle). A wasm->wasm call slides the frame window onto the caller's
// argument slots and pushes a return record onto a reusable ExecContext
// instead of recursing natively, so call depth is bounded exactly and
// cheaply, and a warm repeated call performs zero heap allocations. Fuel
// metering (the mechanism WA-RAN uses to bound plugin execution time against
// the 5G slot deadline) is charged per straight-line segment rather than per
// instruction — see doc/interpreter.md.
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

  /// Frame-depth limit enforced at every call (admission analysis checks
  /// static frame needs against this).
  uint32_t max_call_depth() const { return max_call_depth_; }

  /// Reserves the interpreter arena and return records for calls that nest
  /// at most `frames` frames holding at most `frame_cells` slots, so that no
  /// call within those bounds allocates, not even the first. PluginManager
  /// sizes them at admission from the report's finite bounds; without a
  /// reservation they grow on first use.
  void reserve_arenas(size_t frames, size_t frame_cells);

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

  /// Reusable interpreter state shared by every call on this instance,
  /// including re-entrant host->wasm calls, which nest above the calling
  /// frame. Every frame is a window of frame_cells slots in one arena; a
  /// wasm->wasm call opens the callee's window at the caller's first
  /// argument slot, so arguments are never copied and the callee's result,
  /// written to its slot 0, lands where the caller expects it. Each frame
  /// has one return record, written by pointer bump. Both only ever grow,
  /// so a warm call allocates nothing, and reserve_arenas() makes the first
  /// call warm too. `depth` and `top` are kept at suspension points only
  /// (host trampolines, returns to the embedder).
  struct ExecContext {
    /// Where the caller of a frame resumes (null for a run's first frame).
    struct Frame {
      const UInstr* ip;
      const TranslatedFunc* tf;
      uint32_t fp;  // the caller's window, as an arena offset
    };
    std::vector<Value> arena;
    std::vector<Frame> frames;  // [0, depth) live
    /// One past the last record a call may take: frames' end, or the depth
    /// limit's when that comes first. Kept by set_frames().
    Frame* rec_limit = nullptr;
    uint32_t depth = 0;
    uint32_t top = 0;          // arena slots the suspended frames hold
    uint32_t peak_frames = 0;  // high-water mark for the current call
  };

  /// Runs `func_index` with `args` in a window above every suspended frame
  /// until it returns. Never recurses for wasm->wasm calls; host functions
  /// may re-enter via Instance::call, nesting on exec_.
  Status invoke(uint32_t func_index, std::span<const Value> args, Value* result);
  // The two dispatcher bodies, generated from wasm/interp_loop.inc: run the
  // frame at depth `base` (window at arena offset `fp`) to its return.
  Status run_switch(uint32_t base, uint32_t fp, const TranslatedFunc* tf, Value* result);
  Status run_threaded(uint32_t base, uint32_t fp, const TranslatedFunc* tf, Value* result);
  /// The cold half of a call: grows the return records or the arena, or
  /// traps when the depth limit is reached.
  Status grow_for_call(uint32_t depth, size_t window_end);
  /// Resizes the return records and recomputes ExecContext::rec_limit.
  void set_frames(size_t count);
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
  /// from CallOptions::fuel and restores them when the call returns; the
  /// dispatch loop keeps them in locals and stores them back whenever
  /// control leaves it.
  bool fuel_enabled_ = false;
  uint64_t fuel_ = 0;
  uint64_t instructions_retired_ = 0;

  static constexpr uint32_t kNullFuncRef = UINT32_MAX;
};

}  // namespace waran::wasm
