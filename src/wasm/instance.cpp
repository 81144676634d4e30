#include "wasm/instance.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <limits>

#include "obs/trace.h"
#include "rt/clock.h"

namespace waran::wasm {
namespace {

// --- IEEE-754 helpers matching wasm semantics exactly. ---

template <typename F>
F wasm_fmin(F a, F b) {
  if (std::isnan(a) || std::isnan(b)) return std::numeric_limits<F>::quiet_NaN();
  if (a == b) return std::signbit(a) ? a : b;  // min(-0,+0) = -0
  return a < b ? a : b;
}

template <typename F>
F wasm_fmax(F a, F b) {
  if (std::isnan(a) || std::isnan(b)) return std::numeric_limits<F>::quiet_NaN();
  if (a == b) return std::signbit(a) ? b : a;  // max(-0,+0) = +0
  return a > b ? a : b;
}

/// Checked float -> integer truncation. Returns false on NaN / out of range.
template <typename I, typename F>
bool trunc_checked(F f, I* out) {
  if (std::isnan(f)) return false;
  double d = std::trunc(static_cast<double>(f));
  if constexpr (std::is_same_v<I, int32_t>) {
    if (d < -2147483648.0 || d > 2147483647.0) return false;
  } else if constexpr (std::is_same_v<I, uint32_t>) {
    if (d < 0.0 || d > 4294967295.0) return false;
  } else if constexpr (std::is_same_v<I, int64_t>) {
    // 2^63 is exactly representable in double; the valid range is [-2^63, 2^63).
    if (d < -9223372036854775808.0 || d >= 9223372036854775808.0) return false;
  } else {
    static_assert(std::is_same_v<I, uint64_t>);
    if (d < 0.0 || d >= 18446744073709551616.0) return false;
  }
  *out = static_cast<I>(d);
  return true;
}

/// Saturating float -> integer truncation (trunc_sat_*): NaN -> 0, clamp.
template <typename I, typename F>
I trunc_sat(F f) {
  if (std::isnan(f)) return 0;
  double d = std::trunc(static_cast<double>(f));
  if constexpr (std::is_same_v<I, int32_t>) {
    if (d <= -2147483648.0) return std::numeric_limits<int32_t>::min();
    if (d >= 2147483647.0) return std::numeric_limits<int32_t>::max();
  } else if constexpr (std::is_same_v<I, uint32_t>) {
    if (d <= 0.0) return 0;
    if (d >= 4294967295.0) return std::numeric_limits<uint32_t>::max();
  } else if constexpr (std::is_same_v<I, int64_t>) {
    if (d <= -9223372036854775808.0) return std::numeric_limits<int64_t>::min();
    if (d >= 9223372036854775808.0) return std::numeric_limits<int64_t>::max();
  } else {
    static_assert(std::is_same_v<I, uint64_t>);
    if (d <= 0.0) return 0;
    if (d >= 18446744073709551616.0) return std::numeric_limits<uint64_t>::max();
  }
  return static_cast<I>(d);
}

}  // namespace

Result<std::unique_ptr<Instance>> Instance::instantiate(
    std::shared_ptr<const Module> module, const Linker& linker,
    const InstanceOptions& options) {
  auto inst = std::unique_ptr<Instance>(new Instance());
  inst->module_ = std::move(module);
  inst->user_data_ = options.user_data;
  inst->max_call_depth_ = options.max_call_depth;
  const Module& m = *inst->module_;

  // Pick up the module's shared micro-op stream, or lower the bodies here if
  // the embedder skipped translate_module().
  if (m.translated) {
    inst->translated_ = m.translated;
  } else {
    auto tr = translate(m);
    if (!tr.ok()) return tr.error();
    inst->translated_ = std::move(*tr);
  }

  inst->dispatch_ = WARAN_HAS_THREADED_DISPATCH ? options.dispatch : Dispatch::kSwitch;

  // Resolve imports. WA-RAN hosts only expose functions; table/memory/global
  // imports are rejected at instantiation (decoded for completeness).
  for (const Import& imp : m.imports) {
    switch (imp.kind) {
      case ImportKind::kFunc: {
        const HostFunc* hf = linker.lookup(imp.module, imp.name);
        if (hf == nullptr) {
          return Error::not_found("unresolved import " + imp.module + "." + imp.name);
        }
        if (!(hf->type == m.types[imp.type_index])) {
          return Error::validation("import signature mismatch for " + imp.module + "." +
                                   imp.name + ": module wants " +
                                   to_string(m.types[imp.type_index]) + ", host provides " +
                                   to_string(hf->type));
        }
        inst->host_funcs_.push_back(*hf);
        inst->host_func_names_.push_back(imp.module + "." + imp.name);
        break;
      }
      default:
        return Error::unsupported("only function imports are supported (import " +
                                  imp.module + "." + imp.name + ")");
    }
  }

  // Memory.
  if (m.memory) {
    auto mem = Memory::create(*m.memory);
    if (!mem.ok()) return mem.error();
    inst->memory_.emplace(std::move(*mem));
  }

  // Table.
  if (m.table) {
    inst->table_.assign(m.table->limits.min, kNullFuncRef);
  }

  // Globals (no global imports at this point, so init global.get cannot
  // occur — the validator only allows it referencing imported globals).
  for (const Global& g : m.globals) {
    if (g.init.kind == ConstExpr::Kind::kGlobalGet) {
      return Error::unsupported("global imports are not supported");
    }
    inst->globals_.push_back(g.init.value);
  }

  // Element segments.
  for (const ElemSegment& seg : m.elems) {
    uint64_t off = seg.offset.value.as_u32();
    if (off + seg.func_indices.size() > inst->table_.size()) {
      return Error::trap("element segment out of bounds");
    }
    for (size_t i = 0; i < seg.func_indices.size(); ++i) {
      inst->table_[off + i] = seg.func_indices[i];
    }
  }

  // Data segments.
  for (const DataSegment& seg : m.datas) {
    if (!inst->memory_) return Error::trap("data segment without memory");
    uint64_t off = seg.offset.value.as_u32();
    WARAN_CHECK_OK(inst->memory_->write_bytes(off, seg.bytes));
  }

  // Start function.
  if (m.start) {
    Value unused;
    WARAN_CHECK_OK(inst->invoke(*m.start, {}, &unused));
  }

  return inst;
}

std::optional<uint32_t> Instance::find_export(std::string_view name, ImportKind kind) const {
  for (const Export& e : module_->exports) {
    if (e.kind == kind && e.name == name) return e.index;
  }
  return std::nullopt;
}

Result<std::optional<TypedValue>> Instance::call(std::string_view export_name,
                                                 std::span<const TypedValue> args,
                                                 const CallOptions& options,
                                                 CallStats* stats) {
  obs::ObsSpan span(obs::TraceCat::kWasm, export_name);
  auto idx = find_export(export_name, ImportKind::kFunc);
  if (!idx) return Error::not_found("no exported function named " + std::string(export_name));
  const FuncType& ft = module_->func_type(*idx);
  if (args.size() != ft.params.size()) {
    return Error::invalid_argument("argument count mismatch: want " +
                                   std::to_string(ft.params.size()) + ", got " +
                                   std::to_string(args.size()));
  }
  // Arguments are staged in a fixed buffer so a warm call performs no heap
  // allocation; more than 16 parameters is a cold path.
  Value argbuf[16];
  std::vector<Value> argspill;
  Value* raw = argbuf;
  if (args.size() > 16) {
    argspill.resize(args.size());
    raw = argspill.data();
  }
  for (size_t i = 0; i < args.size(); ++i) {
    if (args[i].type != ft.params[i]) {
      return Error::invalid_argument("argument " + std::to_string(i) + " type mismatch");
    }
    raw[i] = args[i].value;
  }

  // Per-call fuel policy, restored after the call: nullopt continues the
  // enclosing call's metering, 0 disables metering, >0 is a fresh budget.
  const bool saved_enabled = fuel_enabled_;
  const uint64_t saved_fuel = fuel_;
  if (options.fuel) {
    fuel_enabled_ = *options.fuel > 0;
    if (*options.fuel > 0) fuel_ = *options.fuel;
  }

  const bool metered = fuel_enabled_;
  const uint64_t fuel_before = fuel_;
  const uint64_t retired_before = instructions_retired_;
  const uint32_t prev_peak = exec_.peak_frames;
  exec_.peak_frames = exec_.depth;

  const uint64_t t0 = rt::now_ns();
  Value result{};
  Status st = invoke(*idx, std::span<const Value>(raw, args.size()), &result);
  const uint64_t t1 = rt::now_ns();

  if (stats != nullptr) {
    stats->instrs_retired = instructions_retired_ - retired_before;
    stats->fuel_used = metered ? fuel_before - fuel_ : stats->instrs_retired;
    stats->wall_ns = t1 - t0;
    stats->peak_stack_depth = exec_.peak_frames;
  }
  if (exec_.peak_frames < prev_peak) exec_.peak_frames = prev_peak;
  if (options.fuel) {
    fuel_enabled_ = saved_enabled;
    fuel_ = saved_fuel;
  }

  if (!st.ok()) return st.error();
  if (ft.results.empty()) return std::optional<TypedValue>{};
  return std::optional<TypedValue>{TypedValue{ft.results[0], result}};
}

void Instance::reserve_arenas(size_t frames, size_t frame_cells) {
  if (exec_.frames.size() < frames) set_frames(frames);
  if (exec_.arena.size() < frame_cells) exec_.arena.resize(frame_cells);
}

void Instance::set_frames(size_t count) {
  ExecContext& ec = exec_;
  ec.frames.resize(count);
  ec.rec_limit = ec.frames.data() + std::min<size_t>(count, max_call_depth_);
}

Status Instance::grow_for_call(uint32_t depth, size_t window_end) {
  ExecContext& ec = exec_;
  if (depth >= max_call_depth_) return Error::trap("call stack exhausted");
  if (ec.frames.size() <= depth) {
    set_frames(std::min<size_t>(max_call_depth_,
                                std::max<size_t>(2 * ec.frames.size(), depth + 16)));
  }
  if (ec.arena.size() < window_end) {
    ec.arena.resize(std::max(window_end, 2 * ec.arena.size()));
  }
  return {};
}

Status Instance::invoke_host(uint32_t import_index, std::span<const Value> args,
                             Value* result) {
  obs::ObsSpan span(obs::TraceCat::kHost, host_func_names_[import_index]);
  const HostFunc& hf = host_funcs_[import_index];
  // Stage the arguments outside the shared value stack: a host function may
  // re-enter wasm via Instance::call, growing exec_.values and invalidating
  // any span into it.
  Value buf[16];
  std::vector<Value> spill;
  const Value* src = buf;
  if (args.size() <= 16) {
    if (!args.empty()) std::memcpy(buf, args.data(), args.size() * sizeof(Value));
  } else {
    spill.assign(args.begin(), args.end());
    src = spill.data();
  }
  HostContext ctx{*this, user_data_};
  auto r = hf.fn(ctx, std::span<const Value>(src, args.size()));
  if (!r.ok()) return r.error();
  if (r->has_value()) *result = **r;
  return {};
}

Status Instance::invoke(uint32_t func_index, std::span<const Value> args, Value* result) {
  if (func_index < module_->num_imported_funcs) {
    return invoke_host(func_index, args, result);
  }
  ExecContext& ec = exec_;
  const TranslatedFunc& tf = translated_->funcs[func_index - module_->num_imported_funcs];
  const uint32_t base = ec.depth;
  const uint32_t fp = ec.top;  // above every suspended frame
  Status st = grow_for_call(base, size_t{fp} + tf.frame_cells);
  if (!st.ok()) return st;
  Value* window = ec.arena.data() + fp;
  if (!args.empty()) std::memcpy(window, args.data(), args.size() * sizeof(Value));
  std::copy(tf.init.begin(), tf.init.end(), window + tf.num_params);
  ec.frames[base] = {nullptr, nullptr, 0};
  ec.depth = base + 1;
  if (ec.depth > ec.peak_frames) ec.peak_frames = ec.depth;
#if WARAN_HAS_THREADED_DISPATCH
  if (dispatch_ == Dispatch::kThreaded) {
    st = run_threaded(base, fp, &tf, result);
  } else {
    st = run_switch(base, fp, &tf, result);
  }
#else
  st = run_switch(base, fp, &tf, result);
#endif
  // Unwind everything this call pushed, also after a trap, so the shared
  // ExecContext stays consistent for the enclosing call (or the next one).
  ec.depth = base;
  ec.top = fp;
  return st;
}

// The two dispatcher bodies are generated from one shared core so their
// semantics cannot drift; the switch build is the differential-test oracle
// for the threaded hot path.
#define WARAN_RUN_NAME run_switch
#define WARAN_INTERP_THREADED 0
#include "wasm/interp_loop.inc"

#if WARAN_HAS_THREADED_DISPATCH
#define WARAN_RUN_NAME run_threaded
#define WARAN_INTERP_THREADED 1
#include "wasm/interp_loop.inc"
#endif

void Linker::register_func(std::string module, std::string name, HostFunc fn) {
  funcs_[{std::move(module), std::move(name)}] = std::move(fn);
}

const HostFunc* Linker::lookup(const std::string& module, const std::string& name) const {
  auto it = funcs_.find({module, name});
  return it == funcs_.end() ? nullptr : &it->second;
}

}  // namespace waran::wasm
