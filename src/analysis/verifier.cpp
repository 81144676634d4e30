// Stream verifier: proves a translated micro-op stream well-formed before
// the interpreter trusts it. The invariants (doc/analysis.md has the full
// table) mirror what translate.cpp constructs and interp_loop.inc assumes:
//
//   entry-charge        ops[0] is a charge-carrying op (kSeg)
//   fall-off-end        no fall-through successor past the last op
//   uncharged-resume    every conditional branch and every call is followed
//                       by a charge-carrying op (the fall-through / resume
//                       segment WARAN_CHARGE expects)
//   zero-charge         every segment charge and taken-edge charge >= 1
//   double-charge       no taken edge lands on a charge-carrying op (its
//                       run was already charged by the edge)
//   target-range        every branch target is a micro-op index inside the
//                       stream (or kRetTarget where the handler allows it)
//   height-merge        operand height is consistent at every join
//   stack-underflow     every op finds its operands on the stack
//   stack-overflow      no height exceeds TranslatedFunc::max_stack (the
//                       region the interpreter reserves)
//   unwind              kBr/kBrIf/kBrTable unwind heights fit under the
//                       current height and match the target's height
//   return-arity        every frame-popping edge has >= result_arity values
//   index-range         locals/globals/functions/types/imports in range,
//                       memory/table ops only with a memory/table present
#include <string>
#include <vector>

#include "analysis/analysis.h"
#include "analysis/stream_graph.h"
#include "wasm/module.h"

namespace waran::analysis {
namespace internal {

using wasm::kRetTarget;
using wasm::Module;
using wasm::TranslatedFunc;
using wasm::UInstr;
using wasm::UOp;
using wasm::uop_name;

namespace {

constexpr uint32_t kNoHeight = UINT32_MAX;

constexpr uint16_t ord(UOp op) { return static_cast<uint16_t>(op); }
constexpr bool between(UOp op, UOp lo, UOp hi) {
  return ord(op) >= ord(lo) && ord(op) <= ord(hi);
}

/// Ops that execute a WARAN_CHARGE on the fall-through path — the only ops
/// allowed to open a straight-line run.
bool is_charge_leading(UOp op) { return op == UOp::kSeg; }

Error inv(const char* invariant, uint32_t i, UOp op, const std::string& msg) {
  return Error::validation(std::string(invariant) + ": uop " + std::to_string(i) +
                           " (" + uop_name(op) + "): " + msg);
}

/// Operand-stack effect plus control shape of one micro-op. `pops` happen
/// before `pushes` and before any branch decision, matching the handlers.
struct Shape {
  uint32_t pops = 0;
  uint32_t pushes = 0;
  Node node;  ///< edges + call/return classification (heights added later)
};

Status check_local(const TranslatedFunc& tf, uint32_t i, UOp op, uint32_t idx) {
  if (idx >= tf.num_locals) {
    return inv("index-range", i, op,
               "local " + std::to_string(idx) + " out of range (num_locals " +
                   std::to_string(tf.num_locals) + ")");
  }
  return {};
}

/// Builds the shape of ops[i], validating every op-local field (indices,
/// targets, charges). Height-dependent checks happen in the dataflow pass.
Status shape_of(const Module& m, const TranslatedFunc& tf, uint32_t i, Shape* s) {
  const UInstr& u = tf.ops[i];
  const UOp op = u.op;
  const uint32_t n = static_cast<uint32_t>(tf.ops.size());

  auto target_in_range = [&](uint32_t target) -> Status {
    if (target >= n) {
      return inv("target-range", i, op,
                 "target " + std::to_string(target) + " outside stream of " +
                     std::to_string(n) + " uops");
    }
    if (is_charge_leading(tf.ops[target].op)) {
      return inv("double-charge", i, op,
                 "taken edge lands on charge-carrying uop " + std::to_string(target));
    }
    return {};
  };
  auto charged = [&](uint64_t charge) -> Status {
    if (charge == 0) return inv("zero-charge", i, op, "zero fuel segment");
    return {};
  };
  // A taken edge jumping to `target` charging `seg`.
  auto taken = [&](uint32_t target, uint64_t seg, bool has_unwind = false,
                   uint32_t unwind_height = 0, uint16_t keep = 0) -> Status {
    if (target == kRetTarget) {
      s->node.taken.push_back({0, 0, /*ret=*/true, false, 0, 0});
      return {};
    }
    WARAN_CHECK_OK(target_in_range(target));
    WARAN_CHECK_OK(charged(seg));
    s->node.taken.push_back({target, seg, false, has_unwind, unwind_height, keep});
    return {};
  };

  switch (op) {
    // --- control ---
    case UOp::kSeg:
      WARAN_CHECK_OK(charged(u.b));
      s->node.falls_through = true;
      s->node.fall_charge = u.b;
      return {};
    case UOp::kBr:
      // The kBr handler takes the branch unconditionally with no kRetTarget
      // check; the translator emits kReturn for function-level branches.
      if (u.b == kRetTarget) {
        return inv("target-range", i, op, "kBr cannot carry kRetTarget");
      }
      return taken(u.b, u.imm.pair.y, /*has_unwind=*/true, u.imm.pair.x, u.a);
    case UOp::kBrIf:
      s->pops = 1;
      s->node.falls_through = true;
      return taken(u.b, u.imm.pair.y, /*has_unwind=*/true, u.imm.pair.x, u.a);
    case UOp::kJump:
      return taken(u.b, u.imm.pair.y);
    case UOp::kJumpZ:
    case UOp::kJumpNZ:
      s->pops = 1;
      s->node.falls_through = true;
      return taken(u.b, u.imm.pair.y);
    case UOp::kBrTable: {
      s->pops = 1;
      const uint64_t base = u.b;
      const uint64_t arms = static_cast<uint64_t>(u.imm.pair.x) + 1;  // + default
      if (base + arms > tf.br_entries.size()) {
        return inv("target-range", i, op,
                   "br_entries slice [" + std::to_string(base) + ", " +
                       std::to_string(base + arms) + ") outside table of " +
                       std::to_string(tf.br_entries.size()));
      }
      for (uint64_t e = 0; e < arms; ++e) {
        const wasm::UBrEntry& be = tf.br_entries[base + e];
        WARAN_CHECK_OK(
            taken(be.target, be.seg, /*has_unwind=*/true, be.height, be.keep));
      }
      return {};
    }
    case UOp::kReturn:
      s->node.is_return = true;
      return {};
    case UOp::kUnreachable:
      return {};  // terminal: traps, no successors
    case UOp::kCallWasm: {
      if (u.b < m.num_imported_funcs || u.b >= m.num_funcs()) {
        return inv("index-range", i, op,
                   "callee " + std::to_string(u.b) + " is not a defined function");
      }
      const wasm::FuncType& ft = m.func_type(u.b);
      s->pops = static_cast<uint32_t>(ft.params.size());
      s->pushes = static_cast<uint32_t>(ft.results.size());
      s->node.falls_through = true;
      s->node.is_call_wasm = true;
      s->node.callee = u.b;
      return {};
    }
    case UOp::kCallHost: {
      if (u.b >= m.num_imported_funcs) {
        return inv("index-range", i, op,
                   "import " + std::to_string(u.b) + " out of range");
      }
      const wasm::FuncType& ft = m.func_type(u.b);
      if (u.a != ft.params.size() || u.imm.pair.x != ft.results.size()) {
        return inv("index-range", i, op, "arity does not match the import signature");
      }
      s->pops = u.a;
      s->pushes = u.imm.pair.x;
      s->node.falls_through = true;
      return {};
    }
    case UOp::kCallIndirect: {
      if (u.b >= m.types.size()) {
        return inv("index-range", i, op, "type " + std::to_string(u.b) + " out of range");
      }
      if (!m.has_table()) return inv("index-range", i, op, "module has no table");
      const wasm::FuncType& ft = m.types[u.b];
      if (u.a != ft.params.size() || u.imm.pair.x != ft.results.size()) {
        return inv("index-range", i, op, "arity does not match the expected type");
      }
      s->pops = 1 + u.a;  // element index + arguments
      s->pushes = u.imm.pair.x;
      s->node.falls_through = true;
      s->node.is_call_indirect = true;
      return {};
    }

    // --- parametric & variables ---
    case UOp::kDrop:
      s->pops = 1;
      break;
    case UOp::kSelect:
      s->pops = 3;
      s->pushes = 1;
      break;
    case UOp::kLocalGet:
      WARAN_CHECK_OK(check_local(tf, i, op, u.b));
      s->pushes = 1;
      break;
    case UOp::kLocalSet:
      WARAN_CHECK_OK(check_local(tf, i, op, u.b));
      s->pops = 1;
      break;
    case UOp::kLocalTee:
      WARAN_CHECK_OK(check_local(tf, i, op, u.b));
      s->pops = 1;
      s->pushes = 1;
      break;
    case UOp::kGlobalGet:
    case UOp::kGlobalSet:
      if (u.b >= m.num_globals()) {
        return inv("index-range", i, op,
                   "global " + std::to_string(u.b) + " out of range");
      }
      s->pops = (op == UOp::kGlobalSet) ? 1 : 0;
      s->pushes = (op == UOp::kGlobalGet) ? 1 : 0;
      break;
    case UOp::kConst:
      s->pushes = 1;
      break;

    // --- memory ---
    case UOp::kMemorySize:
    case UOp::kMemoryGrow:
    case UOp::kMemoryCopy:
    case UOp::kMemoryFill:
      if (!m.has_memory()) return inv("index-range", i, op, "module has no memory");
      s->pops = (op == UOp::kMemoryGrow) ? 1
                : (op == UOp::kMemorySize) ? 0
                                           : 3;
      s->pushes = (op == UOp::kMemoryCopy || op == UOp::kMemoryFill) ? 0 : 1;
      break;

    // --- fused superinstructions ---
    case UOp::kLocalMove:
    case UOp::kLCAddSetI32:
      WARAN_CHECK_OK(check_local(tf, i, op, u.a));
      WARAN_CHECK_OK(check_local(tf, i, op, u.b));
      break;

    default: {
      // The remaining ops are straight-line and classify by X-macro range.
      if (between(op, UOp::kI32Load, UOp::kI64Load32U)) {  // loads
        if (!m.has_memory()) return inv("index-range", i, op, "module has no memory");
        s->pops = 1;
        s->pushes = 1;
      } else if (between(op, UOp::kI32Store, UOp::kI64Store32)) {  // stores
        if (!m.has_memory()) return inv("index-range", i, op, "module has no memory");
        s->pops = 2;
      } else if (op == UOp::kI32Eqz || op == UOp::kI64Eqz) {
        s->pops = 1;
        s->pushes = 1;
      } else if (between(op, UOp::kI32Eq, UOp::kI32GeU) ||
                 between(op, UOp::kI64Eq, UOp::kI64GeU) ||
                 between(op, UOp::kF32Eq, UOp::kF64Ge)) {  // binary compares
        s->pops = 2;
        s->pushes = 1;
      } else if (between(op, UOp::kI32Clz, UOp::kI32Popcnt) ||
                 between(op, UOp::kI64Clz, UOp::kI64Popcnt) ||
                 between(op, UOp::kF32Abs, UOp::kF32Sqrt) ||
                 between(op, UOp::kF64Abs, UOp::kF64Sqrt) ||
                 between(op, UOp::kI32WrapI64, UOp::kI64Extend32S)) {  // unary
        s->pops = 1;
        s->pushes = 1;
      } else if (between(op, UOp::kI32Add, UOp::kI32Rotr) ||
                 between(op, UOp::kI64Add, UOp::kI64Rotr) ||
                 between(op, UOp::kF32Add, UOp::kF32Copysign) ||
                 between(op, UOp::kF64Add, UOp::kF64Copysign)) {  // binary numeric
        s->pops = 2;
        s->pushes = 1;
      } else if (between(op, UOp::kLLAddI32, UOp::kLLXorI32) ||
                 between(op, UOp::kLLEqI32, UOp::kLLGeUI32)) {  // two-local fusions
        WARAN_CHECK_OK(check_local(tf, i, op, u.a));
        WARAN_CHECK_OK(check_local(tf, i, op, u.b));
        s->pushes = 1;
      } else if (between(op, UOp::kLCAddI32, UOp::kLCShrUI32) ||
                 between(op, UOp::kLCEqI32, UOp::kLCGeUI32)) {  // local+const fusions
        WARAN_CHECK_OK(check_local(tf, i, op, u.a));
        s->pushes = 1;
      } else if (between(op, UOp::kCAddI32, UOp::kCAndI32)) {  // const-folded in place
        s->pops = 1;
        s->pushes = 1;
      } else if (between(op, UOp::kBrIfLLEq, UOp::kBrIfLLGeU)) {  // fused br: 2 locals
        WARAN_CHECK_OK(check_local(tf, i, op, u.a));
        WARAN_CHECK_OK(check_local(tf, i, op, u.imm.pair.x));
        s->node.falls_through = true;
        return taken(u.b, u.imm.pair.y);
      } else if (between(op, UOp::kBrIfLCEq, UOp::kBrIfLCGeU)) {  // fused br: local+c
        WARAN_CHECK_OK(check_local(tf, i, op, u.a));
        s->node.falls_through = true;
        return taken(u.b, u.imm.pair.y);
      } else {
        return inv("bad-opcode", i, op, "no verifier model for this op");
      }
    }
  }
  s->node.falls_through = true;  // plain straight-line op
  return {};
}

}  // namespace

Status build_stream_graph(const Module& m, const TranslatedFunc& tf, StreamGraph* out) {
  const uint32_t n = static_cast<uint32_t>(tf.ops.size());
  if (n == 0) return Error::validation("entry-charge: empty micro-op stream");
  for (const UInstr& u : tf.ops) {
    if (static_cast<size_t>(u.op) >= wasm::kNumUOps) {
      return Error::validation("bad-opcode: op value " +
                               std::to_string(static_cast<unsigned>(u.op)) +
                               " outside the dispatch table");
    }
  }
  if (!is_charge_leading(tf.ops[0].op)) {
    return inv("entry-charge", 0, tf.ops[0].op,
               "function entry is not a charge-carrying uop");
  }

  // Pass 1: per-op structural checks over the WHOLE stream (a corrupted op
  // is rejected even if a corrupted target also made it unreachable).
  std::vector<Shape> shapes(n);
  for (uint32_t i = 0; i < n; ++i) {
    WARAN_CHECK_OK(shape_of(m, tf, i, &shapes[i]));
    const Node& nd = shapes[i].node;
    if (nd.falls_through && i + 1 == n) {
      return inv("fall-off-end", i, tf.ops[i].op,
                 "fall-through successor past the end of the stream");
    }
    // Conditional branches fall into the segment charge of the untaken run;
    // calls resume into the charge of the post-call run. WARAN_CHARGE is
    // what keeps those runs metered — the next op must carry it.
    const bool needs_charged_successor =
        (nd.falls_through && !nd.taken.empty()) ||  // conditional branch
        nd.is_call_wasm || nd.is_call_indirect ||
        tf.ops[i].op == UOp::kCallHost;
    if (needs_charged_successor && !is_charge_leading(tf.ops[i + 1].op)) {
      return inv("uncharged-resume", i, tf.ops[i].op,
                 "fall-through/resume successor " + std::to_string(i + 1) +
                     " carries no segment charge");
    }
  }

  // Pass 2: operand-height dataflow over the reachable ops, checking
  // underflow/overflow, join consistency and unwind targets.
  std::vector<uint32_t> height(n, kNoHeight);
  std::vector<uint32_t> work;
  height[0] = 0;
  work.push_back(0);
  uint32_t max_height = 0;

  auto merge = [&](uint32_t i, uint32_t from, uint32_t to, uint32_t h) -> Status {
    if (height[to] == kNoHeight) {
      height[to] = h;
      work.push_back(to);
      return {};
    }
    if (height[to] != h) {
      return inv("height-merge", from, tf.ops[from].op,
                 "operand height " + std::to_string(h) + " into uop " +
                     std::to_string(to) + " conflicts with height " +
                     std::to_string(height[to]));
    }
    (void)i;
    return {};
  };

  while (!work.empty()) {
    const uint32_t i = work.back();
    work.pop_back();
    const Shape& s = shapes[i];
    shapes[i].node.reachable = true;
    const uint32_t h = height[i];
    if (h < s.pops) {
      return inv("stack-underflow", i, tf.ops[i].op,
                 "needs " + std::to_string(s.pops) + " operands, height is " +
                     std::to_string(h));
    }
    const uint32_t h2 = h - s.pops + s.pushes;
    if (h2 > tf.max_stack) {
      return inv("stack-overflow", i, tf.ops[i].op,
                 "height " + std::to_string(h2) + " exceeds max_stack " +
                     std::to_string(tf.max_stack));
    }
    if (h2 > max_height) max_height = h2;

    if (s.node.is_return && h2 < tf.result_arity) {
      return inv("return-arity", i, tf.ops[i].op,
                 "height " + std::to_string(h2) + " below result arity " +
                     std::to_string(tf.result_arity));
    }
    for (const TakenEdge& e : s.node.taken) {
      if (e.ret) {
        if (h2 < tf.result_arity) {
          return inv("return-arity", i, tf.ops[i].op,
                     "height " + std::to_string(h2) + " below result arity " +
                         std::to_string(tf.result_arity));
        }
        continue;
      }
      uint32_t h_target = h2;
      if (e.has_unwind) {
        const uint32_t floor = e.unwind_height + e.keep;
        if (h2 < floor) {
          return inv("unwind", i, tf.ops[i].op,
                     "unwind to height " + std::to_string(e.unwind_height) +
                         " keeping " + std::to_string(e.keep) +
                         " from height " + std::to_string(h2));
        }
        h_target = floor;
      }
      WARAN_CHECK_OK(merge(i, i, e.to, h_target));
    }
    if (s.node.falls_through) {
      WARAN_CHECK_OK(merge(i, i, i + 1, h2));
    }
  }

  if (out != nullptr) {
    out->nodes.clear();
    out->nodes.reserve(n);
    for (Shape& s : shapes) out->nodes.push_back(std::move(s.node));
    out->max_height = max_height;
  }
  return {};
}

}  // namespace internal

Status verify_func(const wasm::Module& m, const wasm::TranslatedFunc& tf) {
  return internal::build_stream_graph(m, tf, nullptr);
}

Status verify_module(const wasm::Module& m, const wasm::TranslatedModule& tm) {
  if (tm.funcs.size() != m.codes.size()) {
    return Error::validation("stream count " + std::to_string(tm.funcs.size()) +
                             " does not match " + std::to_string(m.codes.size()) +
                             " defined functions");
  }
  for (uint32_t i = 0; i < tm.funcs.size(); ++i) {
    const wasm::TranslatedFunc& tf = tm.funcs[i];
    const wasm::FuncType& ft = m.func_type(m.num_imported_funcs + i);
    // The frame layout the interpreter derives from the stream must match
    // the module signature the embedder calls through.
    if (tf.num_params != ft.params.size() || tf.result_arity != ft.results.size() ||
        tf.num_locals != ft.params.size() + m.codes[i].locals.size() ||
        tf.max_stack < m.codes[i].max_stack) {
      return Error::validation("func " + std::to_string(i) +
                               ": stream frame shape does not match the module "
                               "signature");
    }
    Status st = verify_func(m, tf);
    if (!st.ok()) {
      return Error::validation("func " + std::to_string(i) + ": " +
                               st.error().message);
    }
  }
  return {};
}

}  // namespace waran::analysis
