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
//   slot-range          every frame slot an op reads or writes, a branch
//                       carries or a call passes lies inside the frame
//                       (TranslatedFunc::frame_cells)
//   index-range         globals/functions/types/imports in range,
//                       memory/table ops only with a memory/table present
#include <algorithm>
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

/// Builds the node of ops[i] (its edges and call/return classification),
/// validating every field: targets, charges, slots and indices.
Status node_of(const Module& m, const TranslatedFunc& tf, uint32_t i, Node* nd) {
  const UInstr& u = tf.ops[i];
  const UOp op = u.op;
  const uint32_t n = static_cast<uint32_t>(tf.ops.size());

  // Slots [first, first + count) must lie inside the frame.
  auto slots = [&](uint64_t first, uint64_t count = 1) -> Status {
    if (first + count > tf.frame_cells) {
      return inv("slot-range", i, op,
                 "slot " + std::to_string(first + count - 1) + " outside a frame of " +
                     std::to_string(tf.frame_cells));
    }
    return {};
  };
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
  auto taken = [&](uint32_t target, uint64_t seg) -> Status {
    if (target == kRetTarget) {
      nd->taken.push_back({0, 0, /*ret=*/true});
      return {};
    }
    WARAN_CHECK_OK(target_in_range(target));
    WARAN_CHECK_OK(charged(seg));
    nd->taken.push_back({target, seg, false});
    return {};
  };
  auto carried = [&](uint32_t c) -> Status {
    WARAN_CHECK_OK(slots(wasm::carry_src(c)));
    return slots(wasm::carry_dst(c));
  };
  // Call arguments [a, a + nparams), plus the table index when indirect.
  auto args = [&](uint32_t nparams, bool has_result, bool indirect) -> Status {
    WARAN_CHECK_OK(slots(u.a, uint64_t{nparams} + (indirect ? 1 : 0)));
    if (has_result) WARAN_CHECK_OK(slots(u.a));
    nd->falls_through = true;
    return {};
  };

  switch (op) {
    // --- control ---
    case UOp::kSeg:
      WARAN_CHECK_OK(charged(u.b));
      nd->falls_through = true;
      nd->fall_charge = u.b;
      return {};
    case UOp::kBr:
      // The kBr handler takes the branch unconditionally with no kRetTarget
      // check; the translator emits kReturn for function-level branches.
      if (u.b == kRetTarget) {
        return inv("target-range", i, op, "kBr cannot carry kRetTarget");
      }
      WARAN_CHECK_OK(carried(u.imm.pair.x));
      return taken(u.b, u.imm.pair.y);
    case UOp::kBrIf:
      WARAN_CHECK_OK(slots(u.a));
      WARAN_CHECK_OK(carried(u.imm.pair.x));
      nd->falls_through = true;
      return taken(u.b, u.imm.pair.y);
    case UOp::kJump:
      return taken(u.b, u.imm.pair.y);
    case UOp::kJumpZ:
    case UOp::kJumpNZ:
      WARAN_CHECK_OK(slots(u.a));
      nd->falls_through = true;
      return taken(u.b, u.imm.pair.y);
    case UOp::kBrTable: {
      WARAN_CHECK_OK(slots(u.a));
      WARAN_CHECK_OK(slots(u.imm.pair.y));
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
        WARAN_CHECK_OK(slots(be.dst));
        WARAN_CHECK_OK(taken(be.target, be.seg));
      }
      return {};
    }
    case UOp::kReturn:
      WARAN_CHECK_OK(slots(u.a));
      nd->is_return = true;
      return {};
    case UOp::kUnreachable:
      return {};  // terminal: traps, no successors
    case UOp::kCallWasm: {
      if (u.b < m.num_imported_funcs || u.b >= m.num_funcs() ||
          u.imm.pair.x != u.b - m.num_imported_funcs) {
        return inv("index-range", i, op,
                   "callee " + std::to_string(u.b) + " is not a defined function");
      }
      const wasm::FuncType& ft = m.func_type(u.b);
      WARAN_CHECK_OK(args(static_cast<uint32_t>(ft.params.size()), !ft.results.empty(),
                          false));
      nd->is_call_wasm = true;
      nd->callee = u.b;
      return {};
    }
    case UOp::kCallHost: {
      if (u.b >= m.num_imported_funcs) {
        return inv("index-range", i, op,
                   "import " + std::to_string(u.b) + " out of range");
      }
      const wasm::FuncType& ft = m.func_type(u.b);
      if (u.imm.pair.x != ft.params.size() || u.imm.pair.y != ft.results.size()) {
        return inv("index-range", i, op, "arity does not match the import signature");
      }
      return args(u.imm.pair.x, u.imm.pair.y != 0, false);
    }
    case UOp::kCallIndirect: {
      if (u.b >= m.types.size()) {
        return inv("index-range", i, op, "type " + std::to_string(u.b) + " out of range");
      }
      if (!m.has_table()) return inv("index-range", i, op, "module has no table");
      const wasm::FuncType& ft = m.types[u.b];
      if (u.imm.pair.x != ft.params.size() || u.imm.pair.y != ft.results.size()) {
        return inv("index-range", i, op, "arity does not match the expected type");
      }
      nd->is_call_indirect = true;
      return args(u.imm.pair.x, u.imm.pair.y != 0, true);
    }
    case UOp::kGlobalGet:
    case UOp::kGlobalSet: {
      const uint32_t g = op == UOp::kGlobalGet ? u.imm.pair.x : u.b;
      if (g >= m.num_globals()) {
        return inv("index-range", i, op, "global " + std::to_string(g) + " out of range");
      }
      break;
    }
    default:
      break;
  }

  if (between(op, UOp::kJumpI32Eq, UOp::kJumpI32GeU)) {  // compare-and-jump
    WARAN_CHECK_OK(slots(u.a));
    WARAN_CHECK_OK(slots(u.imm.pair.x));
    nd->falls_through = true;
    return taken(u.b, u.imm.pair.y);
  }
  if (between(op, UOp::kI32Load, UOp::kMemoryFill) && !m.has_memory()) {
    return inv("index-range", i, op, "module has no memory");
  }
  // Every remaining op is a straight-line value op over named slots.
  const wasm::UOperands o = wasm::value_operands(u);
  if (o.dst != wasm::UOperands::kNoSlot) WARAN_CHECK_OK(slots(o.dst));
  for (uint32_t k = 0; k < o.num_src; ++k) WARAN_CHECK_OK(slots(o.src[k]));
  nd->falls_through = true;
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

  // Per-op structural checks over the WHOLE stream (a corrupted op is
  // rejected even if a corrupted target also made it unreachable).
  std::vector<Node> nodes(n);
  for (uint32_t i = 0; i < n; ++i) {
    WARAN_CHECK_OK(node_of(m, tf, i, &nodes[i]));
    const Node& nd = nodes[i];
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

  // Reachability from the entry.
  std::vector<uint32_t> work{0};
  nodes[0].reachable = true;
  while (!work.empty()) {
    const uint32_t i = work.back();
    work.pop_back();
    auto reach = [&](uint32_t to) {
      if (!nodes[to].reachable) {
        nodes[to].reachable = true;
        work.push_back(to);
      }
    };
    for (const TakenEdge& e : nodes[i].taken) {
      if (!e.ret) reach(e.to);
    }
    if (nodes[i].falls_through) reach(i + 1);
  }

  if (out != nullptr) out->nodes = std::move(nodes);
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
    // the module signature the embedder calls through, and a call must
    // start the declared locals at zero.
    const size_t declared = m.codes[i].locals.size();
    bool zeroed = tf.init.size() >= declared;
    for (size_t k = 0; zeroed && k < declared; ++k) zeroed = tf.init[k].bits == 0;
    if (tf.num_params != ft.params.size() || tf.result_arity != ft.results.size() ||
        tf.num_locals != ft.params.size() + declared || !zeroed ||
        tf.max_stack < m.codes[i].max_stack ||
        tf.frame_cells != std::max<uint64_t>(1, uint64_t{tf.temp_base()} + tf.max_stack)) {
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
