#include "wasm/translate.h"

#include <algorithm>

#include "wasm/types.h"

namespace waran::wasm {

namespace {

// The micro-op a value instruction lowers to: the one of the same name.
// The reinterprets have none: on an untagged cell they are the identity.
bool same_name_uop(Op op, UOp* out) {
  switch (op) {
#define WARAN_LOWER(name, ...) \
  case Op::k##name:            \
    *out = UOp::k##name;       \
    return true;
    WARAN_OPS_MEMORY(WARAN_LOWER) WARAN_OPS_COMPARE(WARAN_LOWER)
    WARAN_OPS_NUMERIC(WARAN_LOWER) WARAN_OPS_CONVERT(WARAN_LOWER)
#undef WARAN_LOWER
    default:
      return false;
  }
}

// The instruction a table-lowered value micro-op implements.
bool same_name_op(UOp uop, Op* out) {
  switch (uop) {
#define WARAN_RAISE(name, ...) \
  case UOp::k##name:           \
    *out = Op::k##name;        \
    return true;
    WARAN_OPS_MEMORY(WARAN_RAISE) WARAN_OPS_COMPARE(WARAN_RAISE)
    WARAN_OPS_NUMERIC(WARAN_RAISE) WARAN_OPS_CONVERT(WARAN_RAISE)
#undef WARAN_RAISE
    default:
      return false;
  }
}

constexpr uint16_t ord(UOp op) { return static_cast<uint16_t>(op); }

/// i32 comparisons in WARAN_OPS_COMPARE order (Eq, Ne, LtS, LtU, GtS, GtU,
/// LeS, LeU, GeS, GeU): the index of each one's negation.
constexpr uint16_t kI32Negation[10] = {1, 0, 8, 9, 6, 7, 4, 5, 2, 3};

bool is_i32_compare(UOp op) { return ord(op) >= ord(UOp::kI32Eq) && ord(op) <= ord(UOp::kI32GeU); }

/// True for instructions that end a fuel segment: those whose successor may
/// be something other than pc+1 (branches, calls, returns, `if`/`else`
/// jumps, and `unreachable`). `block`, `loop` and non-final `end` always
/// fall through, so straight-line runs extend across them — a run charged at
/// entry executes in full on every non-trapping path, which keeps
/// segment-level fuel accounting exactly equal to per-instruction
/// accounting on success.
bool is_segment_end(Op op) {
  switch (op) {
    case Op::kUnreachable:
    case Op::kIf:
    case Op::kElse:
    case Op::kBr:
    case Op::kBrIf:
    case Op::kBrTable:
    case Op::kReturn:
    case Op::kCall:
    case Op::kCallIndirect:
      return true;
    default:
      return false;
  }
}

Value const_value(const Instr& ins) {
  switch (ins.op) {
    case Op::kI32Const: return Value::from_i32(ins.imm.i32);
    case Op::kI64Const: return Value::from_i64(ins.imm.i64);
    case Op::kF32Const: return Value::from_f32(ins.imm.f32);
    default: return Value::from_f64(ins.imm.f64);
  }
}

bool is_const(Op op) {
  return op == Op::kI32Const || op == Op::kI64Const || op == Op::kF32Const ||
         op == Op::kF64Const;
}

/// One open block, loop, if or the function body, during emission.
struct TFrame {
  Op kind;
  bool is_func;
  uint32_t entry_height;
  uint8_t arity;
  uint32_t pc, end_pc;
  uint32_t head;  // loop: the micro-op a back edge jumps to
  bool reachable_at_entry;
  bool br_to_end;  // some branch targets this frame's continuation
};

struct Fixup {
  uint32_t index;      // micro-op index, or br_entries index
  uint32_t target_pc;  // patched to pc2uop[target_pc] after emission
  bool entry;
};

/// A constant's bit pattern and its frame slot, in the table that assigns
/// them (kEmpty: an unused entry).
struct ConstEntry {
  static constexpr uint32_t kEmpty = UINT32_MAX;
  uint64_t bits = 0;
  uint32_t slot = kEmpty;
};

/// The pass's working storage, kept across the functions of a module so
/// that lowering one allocates only what it returns.
struct Scratch {
  std::vector<uint32_t> seg_len;
  std::vector<ConstEntry> const_table;
  std::vector<uint32_t> const_slot;
  std::vector<Fixup> fixups;
  std::vector<uint32_t> pc2uop;
  std::vector<TFrame> fs;
  std::vector<uint32_t> stack;
};

}  // namespace

const char* uop_name(UOp op) {
  switch (op) {
#define WARAN_UOP_NAME(name, ...) case UOp::k##name: return #name;
    WARAN_UOP_LIST(WARAN_UOP_NAME)
#undef WARAN_UOP_NAME
  }
  return "?";
}

UOperands value_operands(const UInstr& u) {
  UOperands o;
  auto src = [&](uint32_t s) { o.src[o.num_src++] = s; };
  switch (u.op) {
    case UOp::kCopy:
      o.dst = u.b;
      src(u.imm.pair.x);
      return o;
    case UOp::kSelect:
      o.dst = u.b;
      src(u.imm.pair.x);
      src(u.imm.pair.y);
      src(u.a);
      return o;
    case UOp::kGlobalGet:
      o.dst = u.b;
      return o;
    case UOp::kGlobalSet:
      src(u.imm.pair.x);
      return o;
    default:
      break;
  }
  Op op;
  if (!same_name_op(u.op, &op)) return o;
  const OpInfo& info = op_info(op);
  if (is_memarg(info.imm)) {  // address in x, offset in y
    src(u.imm.pair.x);
    if (info.has_result) {
      o.dst = u.b;
    } else {
      src(u.b);
    }
    return o;
  }
  if (info.has_result) o.dst = u.b;
  const uint32_t fields[3] = {info.has_result ? u.imm.pair.x : u.b,
                              info.has_result ? u.imm.pair.y : u.imm.pair.x,
                              u.imm.pair.y};
  for (uint32_t i = 0; i < info.num_params; ++i) src(fields[i]);
  return o;
}

namespace {

Result<TranslatedFunc> lower(const Module& m, uint32_t defined_index, Scratch& scratch) {
  const Code& code = m.codes[defined_index];
  const FuncType& ft = m.func_type(m.num_imported_funcs + defined_index);
  const std::vector<Instr>& body = code.body;
  const uint32_t n = static_cast<uint32_t>(body.size());
  if (n == 0) return Error::internal("empty function body");

  // Fuel segments: a segment is a maximal straight-line run ending at (and
  // including) the next instruction that can divert control. seg_len[pc] is
  // the length of the run that starts at pc, so any branch target or
  // fall-through point is charged in O(1). Computed backwards; the final
  // function-level `end` is the base case.
  std::vector<uint32_t>& seg_len = scratch.seg_len;
  seg_len.assign(n, 0);
  seg_len[n - 1] = 1;
  for (uint32_t pc = n - 1; pc-- > 0;) {
    seg_len[pc] = is_segment_end(body[pc].op) ? 1 : seg_len[pc + 1] + 1;
  }

  TranslatedFunc tf;
  tf.num_params = static_cast<uint32_t>(ft.params.size());
  tf.num_locals = tf.num_params + static_cast<uint32_t>(code.locals.size());
  tf.result_arity = static_cast<uint8_t>(ft.results.size());

  // Frame layout: the declared locals, one slot per distinct constant bit
  // pattern in order of first use, then one temp per operand height (last,
  // so that a callee's window, which opens at an argument temp, covers
  // nothing else of the caller's). A prescan gives every constant its
  // slot; an open-addressing table, doubled when half full, maps a pattern
  // to its slot.
  tf.init.assign(code.locals.size(), Value{});
  std::vector<ConstEntry>& table = scratch.const_table;
  unsigned table_bits = 5;
  table.assign(size_t{1} << table_bits, ConstEntry{});
  auto probe = [&](uint64_t bits) -> ConstEntry& {
    size_t i = (bits * 0x9E3779B97F4A7C15ull) >> (64 - table_bits);
    while (table[i].slot != ConstEntry::kEmpty && table[i].bits != bits) {
      i = (i + 1) & (table.size() - 1);
    }
    return table[i];
  };
  std::vector<uint32_t>& const_slot = scratch.const_slot;  // by pc
  if (const_slot.size() < n) const_slot.resize(n);
  for (uint32_t pc = 0; pc < n; ++pc) {
    if (!is_const(body[pc].op)) continue;
    const uint64_t bits = const_value(body[pc]).bits;
    ConstEntry* e = &probe(bits);
    if (e->slot == ConstEntry::kEmpty) {
      const size_t used = tf.init.size() - code.locals.size() + 1;
      if (2 * used > table.size()) {  // rehash into a table twice the size
        ++table_bits;
        table.assign(size_t{1} << table_bits, ConstEntry{});
        for (size_t k = code.locals.size(); k < tf.init.size(); ++k) {
          probe(tf.init[k].bits) = {tf.init[k].bits, tf.num_params + static_cast<uint32_t>(k)};
        }
        e = &probe(bits);
      }
      *e = {bits, tf.num_params + static_cast<uint32_t>(tf.init.size())};
      tf.init.push_back(Value{bits});
    }
    const_slot[pc] = e->slot;
  }
  const uint32_t temp_base = tf.temp_base();

  // Emission walks the body with a control stack tracking entry heights and
  // reachability (unreachable instructions are dropped entirely; their fuel
  // was never charged by the structured interpreter either, since charges
  // happen only at executed charge points), and an abstract operand stack:
  // stack[h] is the slot holding the value at height h. That is the temp of
  // height h once the value is materialized, or the local or constant slot
  // of a pending local.get or constant.
  std::vector<UInstr>& uops = tf.ops;
  uops.reserve(n);  // folding leaves fewer micro-ops than instructions
  std::vector<UBrEntry>& entries = tf.br_entries;
  std::vector<Fixup>& fixups = scratch.fixups;
  fixups.clear();
  std::vector<uint32_t>& pc2uop = scratch.pc2uop;
  pc2uop.assign(n + 1, 0);
  std::vector<TFrame>& fs = scratch.fs;
  fs.clear();
  fs.push_back({Op::kBlock, true, 0, tf.result_arity, 0, n - 1, 0, true, false});
  std::vector<uint32_t>& stack = scratch.stack;
  stack.clear();
  uint32_t max_height = 0;
  bool reachable = true;
  // The micro-op that wrote the top value, while it is the last one emitted
  // and no label lies between: a local.set can retarget its result, and
  // i32.eqz, br_if and if can rewrite its comparison.
  constexpr uint32_t kNoProducer = UINT32_MAX;
  uint32_t producer = kNoProducer;

  auto temp = [&](uint32_t h) { return temp_base + h; };
  auto emit = [&](UOp op) -> UInstr* {
    uops.emplace_back();
    uops.back().op = op;
    return &uops.back();
  };
  auto emit_seg = [&](uint32_t pc) {
    if (pc < n) emit(UOp::kSeg)->b = seg_len[pc];
  };
  auto push_temp = [&]() {
    stack.push_back(temp(static_cast<uint32_t>(stack.size())));
    if (stack.size() > max_height) max_height = static_cast<uint32_t>(stack.size());
  };
  auto pop = [&]() {
    const uint32_t s = stack.back();
    stack.pop_back();
    return s;
  };
  // Copies a pending value into its temp.
  auto materialize = [&](size_t h) {
    const uint32_t t = temp(static_cast<uint32_t>(h));
    if (stack[h] == t) return;
    UInstr* u = emit(UOp::kCopy);
    u->b = t;
    u->imm.pair.x = stack[h];
    stack[h] = t;
  };
  auto materialize_from = [&](size_t h) {
    for (; h < stack.size(); ++h) materialize(h);
  };
  // The top value, when the last micro-op wrote it to its temp.
  auto top_producer = [&]() -> UInstr* {
    if (producer == kNoProducer || producer + 1 != uops.size() || stack.empty()) {
      return nullptr;
    }
    const uint32_t t = temp(static_cast<uint32_t>(stack.size() - 1));
    return stack.back() == t && uops[producer].b == t ? &uops[producer] : nullptr;
  };
  // The top value when it is a branch condition the last micro-op computed:
  // an i32 comparison or i32.eqz, which can become the jump itself.
  auto condition_producer = [&]() -> UInstr* {
    UInstr* p = top_producer();
    return p != nullptr && (is_i32_compare(p->op) || p->op == UOp::kI32Eqz) ? p : nullptr;
  };
  // Rewrites that micro-op into a jump taken when the condition is `when`,
  // and pops the condition.
  auto fold_condition = [&](UInstr* p, bool when) {
    if (p->op == UOp::kI32Eqz) {
      p->op = when ? UOp::kJumpZ : UOp::kJumpNZ;
    } else {
      uint16_t i = ord(p->op) - ord(UOp::kI32Eq);
      if (!when) i = kI32Negation[i];
      p->op = static_cast<UOp>(ord(UOp::kJumpI32Eq) + i);
    }
    p->a = static_cast<uint16_t>(p->imm.pair.x);
    p->imm.pair.x = p->imm.pair.y;  // the rhs of a comparison
    stack.pop_back();
  };
  // Resets the abstract stack to `height` materialized values: the state at
  // every label, where all incoming edges agree.
  auto canonical = [&](uint32_t height) {
    stack.resize(height);
    for (uint32_t h = 0; h < height; ++h) stack[h] = temp(h);
    if (height > max_height) max_height = height;
    producer = kNoProducer;
  };
  // Writes the top value to local `x` (popping it unless `tee`).
  auto set_local = [&](uint32_t x, bool tee) {
    const uint32_t v = stack.back();
    if (v == x) {  // local.get x; local.set x
      if (!tee) stack.pop_back();
      return;
    }
    bool pending_x = false;
    for (size_t h = 0; h + 1 < stack.size(); ++h) pending_x = pending_x || stack[h] == x;
    UInstr* p = top_producer();
    if (p != nullptr && !pending_x) {
      p->b = x;  // the producer writes the local directly
    } else {
      for (size_t h = 0; h + 1 < stack.size(); ++h) {
        if (stack[h] == x) materialize(h);
      }
      UInstr* u = emit(UOp::kCopy);
      u->b = x;
      u->imm.pair.x = v;
    }
    producer = kNoProducer;
    if (tee) {
      stack.back() = x;
    } else {
      stack.pop_back();
    }
  };

  // Resolved taken-branch info for a label at depth `d`.
  struct BrInfo {
    bool to_func = false;
    bool forward = false;    // target pc not yet emitted; needs a fixup
    uint32_t target = 0;     // micro-op index (backward) or unset (forward)
    uint32_t target_pc = 0;  // for forward targets
    uint32_t seg = 0;
    uint32_t dst = 0;        // slot receiving the carried value
    uint8_t keep = 0;
  };
  auto resolve = [&](uint32_t d) -> BrInfo {
    TFrame& f = fs[fs.size() - 1 - d];
    BrInfo bi;
    if (f.is_func) {
      bi.to_func = true;
      bi.keep = f.arity;
      return bi;
    }
    if (f.kind == Op::kLoop) {
      bi.target = f.head;
      bi.seg = seg_len[f.pc];
    } else {
      bi.keep = f.arity;
      bi.dst = temp(f.entry_height);
      bi.forward = true;
      bi.target_pc = f.end_pc + 1;
      bi.seg = f.end_pc + 1 < n ? seg_len[f.end_pc + 1] : 0;
      f.br_to_end = true;
    }
    return bi;
  };
  // Points micro-op `index`'s b, or br entry `index`'s target, at the branch.
  auto link = [&](const BrInfo& bi, uint32_t index, bool entry) {
    if (bi.forward) {
      fixups.push_back({index, bi.target_pc, entry});
    } else if (entry) {
      entries[index].target = bi.target;
    } else {
      uops[index].b = bi.target;
    }
  };

  emit_seg(0);  // function-entry charge

  for (uint32_t pc = 0; pc < n; ++pc) {
    pc2uop[pc] = static_cast<uint32_t>(uops.size());
    const Instr& ins = body[pc];

    if (!reachable) {
      // Skip dead code, but keep the control stack in sync so label depths
      // and entry heights stay correct when execution resumes.
      switch (ins.op) {
        case Op::kBlock:
        case Op::kLoop:
        case Op::kIf:
          fs.push_back({ins.op, false, static_cast<uint32_t>(stack.size()),
                        ins.block.arity(), pc, ins.imm.ctrl.end_pc, 0, false, false});
          break;
        case Op::kElse: {
          const TFrame& f = fs.back();
          reachable = f.reachable_at_entry;
          canonical(f.entry_height);
          break;
        }
        case Op::kEnd: {
          if (fs.back().is_func) {
            emit(UOp::kReturn);  // target of branches to the function label edge
            break;
          }
          const TFrame f = fs.back();
          fs.pop_back();
          reachable = f.br_to_end;
          canonical(f.entry_height + (reachable ? f.arity : 0));
          break;
        }
        default:
          break;
      }
      continue;
    }

    switch (ins.op) {
      case Op::kBlock:
      case Op::kLoop:
        // A label: every value below it is in its temp on every edge.
        materialize_from(0);
        producer = kNoProducer;
        fs.push_back({ins.op, false, static_cast<uint32_t>(stack.size()),
                      ins.block.arity(), pc, ins.imm.ctrl.end_pc,
                      static_cast<uint32_t>(uops.size()), true, false});
        continue;

      case Op::kIf: {
        const bool has_else = ins.imm.ctrl.else_pc != ins.imm.ctrl.end_pc;
        const uint32_t false_pc = has_else ? ins.imm.ctrl.else_pc + 1 : ins.imm.ctrl.end_pc;
        // The jump to the false arm: a comparison or i32.eqz that only feeds
        // this `if` becomes the jump, when no value below needs a copy.
        UInstr* u = condition_producer();
        bool below_pending = false;
        for (size_t h = 0; h + 1 < stack.size(); ++h) {
          below_pending = below_pending || stack[h] != temp(static_cast<uint32_t>(h));
        }
        if (u != nullptr && !below_pending) {
          fold_condition(u, false);
        } else {
          const uint32_t cond = pop();
          materialize_from(0);
          u = emit(UOp::kJumpZ);
          u->a = static_cast<uint16_t>(cond);
        }
        u->imm.pair.y = seg_len[false_pc];
        fixups.push_back({static_cast<uint32_t>(u - uops.data()), false_pc, false});
        producer = kNoProducer;
        // Without an else the false edge reaches the continuation directly.
        fs.push_back({Op::kIf, false, static_cast<uint32_t>(stack.size()),
                      ins.block.arity(), pc, ins.imm.ctrl.end_pc, 0, true, !has_else});
        emit_seg(pc + 1);  // true edge
        continue;
      }

      case Op::kElse: {
        // Fell out of the true branch: its results go to their temps, then
        // jump over the else arm to the continuation, which is reachable
        // now whatever the else arm does.
        TFrame& f = fs.back();
        f.br_to_end = true;
        materialize_from(f.entry_height);
        UInstr* u = emit(UOp::kJump);
        u->imm.pair.y = seg_len[f.end_pc];
        fixups.push_back({static_cast<uint32_t>(uops.size() - 1), f.end_pc + 1, false});
        canonical(f.entry_height);
        continue;
      }

      case Op::kEnd: {
        if (fs.back().is_func) {
          emit(UOp::kReturn)->a =
              static_cast<uint16_t>(tf.result_arity != 0 ? stack.back() : 0);
          continue;
        }
        const TFrame f = fs.back();
        fs.pop_back();
        materialize_from(f.entry_height);
        canonical(f.entry_height + f.arity);
        continue;
      }

      case Op::kBr: {
        const BrInfo bi = resolve(ins.imm.index);
        const uint32_t src = bi.keep != 0 ? stack.back() : 0;
        if (bi.to_func) {
          emit(UOp::kReturn)->a = static_cast<uint16_t>(src);
        } else {
          UInstr* u = emit(bi.keep != 0 ? UOp::kBr : UOp::kJump);
          if (bi.keep != 0) u->imm.pair.x = carry(src, bi.dst);
          u->imm.pair.y = bi.seg;
          link(bi, static_cast<uint32_t>(uops.size() - 1), false);
        }
        reachable = false;
        continue;
      }

      case Op::kBrIf: {
        const BrInfo bi = resolve(ins.imm.index);
        UInstr* p = condition_producer();
        if (!bi.to_func && bi.keep == 0 && p != nullptr) {
          fold_condition(p, true);
          p->imm.pair.y = bi.seg;
          link(bi, static_cast<uint32_t>(p - uops.data()), false);
        } else {
          const uint32_t cond = pop();
          const uint32_t src = bi.keep != 0 ? stack.back() : 0;
          UInstr* u = emit(bi.to_func || bi.keep != 0 ? UOp::kBrIf : UOp::kJumpNZ);
          u->a = static_cast<uint16_t>(cond);
          if (u->op == UOp::kBrIf) u->imm.pair.x = carry(src, bi.to_func ? 0 : bi.dst);
          u->imm.pair.y = bi.seg;
          if (bi.to_func) {
            u->b = kRetTarget;
          } else {
            link(bi, static_cast<uint32_t>(uops.size() - 1), false);
          }
        }
        producer = kNoProducer;
        emit_seg(pc + 1);
        continue;
      }

      case Op::kBrTable: {
        const uint32_t index = pop();
        const BrTable& bt = code.br_tables[ins.imm.br_table_index];
        UInstr* u = emit(UOp::kBrTable);
        u->a = static_cast<uint16_t>(index);
        u->b = static_cast<uint32_t>(entries.size());
        u->imm.pair.x = static_cast<uint32_t>(bt.targets.size());
        for (size_t j = 0; j <= bt.targets.size(); ++j) {
          const uint32_t d = j < bt.targets.size() ? bt.targets[j] : bt.default_target;
          const BrInfo bi = resolve(d);
          // Every arm keeps as many values as the others.
          if (bi.keep != 0) uops.back().imm.pair.y = stack.back();
          UBrEntry e;
          if (bi.to_func) {
            e.target = kRetTarget;
          } else {
            e.seg = bi.seg;
            e.dst = bi.keep != 0 ? bi.dst : 0;
          }
          entries.push_back(e);
          if (!bi.to_func) link(bi, static_cast<uint32_t>(entries.size() - 1), true);
        }
        reachable = false;
        continue;
      }

      case Op::kReturn:
        emit(UOp::kReturn)->a =
            static_cast<uint16_t>(tf.result_arity != 0 ? stack.back() : 0);
        reachable = false;
        continue;

      case Op::kUnreachable:
        emit(UOp::kUnreachable);
        reachable = false;
        continue;

      case Op::kNop:
        continue;

      case Op::kCall:
      case Op::kCallIndirect: {
        const bool indirect = ins.op == Op::kCallIndirect;
        const uint32_t callee = ins.imm.index;
        const FuncType& ct = indirect ? m.types[ins.imm.call_indirect.type_index]
                                      : m.func_type(callee);
        const uint32_t nparams = static_cast<uint32_t>(ct.params.size());
        // The arguments (and the table index) go to their temps: the
        // callee's window starts at the first argument.
        const uint32_t base = static_cast<uint32_t>(stack.size()) - nparams - (indirect ? 1 : 0);
        materialize_from(base);
        stack.resize(base);
        UInstr* u = emit(indirect ? UOp::kCallIndirect
                         : callee < m.num_imported_funcs ? UOp::kCallHost
                                                         : UOp::kCallWasm);
        u->a = static_cast<uint16_t>(temp(base));
        u->b = indirect ? ins.imm.call_indirect.type_index : callee;
        if (u->op == UOp::kCallWasm) {
          u->imm.pair.x = callee - m.num_imported_funcs;
        } else {
          u->imm.pair.x = nparams;
          u->imm.pair.y = ct.results.empty() ? 0 : 1;
        }
        if (!ct.results.empty()) push_temp();
        producer = kNoProducer;
        emit_seg(pc + 1);  // resume segment after the call returns
        continue;
      }

      case Op::kDrop:
        stack.pop_back();
        continue;

      case Op::kLocalGet:
        stack.push_back(ins.imm.index);
        if (stack.size() > max_height) max_height = static_cast<uint32_t>(stack.size());
        continue;

      case Op::kLocalSet:
      case Op::kLocalTee:
        set_local(ins.imm.index, ins.op == Op::kLocalTee);
        continue;

      case Op::kI32Const:
      case Op::kI64Const:
      case Op::kF32Const:
      case Op::kF64Const:
        stack.push_back(const_slot[pc]);
        if (stack.size() > max_height) max_height = static_cast<uint32_t>(stack.size());
        continue;

      case Op::kGlobalSet: {
        UInstr* u = emit(UOp::kGlobalSet);
        u->b = ins.imm.index;
        u->imm.pair.x = pop();
        producer = kNoProducer;
        continue;
      }

      case Op::kGlobalGet: {
        UInstr* u = emit(UOp::kGlobalGet);
        u->imm.pair.x = ins.imm.index;
        u->b = temp(static_cast<uint32_t>(stack.size()));
        push_temp();
        producer = static_cast<uint32_t>(uops.size() - 1);
        continue;
      }

      case Op::kSelect: {
        const uint32_t cond = pop();
        const uint32_t v2 = pop();
        const uint32_t v1 = pop();
        UInstr* u = emit(UOp::kSelect);
        u->a = static_cast<uint16_t>(cond);
        u->imm.pair.x = v1;
        u->imm.pair.y = v2;
        u->b = temp(static_cast<uint32_t>(stack.size()));
        push_temp();
        producer = static_cast<uint32_t>(uops.size() - 1);
        continue;
      }

      default:
        break;  // a table-typed value instruction
    }

    UOp uop;
    if (!same_name_uop(ins.op, &uop)) continue;  // reinterpret: same slot, same bits
    const OpInfo& info = op_info(ins.op);
    if (uop == UOp::kI32Eqz) {
      // i32.eqz of a comparison the last micro-op computed: its negation.
      UInstr* p = top_producer();
      if (p != nullptr && is_i32_compare(p->op)) {
        p->op = static_cast<UOp>(ord(UOp::kI32Eq) + kI32Negation[ord(p->op) - ord(UOp::kI32Eq)]);
        continue;
      }
    }
    uint32_t operands[3] = {};
    for (uint32_t i = info.num_params; i-- > 0;) operands[i] = pop();
    UInstr* u = emit(uop);
    if (is_memarg(info.imm)) {
      u->imm.pair.x = operands[0];
      u->imm.pair.y = ins.imm.mem.offset;
      u->b = info.has_result ? temp(static_cast<uint32_t>(stack.size())) : operands[1];
    } else if (info.has_result) {
      u->b = temp(static_cast<uint32_t>(stack.size()));
      u->imm.pair.x = operands[0];
      u->imm.pair.y = operands[1];
    } else {
      u->b = operands[0];
      u->imm.pair.x = operands[1];
      u->imm.pair.y = operands[2];
    }
    if (info.has_result) {
      push_temp();
      producer = static_cast<uint32_t>(uops.size() - 1);
    } else {
      producer = kNoProducer;
    }
  }
  pc2uop[n] = static_cast<uint32_t>(uops.size());

  for (const Fixup& fx : fixups) {
    const uint32_t t = pc2uop[fx.target_pc];
    if (fx.entry) {
      entries[fx.index].target = t;
    } else {
      uops[fx.index].b = t;
    }
  }

  tf.max_stack = std::max(max_height, code.max_stack);
  if (uint64_t{temp_base} + tf.max_stack > kMaxFrameCells) {
    return Error::unsupported("frame of more than 65535 slots");
  }
  tf.frame_cells = std::max<uint32_t>(1, temp_base + tf.max_stack);
  return tf;
}

}  // namespace

Result<TranslatedFunc> translate_function(const Module& m, uint32_t defined_index) {
  Scratch scratch;
  return lower(m, defined_index, scratch);
}

Result<std::shared_ptr<const TranslatedModule>> translate(const Module& m) {
  auto tm = std::make_shared<TranslatedModule>();
  tm->funcs.reserve(m.codes.size());
  Scratch scratch;
  for (uint32_t i = 0; i < m.codes.size(); ++i) {
    auto tf = lower(m, i, scratch);
    if (!tf.ok()) return tf.error();
    tm->funcs.push_back(std::move(*tf));
  }
  return std::shared_ptr<const TranslatedModule>(std::move(tm));
}

Status translate_module(Module& m) {
  auto tm = translate(m);
  if (!tm.ok()) return tm.error();
  m.translated = std::move(*tm);
  return {};
}

}  // namespace waran::wasm
