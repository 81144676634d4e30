#include "wasm/translate.h"

#include <cstring>

#include "wasm/types.h"

namespace waran::wasm {

namespace {

// --- Fusion tables -----------------------------------------------------------

struct CmpFusion {
  Op op;       // source i32 comparison
  Op inv;      // comparison equivalent to `op; i32.eqz`
  UOp ll;      // local <cmp> local
  UOp lc;      // local <cmp> const
  UOp br_ll;   // local <cmp> local; br_if
  UOp br_lc;   // local <cmp> const; br_if
};

constexpr CmpFusion kCmpFusions[] = {
    {Op::kI32Eq, Op::kI32Ne, UOp::kLLEqI32, UOp::kLCEqI32, UOp::kBrIfLLEq, UOp::kBrIfLCEq},
    {Op::kI32Ne, Op::kI32Eq, UOp::kLLNeI32, UOp::kLCNeI32, UOp::kBrIfLLNe, UOp::kBrIfLCNe},
    {Op::kI32LtS, Op::kI32GeS, UOp::kLLLtSI32, UOp::kLCLtSI32, UOp::kBrIfLLLtS, UOp::kBrIfLCLtS},
    {Op::kI32LtU, Op::kI32GeU, UOp::kLLLtUI32, UOp::kLCLtUI32, UOp::kBrIfLLLtU, UOp::kBrIfLCLtU},
    {Op::kI32GtS, Op::kI32LeS, UOp::kLLGtSI32, UOp::kLCGtSI32, UOp::kBrIfLLGtS, UOp::kBrIfLCGtS},
    {Op::kI32GtU, Op::kI32LeU, UOp::kLLGtUI32, UOp::kLCGtUI32, UOp::kBrIfLLGtU, UOp::kBrIfLCGtU},
    {Op::kI32LeS, Op::kI32GtS, UOp::kLLLeSI32, UOp::kLCLeSI32, UOp::kBrIfLLLeS, UOp::kBrIfLCLeS},
    {Op::kI32LeU, Op::kI32GtU, UOp::kLLLeUI32, UOp::kLCLeUI32, UOp::kBrIfLLLeU, UOp::kBrIfLCLeU},
    {Op::kI32GeS, Op::kI32LtS, UOp::kLLGeSI32, UOp::kLCGeSI32, UOp::kBrIfLLGeS, UOp::kBrIfLCGeS},
    {Op::kI32GeU, Op::kI32LtU, UOp::kLLGeUI32, UOp::kLCGeUI32, UOp::kBrIfLLGeU, UOp::kBrIfLCGeU},
};

const CmpFusion* cmp_fusion(Op op) {
  for (const CmpFusion& f : kCmpFusions) {
    if (f.op == op) return &f;
  }
  return nullptr;
}

bool ll_binop(Op op, UOp* out) {
  switch (op) {
    case Op::kI32Add: *out = UOp::kLLAddI32; return true;
    case Op::kI32Sub: *out = UOp::kLLSubI32; return true;
    case Op::kI32Mul: *out = UOp::kLLMulI32; return true;
    case Op::kI32And: *out = UOp::kLLAndI32; return true;
    case Op::kI32Or: *out = UOp::kLLOrI32; return true;
    case Op::kI32Xor: *out = UOp::kLLXorI32; return true;
    default: return false;
  }
}

bool lc_binop(Op op, UOp* out, bool* mask_shift) {
  *mask_shift = false;
  switch (op) {
    case Op::kI32Add: *out = UOp::kLCAddI32; return true;
    case Op::kI32Mul: *out = UOp::kLCMulI32; return true;
    case Op::kI32And: *out = UOp::kLCAndI32; return true;
    case Op::kI32Or: *out = UOp::kLCOrI32; return true;
    case Op::kI32Xor: *out = UOp::kLCXorI32; return true;
    case Op::kI32Shl: *out = UOp::kLCShlI32; *mask_shift = true; return true;
    case Op::kI32ShrS: *out = UOp::kLCShrSI32; *mask_shift = true; return true;
    case Op::kI32ShrU: *out = UOp::kLCShrUI32; *mask_shift = true; return true;
    default: return false;
  }
}

bool c_binop(Op op, UOp* out) {
  switch (op) {
    case Op::kI32Add: *out = UOp::kCAddI32; return true;
    case Op::kI32Mul: *out = UOp::kCMulI32; return true;
    case Op::kI32And: *out = UOp::kCAndI32; return true;
    default: return false;
  }
}

// The micro-op a value instruction lowers to: the one of the same name.
// The reinterprets have none: on an untagged cell they are the identity.
bool same_name_uop(Op op, UOp* out) {
  switch (op) {
#define WARAN_LOWER(name, ...) \
  case Op::k##name:            \
    *out = UOp::k##name;       \
    return true;
    WARAN_OPS_VARIABLE(WARAN_LOWER) WARAN_OPS_MEMORY(WARAN_LOWER)
    WARAN_OPS_COMPARE(WARAN_LOWER) WARAN_OPS_NUMERIC(WARAN_LOWER)
    WARAN_OPS_CONVERT(WARAN_LOWER)
#undef WARAN_LOWER
    default:
      return false;
  }
}

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

/// Net operand-stack effect of a non-control instruction: a fixed-signature
/// row pushes its result and pops its operands.
int net_stack(const Module& m, const Instr& ins) {
  const OpInfo& info = op_info(ins.op);
  if (info.fixed) return static_cast<int>(info.has_result) - info.num_params;
  switch (ins.op) {
    case Op::kI32Const: case Op::kI64Const:
    case Op::kF32Const: case Op::kF64Const:
    case Op::kLocalGet: case Op::kGlobalGet:
      return 1;
    case Op::kDrop: case Op::kLocalSet: case Op::kGlobalSet:
      return -1;
    case Op::kSelect:
      return -2;
    case Op::kCall: {
      const FuncType& ft = m.func_type(ins.imm.index);
      return static_cast<int>(ft.results.size()) - static_cast<int>(ft.params.size());
    }
    case Op::kCallIndirect: {
      const FuncType& ft = m.types[ins.imm.call_indirect.type_index];
      return static_cast<int>(ft.results.size()) - static_cast<int>(ft.params.size()) - 1;
    }
    default:
      return 0;  // local.tee
  }
}

}  // namespace

const char* uop_name(UOp op) {
  switch (op) {
#define WARAN_UOP_NAME(name, ...) case UOp::k##name: return #name;
    WARAN_UOP_LIST(WARAN_UOP_NAME)
#undef WARAN_UOP_NAME
  }
  return "?";
}

Result<TranslatedFunc> translate_function(const Module& m, uint32_t defined_index) {
  const Code& code = m.codes[defined_index];
  const FuncType& ft = m.func_type(m.num_imported_funcs + defined_index);
  const std::vector<Instr>& body = code.body;
  const uint32_t n = static_cast<uint32_t>(body.size());
  if (n == 0) return Error::internal("empty function body");
  if (ft.params.size() > 0xffff) {
    return Error::unsupported("more than 65535 parameters");
  }

  // Fuel segments: a segment is a maximal straight-line run ending at (and
  // including) the next instruction that can divert control. seg_len[pc] is
  // the length of the run that starts at pc, so any branch target or
  // fall-through point is charged in O(1). Computed backwards; the final
  // function-level `end` is the base case.
  std::vector<uint32_t> seg_len(n);
  seg_len[n - 1] = 1;
  for (uint32_t pc = n - 1; pc-- > 0;) {
    seg_len[pc] = is_segment_end(body[pc].op) ? 1 : seg_len[pc + 1] + 1;
  }

  TranslatedFunc tf;
  tf.num_params = static_cast<uint32_t>(ft.params.size());
  tf.num_locals = tf.num_params + static_cast<uint32_t>(code.locals.size());
  tf.result_arity = static_cast<uint8_t>(ft.results.size());

  // --- Pass 1: mark every pc that is the continuation of some branch, so
  // fusion never swallows an instruction another edge jumps to.
  std::vector<uint8_t> is_target(n, 0);
  {
    struct PFrame {
      Op kind;
      bool is_func;
      uint32_t pc, end_pc;
    };
    std::vector<PFrame> fs;
    fs.push_back({Op::kBlock, true, 0, n - 1});
    auto mark = [&](uint32_t d) {
      if (d >= fs.size()) return;
      const PFrame& f = fs[fs.size() - 1 - d];
      if (f.is_func) return;
      if (f.kind == Op::kLoop) {
        is_target[f.pc] = 1;
      } else if (f.end_pc + 1 < n) {
        is_target[f.end_pc + 1] = 1;
      }
    };
    for (uint32_t pc = 0; pc < n; ++pc) {
      const Instr& ins = body[pc];
      switch (ins.op) {
        case Op::kBlock:
        case Op::kLoop:
          fs.push_back({ins.op, false, pc, ins.imm.ctrl.end_pc});
          break;
        case Op::kIf:
          fs.push_back({ins.op, false, pc, ins.imm.ctrl.end_pc});
          is_target[ins.imm.ctrl.else_pc != ins.imm.ctrl.end_pc
                        ? ins.imm.ctrl.else_pc + 1
                        : ins.imm.ctrl.end_pc] = 1;
          break;
        case Op::kElse:
          is_target[ins.imm.ctrl.end_pc] = 1;
          break;
        case Op::kEnd:
          if (fs.size() > 1) fs.pop_back();
          break;
        case Op::kBr:
        case Op::kBrIf:
          mark(ins.imm.index);
          break;
        case Op::kBrTable: {
          const BrTable& bt = code.br_tables[ins.imm.br_table_index];
          for (uint32_t t : bt.targets) mark(t);
          mark(bt.default_target);
          break;
        }
        default:
          break;
      }
    }
  }

  // --- Pass 2: emit micro-ops with a control stack tracking entry heights
  // and reachability (unreachable instructions are dropped entirely; their
  // fuel was never charged by the structured interpreter either, since
  // charges happen only at executed charge points).
  struct TFrame {
    Op kind;
    bool is_func;
    uint32_t entry_height;
    uint8_t arity;
    uint32_t pc, end_pc;
    bool reachable_at_entry;
    bool br_to_end;  // some branch targets this frame's continuation
  };
  struct Fixup {
    uint32_t index;      // micro-op index, or br_entries index
    uint32_t target_pc;  // patched to pc2uop[target_pc] after emission
    bool entry;
  };
  std::vector<UInstr>& uops = tf.ops;
  uops.reserve(n);  // fusion leaves fewer micro-ops than instructions
  std::vector<UBrEntry>& entries = tf.br_entries;
  std::vector<Fixup> fixups;
  std::vector<uint32_t> pc2uop(n + 1, 0);
  std::vector<TFrame> fs;
  fs.push_back({Op::kBlock, true, 0, tf.result_arity, 0, n - 1, true, false});
  uint32_t height = 0;
  uint32_t max_height = 0;
  bool reachable = true;

  auto bump = [&](int net) {
    height = static_cast<uint32_t>(static_cast<int>(height) + net);
    if (height > max_height) max_height = height;
  };
  auto emit = [&](UOp op) -> UInstr* {
    uops.emplace_back();
    uops.back().op = op;
    return &uops.back();
  };
  auto emit_seg = [&](uint32_t pc) {
    if (pc < n) emit(UOp::kSeg)->b = seg_len[pc];
  };

  // Resolved taken-branch info for a label at depth `d`.
  struct BrInfo {
    bool to_func = false;
    bool forward = false;   // target pc not yet emitted; needs a fixup
    uint32_t target = 0;    // micro-op index (backward) or unset (forward)
    uint32_t target_pc = 0; // for forward targets
    uint32_t seg = 0;
    uint32_t height = 0;
    uint16_t keep = 0;
  };
  auto resolve = [&](uint32_t d) -> BrInfo {
    TFrame& f = fs[fs.size() - 1 - d];
    BrInfo bi;
    if (f.is_func) {
      bi.to_func = true;
      return bi;
    }
    bi.height = f.entry_height;
    if (f.kind == Op::kLoop) {
      bi.keep = 0;
      bi.target = pc2uop[f.pc];
      bi.seg = seg_len[f.pc];
    } else {
      bi.keep = f.arity;
      bi.forward = true;
      bi.target_pc = f.end_pc + 1;
      bi.seg = f.end_pc + 1 < n ? seg_len[f.end_pc + 1] : 0;
      f.br_to_end = true;
    }
    return bi;
  };

  auto local_ok = [&](uint32_t idx) { return idx < 0xffff; };
  // Interior pcs of a fused group must not be branch targets.
  auto clear_run = [&](uint32_t from, uint32_t count) {
    for (uint32_t i = 1; i < count; ++i) {
      if (is_target[from + i]) return false;
    }
    return true;
  };
  // A conditional branch folds into a fused compare-branch only when taking
  // it needs no stack adjustment: nothing kept, and the target's unwind
  // height equals the operand height before the fused pattern's pushes.
  auto br_fusable = [&](uint32_t d, uint32_t h) {
    if (d >= fs.size()) return false;
    const TFrame& f = fs[fs.size() - 1 - d];
    if (f.is_func) return f.arity == 0 && h == 0;
    if (f.kind == Op::kLoop) return f.entry_height == h;
    return f.arity == 0 && f.entry_height == h;
  };
  auto emit_fused_brif = [&](UOp op, uint32_t lhs_local, uint32_t rhs_bits,
                             uint32_t d, uint32_t brif_pc) {
    BrInfo bi = resolve(d);
    UInstr* u = emit(op);
    u->a = static_cast<uint16_t>(lhs_local);
    u->imm.pair.x = rhs_bits;
    if (bi.to_func) {
      u->b = kRetTarget;
    } else {
      u->imm.pair.y = bi.seg;
      if (bi.forward) {
        fixups.push_back({static_cast<uint32_t>(uops.size() - 1), bi.target_pc, false});
      } else {
        u->b = bi.target;
      }
    }
    emit_seg(brif_pc + 1);  // untaken fall-through starts a fresh segment
  };

  // Peephole matcher. Returns the number of source instructions consumed
  // (0: no fusion applies at `pc`). Longest patterns are tried first.
  auto try_fuse = [&](uint32_t pc) -> uint32_t {
    const Instr& i0 = body[pc];
    if (i0.op == Op::kLocalGet) {
      if (!local_ok(i0.imm.index) || pc + 1 >= n) return 0;
      const uint32_t x = i0.imm.index;
      const Instr& i1 = body[pc + 1];

      if (i1.op == Op::kLocalGet && local_ok(i1.imm.index) && pc + 2 < n &&
          clear_run(pc, 3)) {
        const uint32_t y = i1.imm.index;
        const Instr& i2 = body[pc + 2];
        UOp bop;
        if (ll_binop(i2.op, &bop)) {
          UInstr* u = emit(bop);
          u->a = static_cast<uint16_t>(x);
          u->b = y;
          bump(+1);
          return 3;
        }
        if (const CmpFusion* cf = cmp_fusion(i2.op)) {
          uint32_t len = 3;
          if (pc + 3 < n && body[pc + 3].op == Op::kI32Eqz && clear_run(pc, 4)) {
            cf = cmp_fusion(cf->inv);
            len = 4;
          }
          if (pc + len < n && body[pc + len].op == Op::kBrIf &&
              clear_run(pc, len + 1) &&
              br_fusable(body[pc + len].imm.index, height)) {
            emit_fused_brif(cf->br_ll, x, y, body[pc + len].imm.index, pc + len);
            return len + 1;
          }
          UInstr* u = emit(cf->ll);
          u->a = static_cast<uint16_t>(x);
          u->b = y;
          bump(+1);
          return len;
        }
        return 0;
      }

      if (i1.op == Op::kI32Const && pc + 2 < n && clear_run(pc, 3)) {
        const int32_t k = i1.imm.i32;
        const Instr& i2 = body[pc + 2];
        UOp bop;
        bool mask_shift;
        Op eff = i2.op;
        int32_t kk = k;
        if (eff == Op::kI32Sub) {  // x - k  ==  x + (-k)  (mod 2^32)
          eff = Op::kI32Add;
          kk = static_cast<int32_t>(0u - static_cast<uint32_t>(k));
        }
        if (lc_binop(eff, &bop, &mask_shift)) {
          if (mask_shift) kk &= 31;
          if (bop == UOp::kLCAddI32 && pc + 3 < n &&
              body[pc + 3].op == Op::kLocalSet &&
              local_ok(body[pc + 3].imm.index) && clear_run(pc, 4)) {
            UInstr* u = emit(UOp::kLCAddSetI32);
            u->a = static_cast<uint16_t>(x);
            u->b = body[pc + 3].imm.index;
            u->imm.i32 = kk;
            return 4;
          }
          UInstr* u = emit(bop);
          u->a = static_cast<uint16_t>(x);
          u->imm.i32 = kk;
          bump(+1);
          return 3;
        }
        if (const CmpFusion* cf = cmp_fusion(i2.op)) {
          uint32_t len = 3;
          if (pc + 3 < n && body[pc + 3].op == Op::kI32Eqz && clear_run(pc, 4)) {
            cf = cmp_fusion(cf->inv);
            len = 4;
          }
          if (pc + len < n && body[pc + len].op == Op::kBrIf &&
              clear_run(pc, len + 1) &&
              br_fusable(body[pc + len].imm.index, height)) {
            emit_fused_brif(cf->br_lc, x, static_cast<uint32_t>(k),
                            body[pc + len].imm.index, pc + len);
            return len + 1;
          }
          UInstr* u = emit(cf->lc);
          u->a = static_cast<uint16_t>(x);
          u->imm.i32 = k;
          bump(+1);
          return len;
        }
        return 0;
      }

      if (i1.op == Op::kI32Eqz && clear_run(pc, 2)) {
        // local.get x; i32.eqz [; br_if]  ==  (x == 0) [branch]
        if (pc + 2 < n && body[pc + 2].op == Op::kBrIf && clear_run(pc, 3) &&
            br_fusable(body[pc + 2].imm.index, height)) {
          emit_fused_brif(UOp::kBrIfLCEq, x, 0, body[pc + 2].imm.index, pc + 2);
          return 3;
        }
        UInstr* u = emit(UOp::kLCEqI32);
        u->a = static_cast<uint16_t>(x);
        u->imm.i32 = 0;
        bump(+1);
        return 2;
      }

      if (i1.op == Op::kLocalSet && clear_run(pc, 2)) {
        UInstr* u = emit(UOp::kLocalMove);
        u->a = static_cast<uint16_t>(x);
        u->b = i1.imm.index;
        return 2;
      }
      return 0;
    }

    if (i0.op == Op::kI32Const && pc + 1 < n && clear_run(pc, 2)) {
      UOp bop;
      if (c_binop(body[pc + 1].op, &bop)) {
        emit(bop)->imm.i32 = i0.imm.i32;
        return 2;
      }
    }
    return 0;
  };

  emit_seg(0);  // function-entry charge

  for (uint32_t pc = 0; pc < n;) {
    pc2uop[pc] = static_cast<uint32_t>(uops.size());
    const Instr& ins = body[pc];

    if (!reachable) {
      // Skip dead code, but keep the control stack in sync so label depths
      // and entry heights stay correct when execution resumes.
      switch (ins.op) {
        case Op::kBlock:
        case Op::kLoop:
        case Op::kIf:
          fs.push_back({ins.op, false, height, ins.block.arity(), pc,
                        ins.imm.ctrl.end_pc, false, false});
          break;
        case Op::kElse: {
          const TFrame& f = fs.back();
          reachable = f.reachable_at_entry;
          height = f.entry_height;
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
          height = f.entry_height + (reachable ? f.arity : 0);
          if (height > max_height) max_height = height;
          break;
        }
        default:
          break;
      }
      ++pc;
      continue;
    }

    switch (ins.op) {
      case Op::kBlock:
      case Op::kLoop:
        fs.push_back({ins.op, false, height, ins.block.arity(), pc,
                      ins.imm.ctrl.end_pc, true, false});
        ++pc;
        continue;

      case Op::kIf: {
        bump(-1);  // condition
        const bool has_else = ins.imm.ctrl.else_pc != ins.imm.ctrl.end_pc;
        // Without an else the false edge reaches the continuation directly.
        fs.push_back({Op::kIf, false, height, ins.block.arity(), pc,
                      ins.imm.ctrl.end_pc, true, !has_else});
        const uint32_t false_pc =
            has_else ? ins.imm.ctrl.else_pc + 1 : ins.imm.ctrl.end_pc;
        // `<cmp>; i32.eqz; if` inverts into a jump-if-nonzero, dropping the
        // eqz micro-op (legal only when neither pc is a branch target).
        bool inverted = false;
        if (pc > 0 && body[pc - 1].op == Op::kI32Eqz && !is_target[pc] &&
            !is_target[pc - 1] && !uops.empty() &&
            uops.back().op == UOp::kI32Eqz) {
          uops.pop_back();
          inverted = true;
          pc2uop[pc] = static_cast<uint32_t>(uops.size());
        }
        UInstr* u = emit(inverted ? UOp::kJumpNZ : UOp::kJumpZ);
        u->imm.pair.y = seg_len[false_pc];
        fixups.push_back({static_cast<uint32_t>(uops.size() - 1), false_pc, false});
        emit_seg(pc + 1);  // true edge
        ++pc;
        continue;
      }

      case Op::kElse: {
        // Fell out of the true branch: jump over the else arm to the end.
        const TFrame& f = fs.back();
        UInstr* u = emit(UOp::kJump);
        u->imm.pair.y = seg_len[f.end_pc];
        fixups.push_back({static_cast<uint32_t>(uops.size() - 1), f.end_pc, false});
        height = f.entry_height;
        ++pc;
        continue;
      }

      case Op::kEnd: {
        if (fs.back().is_func) {
          emit(UOp::kReturn);
          ++pc;
          continue;
        }
        const TFrame f = fs.back();
        fs.pop_back();
        height = f.entry_height + f.arity;
        if (height > max_height) max_height = height;
        ++pc;
        continue;
      }

      case Op::kBr: {
        BrInfo bi = resolve(ins.imm.index);
        if (bi.to_func) {
          emit(UOp::kReturn);
        } else {
          UInstr* u = emit(UOp::kBr);
          u->a = bi.keep;
          u->imm.pair.x = bi.height;
          u->imm.pair.y = bi.seg;
          if (bi.forward) {
            fixups.push_back({static_cast<uint32_t>(uops.size() - 1), bi.target_pc, false});
          } else {
            u->b = bi.target;
          }
        }
        reachable = false;
        ++pc;
        continue;
      }

      case Op::kBrIf: {
        bump(-1);
        BrInfo bi = resolve(ins.imm.index);
        UInstr* u = emit(UOp::kBrIf);
        if (bi.to_func) {
          u->b = kRetTarget;
        } else {
          u->a = bi.keep;
          u->imm.pair.x = bi.height;
          u->imm.pair.y = bi.seg;
          if (bi.forward) {
            fixups.push_back({static_cast<uint32_t>(uops.size() - 1), bi.target_pc, false});
          } else {
            u->b = bi.target;
          }
        }
        emit_seg(pc + 1);
        ++pc;
        continue;
      }

      case Op::kBrTable: {
        bump(-1);
        const BrTable& bt = code.br_tables[ins.imm.br_table_index];
        UInstr* u = emit(UOp::kBrTable);
        u->b = static_cast<uint32_t>(entries.size());
        u->imm.pair.x = static_cast<uint32_t>(bt.targets.size());
        for (size_t j = 0; j <= bt.targets.size(); ++j) {
          const uint32_t d =
              j < bt.targets.size() ? bt.targets[j] : bt.default_target;
          BrInfo bi = resolve(d);
          UBrEntry e;
          if (bi.to_func) {
            e.target = kRetTarget;
          } else {
            e.keep = bi.keep;
            e.height = bi.height;
            e.seg = bi.seg;
            if (bi.forward) {
              fixups.push_back({static_cast<uint32_t>(entries.size()), bi.target_pc, true});
            } else {
              e.target = bi.target;
            }
          }
          entries.push_back(e);
        }
        reachable = false;
        ++pc;
        continue;
      }

      case Op::kReturn:
        emit(UOp::kReturn);
        reachable = false;
        ++pc;
        continue;

      case Op::kUnreachable:
        emit(UOp::kUnreachable);
        reachable = false;
        ++pc;
        continue;

      case Op::kNop:
        ++pc;
        continue;

      case Op::kCall: {
        const uint32_t callee = ins.imm.index;
        const FuncType& ct = m.func_type(callee);
        if (ct.params.size() > 0xffff) {
          return Error::unsupported("more than 65535 parameters");
        }
        bump(net_stack(m, ins));
        if (callee < m.num_imported_funcs) {
          UInstr* u = emit(UOp::kCallHost);
          u->b = callee;
          u->a = static_cast<uint16_t>(ct.params.size());
          u->imm.pair.x = ct.results.empty() ? 0 : 1;
        } else {
          emit(UOp::kCallWasm)->b = callee;
        }
        emit_seg(pc + 1);  // resume segment after the call returns
        ++pc;
        continue;
      }

      case Op::kCallIndirect: {
        const FuncType& ct = m.types[ins.imm.call_indirect.type_index];
        if (ct.params.size() > 0xffff) {
          return Error::unsupported("more than 65535 parameters");
        }
        bump(net_stack(m, ins));
        UInstr* u = emit(UOp::kCallIndirect);
        u->b = ins.imm.call_indirect.type_index;
        u->a = static_cast<uint16_t>(ct.params.size());
        u->imm.pair.x = ct.results.empty() ? 0 : 1;
        emit_seg(pc + 1);
        ++pc;
        continue;
      }

      default:
        break;  // value instruction: fusion, then generic lowering
    }

    if (uint32_t consumed = try_fuse(pc)) {
      pc += consumed;
      continue;
    }

    const int net = net_stack(m, ins);
    switch (ins.op) {
      case Op::kI32Const:
        emit(UOp::kConst)->imm.u64 = Value::from_i32(ins.imm.i32).bits;
        break;
      case Op::kI64Const:
        emit(UOp::kConst)->imm.u64 = Value::from_i64(ins.imm.i64).bits;
        break;
      case Op::kF32Const:
        emit(UOp::kConst)->imm.u64 = Value::from_f32(ins.imm.f32).bits;
        break;
      case Op::kF64Const:
        emit(UOp::kConst)->imm.u64 = Value::from_f64(ins.imm.f64).bits;
        break;
      default: {
        UOp uop;
        // A reinterpret emits nothing; its segment's charge still counts it.
        if (!same_name_uop(ins.op, &uop)) break;
        UInstr* u = emit(uop);
        const OpImm imm = op_info(ins.op).imm;
        if (is_memarg(imm)) {
          u->b = ins.imm.mem.offset;
        } else if (imm == OpImm::kIndex) {
          u->b = ins.imm.index;
        }
        break;
      }
    }
    bump(net);
    ++pc;
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

  tf.max_stack = max_height > code.max_stack ? max_height : code.max_stack;
  return tf;
}

Result<std::shared_ptr<const TranslatedModule>> translate(const Module& m) {
  auto tm = std::make_shared<TranslatedModule>();
  tm->funcs.reserve(m.codes.size());
  for (uint32_t i = 0; i < m.codes.size(); ++i) {
    auto tf = translate_function(m, i);
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
