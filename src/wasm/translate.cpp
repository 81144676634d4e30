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

// Micro-op for a plain value instruction (same name in both enums). Control
// flow, calls, consts and elided ops never reach this map.
UOp map_simple(Op op) {
  switch (op) {
#define WARAN_MAP(name) case Op::k##name: return UOp::k##name;
    WARAN_MAP(Drop) WARAN_MAP(Select)
    WARAN_MAP(LocalGet) WARAN_MAP(LocalSet) WARAN_MAP(LocalTee)
    WARAN_MAP(GlobalGet) WARAN_MAP(GlobalSet)
    WARAN_MAP(I32Load) WARAN_MAP(I64Load) WARAN_MAP(F32Load) WARAN_MAP(F64Load)
    WARAN_MAP(I32Load8S) WARAN_MAP(I32Load8U) WARAN_MAP(I32Load16S)
    WARAN_MAP(I32Load16U) WARAN_MAP(I64Load8S) WARAN_MAP(I64Load8U)
    WARAN_MAP(I64Load16S) WARAN_MAP(I64Load16U) WARAN_MAP(I64Load32S)
    WARAN_MAP(I64Load32U)
    WARAN_MAP(I32Store) WARAN_MAP(I64Store) WARAN_MAP(F32Store)
    WARAN_MAP(F64Store) WARAN_MAP(I32Store8) WARAN_MAP(I32Store16)
    WARAN_MAP(I64Store8) WARAN_MAP(I64Store16) WARAN_MAP(I64Store32)
    WARAN_MAP(MemorySize) WARAN_MAP(MemoryGrow) WARAN_MAP(MemoryCopy)
    WARAN_MAP(MemoryFill)
    WARAN_MAP(I32Eqz) WARAN_MAP(I32Eq) WARAN_MAP(I32Ne) WARAN_MAP(I32LtS)
    WARAN_MAP(I32LtU) WARAN_MAP(I32GtS) WARAN_MAP(I32GtU) WARAN_MAP(I32LeS)
    WARAN_MAP(I32LeU) WARAN_MAP(I32GeS) WARAN_MAP(I32GeU)
    WARAN_MAP(I64Eqz) WARAN_MAP(I64Eq) WARAN_MAP(I64Ne) WARAN_MAP(I64LtS)
    WARAN_MAP(I64LtU) WARAN_MAP(I64GtS) WARAN_MAP(I64GtU) WARAN_MAP(I64LeS)
    WARAN_MAP(I64LeU) WARAN_MAP(I64GeS) WARAN_MAP(I64GeU)
    WARAN_MAP(F32Eq) WARAN_MAP(F32Ne) WARAN_MAP(F32Lt) WARAN_MAP(F32Gt)
    WARAN_MAP(F32Le) WARAN_MAP(F32Ge)
    WARAN_MAP(F64Eq) WARAN_MAP(F64Ne) WARAN_MAP(F64Lt) WARAN_MAP(F64Gt)
    WARAN_MAP(F64Le) WARAN_MAP(F64Ge)
    WARAN_MAP(I32Clz) WARAN_MAP(I32Ctz) WARAN_MAP(I32Popcnt) WARAN_MAP(I32Add)
    WARAN_MAP(I32Sub) WARAN_MAP(I32Mul) WARAN_MAP(I32DivS) WARAN_MAP(I32DivU)
    WARAN_MAP(I32RemS) WARAN_MAP(I32RemU) WARAN_MAP(I32And) WARAN_MAP(I32Or)
    WARAN_MAP(I32Xor) WARAN_MAP(I32Shl) WARAN_MAP(I32ShrS) WARAN_MAP(I32ShrU)
    WARAN_MAP(I32Rotl) WARAN_MAP(I32Rotr)
    WARAN_MAP(I64Clz) WARAN_MAP(I64Ctz) WARAN_MAP(I64Popcnt) WARAN_MAP(I64Add)
    WARAN_MAP(I64Sub) WARAN_MAP(I64Mul) WARAN_MAP(I64DivS) WARAN_MAP(I64DivU)
    WARAN_MAP(I64RemS) WARAN_MAP(I64RemU) WARAN_MAP(I64And) WARAN_MAP(I64Or)
    WARAN_MAP(I64Xor) WARAN_MAP(I64Shl) WARAN_MAP(I64ShrS) WARAN_MAP(I64ShrU)
    WARAN_MAP(I64Rotl) WARAN_MAP(I64Rotr)
    WARAN_MAP(F32Abs) WARAN_MAP(F32Neg) WARAN_MAP(F32Ceil) WARAN_MAP(F32Floor)
    WARAN_MAP(F32Trunc) WARAN_MAP(F32Nearest) WARAN_MAP(F32Sqrt)
    WARAN_MAP(F32Add) WARAN_MAP(F32Sub) WARAN_MAP(F32Mul) WARAN_MAP(F32Div)
    WARAN_MAP(F32Min) WARAN_MAP(F32Max) WARAN_MAP(F32Copysign)
    WARAN_MAP(F64Abs) WARAN_MAP(F64Neg) WARAN_MAP(F64Ceil) WARAN_MAP(F64Floor)
    WARAN_MAP(F64Trunc) WARAN_MAP(F64Nearest) WARAN_MAP(F64Sqrt)
    WARAN_MAP(F64Add) WARAN_MAP(F64Sub) WARAN_MAP(F64Mul) WARAN_MAP(F64Div)
    WARAN_MAP(F64Min) WARAN_MAP(F64Max) WARAN_MAP(F64Copysign)
    WARAN_MAP(I32WrapI64)
    WARAN_MAP(I32TruncF32S) WARAN_MAP(I32TruncF32U) WARAN_MAP(I32TruncF64S)
    WARAN_MAP(I32TruncF64U) WARAN_MAP(I64TruncF32S) WARAN_MAP(I64TruncF32U)
    WARAN_MAP(I64TruncF64S) WARAN_MAP(I64TruncF64U)
    WARAN_MAP(I32TruncSatF32S) WARAN_MAP(I32TruncSatF32U)
    WARAN_MAP(I32TruncSatF64S) WARAN_MAP(I32TruncSatF64U)
    WARAN_MAP(I64TruncSatF32S) WARAN_MAP(I64TruncSatF32U)
    WARAN_MAP(I64TruncSatF64S) WARAN_MAP(I64TruncSatF64U)
    WARAN_MAP(I64ExtendI32S) WARAN_MAP(I64ExtendI32U)
    WARAN_MAP(F32ConvertI32S) WARAN_MAP(F32ConvertI32U)
    WARAN_MAP(F32ConvertI64S) WARAN_MAP(F32ConvertI64U) WARAN_MAP(F32DemoteF64)
    WARAN_MAP(F64ConvertI32S) WARAN_MAP(F64ConvertI32U)
    WARAN_MAP(F64ConvertI64S) WARAN_MAP(F64ConvertI64U) WARAN_MAP(F64PromoteF32)
    WARAN_MAP(I32Extend8S) WARAN_MAP(I32Extend16S) WARAN_MAP(I64Extend8S)
    WARAN_MAP(I64Extend16S) WARAN_MAP(I64Extend32S)
#undef WARAN_MAP
    default:
      return UOp::kUnreachable;  // validated modules never get here
  }
}

constexpr bool is_mem_access(Op op) {
  return op >= Op::kI32Load && op <= Op::kI64Store32;
}

constexpr bool has_index_imm(Op op) {
  return op >= Op::kLocalGet && op <= Op::kGlobalSet;
}

/// Net operand-stack effect of a non-control instruction.
int net_stack(const Module& m, const Instr& ins) {
  switch (ins.op) {
    case Op::kI32Const: case Op::kI64Const:
    case Op::kF32Const: case Op::kF64Const:
    case Op::kLocalGet: case Op::kGlobalGet:
    case Op::kMemorySize:
      return 1;
    case Op::kDrop: case Op::kLocalSet: case Op::kGlobalSet:
      return -1;
    case Op::kSelect:
      return -2;
    case Op::kMemoryCopy: case Op::kMemoryFill:
      return -3;
    case Op::kCall: {
      const FuncType& ft = m.func_type(ins.imm.index);
      return static_cast<int>(ft.results.size()) - static_cast<int>(ft.params.size());
    }
    case Op::kCallIndirect: {
      const FuncType& ft = m.types[ins.imm.call_indirect.type_index];
      return static_cast<int>(ft.results.size()) - static_cast<int>(ft.params.size()) - 1;
    }
    default:
      if (is_mem_access(ins.op)) {
        return (ins.op >= Op::kI32Store && ins.op <= Op::kI64Store32) ? -2 : 0;
      }
      // Remaining value ops: binops and comparisons consume one net value;
      // unary ops, conversions, tee, eqz and memory.grow are height-neutral.
      switch (ins.op) {
        case Op::kI32Eq: case Op::kI32Ne: case Op::kI32LtS: case Op::kI32LtU:
        case Op::kI32GtS: case Op::kI32GtU: case Op::kI32LeS: case Op::kI32LeU:
        case Op::kI32GeS: case Op::kI32GeU:
        case Op::kI64Eq: case Op::kI64Ne: case Op::kI64LtS: case Op::kI64LtU:
        case Op::kI64GtS: case Op::kI64GtU: case Op::kI64LeS: case Op::kI64LeU:
        case Op::kI64GeS: case Op::kI64GeU:
        case Op::kF32Eq: case Op::kF32Ne: case Op::kF32Lt: case Op::kF32Gt:
        case Op::kF32Le: case Op::kF32Ge:
        case Op::kF64Eq: case Op::kF64Ne: case Op::kF64Lt: case Op::kF64Gt:
        case Op::kF64Le: case Op::kF64Ge:
        case Op::kI32Add: case Op::kI32Sub: case Op::kI32Mul: case Op::kI32DivS:
        case Op::kI32DivU: case Op::kI32RemS: case Op::kI32RemU: case Op::kI32And:
        case Op::kI32Or: case Op::kI32Xor: case Op::kI32Shl: case Op::kI32ShrS:
        case Op::kI32ShrU: case Op::kI32Rotl: case Op::kI32Rotr:
        case Op::kI64Add: case Op::kI64Sub: case Op::kI64Mul: case Op::kI64DivS:
        case Op::kI64DivU: case Op::kI64RemS: case Op::kI64RemU: case Op::kI64And:
        case Op::kI64Or: case Op::kI64Xor: case Op::kI64Shl: case Op::kI64ShrS:
        case Op::kI64ShrU: case Op::kI64Rotl: case Op::kI64Rotr:
        case Op::kF32Add: case Op::kF32Sub: case Op::kF32Mul: case Op::kF32Div:
        case Op::kF32Min: case Op::kF32Max: case Op::kF32Copysign:
        case Op::kF64Add: case Op::kF64Sub: case Op::kF64Mul: case Op::kF64Div:
        case Op::kF64Min: case Op::kF64Max: case Op::kF64Copysign:
          return -1;
        default:
          return 0;
      }
  }
}

}  // namespace

const char* uop_name(UOp op) {
  switch (op) {
#define WARAN_UOP_NAME(name) case UOp::k##name: return #name;
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
    if (pc < n) emit(UOp::kSeg)->b = body[pc].seg_len;
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
      bi.seg = body[f.pc].seg_len;
    } else {
      bi.keep = f.arity;
      bi.forward = true;
      bi.target_pc = f.end_pc + 1;
      bi.seg = f.end_pc + 1 < n ? body[f.end_pc + 1].seg_len : 0;
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
          fs.push_back({ins.op, false, height, ins.block_arity, pc,
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
        fs.push_back({ins.op, false, height, ins.block_arity, pc,
                      ins.imm.ctrl.end_pc, true, false});
        ++pc;
        continue;

      case Op::kIf: {
        bump(-1);  // condition
        const bool has_else = ins.imm.ctrl.else_pc != ins.imm.ctrl.end_pc;
        // Without an else the false edge reaches the continuation directly.
        fs.push_back({Op::kIf, false, height, ins.block_arity, pc,
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
        u->imm.pair.y = body[false_pc].seg_len;
        fixups.push_back({static_cast<uint32_t>(uops.size() - 1), false_pc, false});
        emit_seg(pc + 1);  // true edge
        ++pc;
        continue;
      }

      case Op::kElse: {
        // Fell out of the true branch: jump over the else arm to the end.
        const TFrame& f = fs.back();
        UInstr* u = emit(UOp::kJump);
        u->imm.pair.y = body[f.end_pc].seg_len;
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
      case Op::kI32ReinterpretF32:
      case Op::kF32ReinterpretI32:
      case Op::kI64ReinterpretF64:
      case Op::kF64ReinterpretI64:
        break;  // identity on the untagged cell; fuel already counts them
      default: {
        UInstr* u = emit(map_simple(ins.op));
        if (is_mem_access(ins.op)) {
          u->b = ins.imm.mem.offset;
        } else if (has_index_imm(ins.op)) {
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
