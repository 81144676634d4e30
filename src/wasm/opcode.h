// The WebAssembly instruction set the engine accepts (MVP plus sign
// extension, saturating truncation and memory.copy/fill), written once. Each
// instruction is one row, and the Op enum, to_string and op_info below are
// generated from the rows; the decoder, validator, translator, disassembler
// and WAT assembler read their facts from op_info instead of keeping lists.
//
// A row is X(Name, code, "text", Imm[, sig]):
//   Name  the enumerator Op::k<Name>. A value instruction lowers to the
//         micro-op of the same name (WARAN_UOP_LIST in wasm/translate.h
//         expands these groups).
//   code  the binary encoding; 0xFC-prefixed instructions are 0xFC00 | sub.
//   text  the mnemonic in the text format.
//   Imm   the immediate kind, OpImm::k<Imm>.
//   sig   the fixed signature `r_pp`: the result, then the operands from
//         bottom to top, one letter each (i i32, l i64, f f32, d f64,
//         v none). Rows without one are typed by hand in the validator.
// The groups exist for the micro-op list, which expands some of them in
// dispatch order: moving a row within those renumbers the micro-ops.
#pragma once

#include <cstdint>
#include <iterator>

#include "wasm/types.h"

namespace waran::wasm {

// Control flow and calls: typed by hand.
#define WARAN_OPS_CONTROL(X)                                \
  X(Unreachable, 0x00, "unreachable", None)                 \
  X(Nop, 0x01, "nop", None)                                 \
  X(Block, 0x02, "block", Block)                            \
  X(Loop, 0x03, "loop", Block)                              \
  X(If, 0x04, "if", Block)                                  \
  X(Else, 0x05, "else", None)                               \
  X(End, 0x0b, "end", None)                                 \
  X(Br, 0x0c, "br", Index)                                  \
  X(BrIf, 0x0d, "br_if", Index)                             \
  X(BrTable, 0x0e, "br_table", BrTable)                     \
  X(Return, 0x0f, "return", None)                           \
  X(Call, 0x10, "call", Index)                              \
  X(CallIndirect, 0x11, "call_indirect", CallIndirect)

// Parametric and variable instructions: typed by hand.
#define WARAN_OPS_VARIABLE(X)                               \
  X(Drop, 0x1a, "drop", None)                               \
  X(Select, 0x1b, "select", None)                           \
  X(LocalGet, 0x20, "local.get", Index)                     \
  X(LocalSet, 0x21, "local.set", Index)                     \
  X(LocalTee, 0x22, "local.tee", Index)                     \
  X(GlobalGet, 0x23, "global.get", Index)                   \
  X(GlobalSet, 0x24, "global.set", Index)

// Constants: typed by hand.
#define WARAN_OPS_CONST(X)                                  \
  X(I32Const, 0x41, "i32.const", I32)                       \
  X(I64Const, 0x42, "i64.const", I64)                       \
  X(F32Const, 0x43, "f32.const", F32)                       \
  X(F64Const, 0x44, "f64.const", F64)

// Memory access.
#define WARAN_OPS_MEMORY(X)                                 \
  X(I32Load, 0x28, "i32.load", Mem32, i_i)                  \
  X(I64Load, 0x29, "i64.load", Mem64, l_i)                  \
  X(F32Load, 0x2a, "f32.load", Mem32, f_i)                  \
  X(F64Load, 0x2b, "f64.load", Mem64, d_i)                  \
  X(I32Load8S, 0x2c, "i32.load8_s", Mem8, i_i)              \
  X(I32Load8U, 0x2d, "i32.load8_u", Mem8, i_i)              \
  X(I32Load16S, 0x2e, "i32.load16_s", Mem16, i_i)           \
  X(I32Load16U, 0x2f, "i32.load16_u", Mem16, i_i)           \
  X(I64Load8S, 0x30, "i64.load8_s", Mem8, l_i)              \
  X(I64Load8U, 0x31, "i64.load8_u", Mem8, l_i)              \
  X(I64Load16S, 0x32, "i64.load16_s", Mem16, l_i)           \
  X(I64Load16U, 0x33, "i64.load16_u", Mem16, l_i)           \
  X(I64Load32S, 0x34, "i64.load32_s", Mem32, l_i)           \
  X(I64Load32U, 0x35, "i64.load32_u", Mem32, l_i)           \
  X(I32Store, 0x36, "i32.store", Mem32, v_ii)               \
  X(I64Store, 0x37, "i64.store", Mem64, v_il)               \
  X(F32Store, 0x38, "f32.store", Mem32, v_if)               \
  X(F64Store, 0x39, "f64.store", Mem64, v_id)               \
  X(I32Store8, 0x3a, "i32.store8", Mem8, v_ii)              \
  X(I32Store16, 0x3b, "i32.store16", Mem16, v_ii)           \
  X(I64Store8, 0x3c, "i64.store8", Mem8, v_il)              \
  X(I64Store16, 0x3d, "i64.store16", Mem16, v_il)           \
  X(I64Store32, 0x3e, "i64.store32", Mem32, v_il)           \
  X(MemorySize, 0x3f, "memory.size", MemIdx, i_v)           \
  X(MemoryGrow, 0x40, "memory.grow", MemIdx, i_i)           \
  X(MemoryCopy, 0xfc0a, "memory.copy", MemIdx2, v_iii)      \
  X(MemoryFill, 0xfc0b, "memory.fill", MemIdx, v_iii)

// Comparisons.
#define WARAN_OPS_COMPARE(X)                                \
  X(I32Eqz, 0x45, "i32.eqz", None, i_i)                     \
  X(I32Eq, 0x46, "i32.eq", None, i_ii)                      \
  X(I32Ne, 0x47, "i32.ne", None, i_ii)                      \
  X(I32LtS, 0x48, "i32.lt_s", None, i_ii)                   \
  X(I32LtU, 0x49, "i32.lt_u", None, i_ii)                   \
  X(I32GtS, 0x4a, "i32.gt_s", None, i_ii)                   \
  X(I32GtU, 0x4b, "i32.gt_u", None, i_ii)                   \
  X(I32LeS, 0x4c, "i32.le_s", None, i_ii)                   \
  X(I32LeU, 0x4d, "i32.le_u", None, i_ii)                   \
  X(I32GeS, 0x4e, "i32.ge_s", None, i_ii)                   \
  X(I32GeU, 0x4f, "i32.ge_u", None, i_ii)                   \
  X(I64Eqz, 0x50, "i64.eqz", None, i_l)                     \
  X(I64Eq, 0x51, "i64.eq", None, i_ll)                      \
  X(I64Ne, 0x52, "i64.ne", None, i_ll)                      \
  X(I64LtS, 0x53, "i64.lt_s", None, i_ll)                   \
  X(I64LtU, 0x54, "i64.lt_u", None, i_ll)                   \
  X(I64GtS, 0x55, "i64.gt_s", None, i_ll)                   \
  X(I64GtU, 0x56, "i64.gt_u", None, i_ll)                   \
  X(I64LeS, 0x57, "i64.le_s", None, i_ll)                   \
  X(I64LeU, 0x58, "i64.le_u", None, i_ll)                   \
  X(I64GeS, 0x59, "i64.ge_s", None, i_ll)                   \
  X(I64GeU, 0x5a, "i64.ge_u", None, i_ll)                   \
  X(F32Eq, 0x5b, "f32.eq", None, i_ff)                      \
  X(F32Ne, 0x5c, "f32.ne", None, i_ff)                      \
  X(F32Lt, 0x5d, "f32.lt", None, i_ff)                      \
  X(F32Gt, 0x5e, "f32.gt", None, i_ff)                      \
  X(F32Le, 0x5f, "f32.le", None, i_ff)                      \
  X(F32Ge, 0x60, "f32.ge", None, i_ff)                      \
  X(F64Eq, 0x61, "f64.eq", None, i_dd)                      \
  X(F64Ne, 0x62, "f64.ne", None, i_dd)                      \
  X(F64Lt, 0x63, "f64.lt", None, i_dd)                      \
  X(F64Gt, 0x64, "f64.gt", None, i_dd)                      \
  X(F64Le, 0x65, "f64.le", None, i_dd)                      \
  X(F64Ge, 0x66, "f64.ge", None, i_dd)

// Arithmetic.
#define WARAN_OPS_NUMERIC(X)                                \
  X(I32Clz, 0x67, "i32.clz", None, i_i)                     \
  X(I32Ctz, 0x68, "i32.ctz", None, i_i)                     \
  X(I32Popcnt, 0x69, "i32.popcnt", None, i_i)               \
  X(I32Add, 0x6a, "i32.add", None, i_ii)                    \
  X(I32Sub, 0x6b, "i32.sub", None, i_ii)                    \
  X(I32Mul, 0x6c, "i32.mul", None, i_ii)                    \
  X(I32DivS, 0x6d, "i32.div_s", None, i_ii)                 \
  X(I32DivU, 0x6e, "i32.div_u", None, i_ii)                 \
  X(I32RemS, 0x6f, "i32.rem_s", None, i_ii)                 \
  X(I32RemU, 0x70, "i32.rem_u", None, i_ii)                 \
  X(I32And, 0x71, "i32.and", None, i_ii)                    \
  X(I32Or, 0x72, "i32.or", None, i_ii)                      \
  X(I32Xor, 0x73, "i32.xor", None, i_ii)                    \
  X(I32Shl, 0x74, "i32.shl", None, i_ii)                    \
  X(I32ShrS, 0x75, "i32.shr_s", None, i_ii)                 \
  X(I32ShrU, 0x76, "i32.shr_u", None, i_ii)                 \
  X(I32Rotl, 0x77, "i32.rotl", None, i_ii)                  \
  X(I32Rotr, 0x78, "i32.rotr", None, i_ii)                  \
  X(I64Clz, 0x79, "i64.clz", None, l_l)                     \
  X(I64Ctz, 0x7a, "i64.ctz", None, l_l)                     \
  X(I64Popcnt, 0x7b, "i64.popcnt", None, l_l)               \
  X(I64Add, 0x7c, "i64.add", None, l_ll)                    \
  X(I64Sub, 0x7d, "i64.sub", None, l_ll)                    \
  X(I64Mul, 0x7e, "i64.mul", None, l_ll)                    \
  X(I64DivS, 0x7f, "i64.div_s", None, l_ll)                 \
  X(I64DivU, 0x80, "i64.div_u", None, l_ll)                 \
  X(I64RemS, 0x81, "i64.rem_s", None, l_ll)                 \
  X(I64RemU, 0x82, "i64.rem_u", None, l_ll)                 \
  X(I64And, 0x83, "i64.and", None, l_ll)                    \
  X(I64Or, 0x84, "i64.or", None, l_ll)                      \
  X(I64Xor, 0x85, "i64.xor", None, l_ll)                    \
  X(I64Shl, 0x86, "i64.shl", None, l_ll)                    \
  X(I64ShrS, 0x87, "i64.shr_s", None, l_ll)                 \
  X(I64ShrU, 0x88, "i64.shr_u", None, l_ll)                 \
  X(I64Rotl, 0x89, "i64.rotl", None, l_ll)                  \
  X(I64Rotr, 0x8a, "i64.rotr", None, l_ll)                  \
  X(F32Abs, 0x8b, "f32.abs", None, f_f)                     \
  X(F32Neg, 0x8c, "f32.neg", None, f_f)                     \
  X(F32Ceil, 0x8d, "f32.ceil", None, f_f)                   \
  X(F32Floor, 0x8e, "f32.floor", None, f_f)                 \
  X(F32Trunc, 0x8f, "f32.trunc", None, f_f)                 \
  X(F32Nearest, 0x90, "f32.nearest", None, f_f)             \
  X(F32Sqrt, 0x91, "f32.sqrt", None, f_f)                   \
  X(F32Add, 0x92, "f32.add", None, f_ff)                    \
  X(F32Sub, 0x93, "f32.sub", None, f_ff)                    \
  X(F32Mul, 0x94, "f32.mul", None, f_ff)                    \
  X(F32Div, 0x95, "f32.div", None, f_ff)                    \
  X(F32Min, 0x96, "f32.min", None, f_ff)                    \
  X(F32Max, 0x97, "f32.max", None, f_ff)                    \
  X(F32Copysign, 0x98, "f32.copysign", None, f_ff)          \
  X(F64Abs, 0x99, "f64.abs", None, d_d)                     \
  X(F64Neg, 0x9a, "f64.neg", None, d_d)                     \
  X(F64Ceil, 0x9b, "f64.ceil", None, d_d)                   \
  X(F64Floor, 0x9c, "f64.floor", None, d_d)                 \
  X(F64Trunc, 0x9d, "f64.trunc", None, d_d)                 \
  X(F64Nearest, 0x9e, "f64.nearest", None, d_d)             \
  X(F64Sqrt, 0x9f, "f64.sqrt", None, d_d)                   \
  X(F64Add, 0xa0, "f64.add", None, d_dd)                    \
  X(F64Sub, 0xa1, "f64.sub", None, d_dd)                    \
  X(F64Mul, 0xa2, "f64.mul", None, d_dd)                    \
  X(F64Div, 0xa3, "f64.div", None, d_dd)                    \
  X(F64Min, 0xa4, "f64.min", None, d_dd)                    \
  X(F64Max, 0xa5, "f64.max", None, d_dd)                    \
  X(F64Copysign, 0xa6, "f64.copysign", None, d_dd)

// Conversions, in micro-op order.
#define WARAN_OPS_CONVERT(X)                                   \
  X(I32WrapI64, 0xa7, "i32.wrap_i64", None, i_l)               \
  X(I32TruncF32S, 0xa8, "i32.trunc_f32_s", None, i_f)          \
  X(I32TruncF32U, 0xa9, "i32.trunc_f32_u", None, i_f)          \
  X(I32TruncF64S, 0xaa, "i32.trunc_f64_s", None, i_d)          \
  X(I32TruncF64U, 0xab, "i32.trunc_f64_u", None, i_d)          \
  X(I64TruncF32S, 0xae, "i64.trunc_f32_s", None, l_f)          \
  X(I64TruncF32U, 0xaf, "i64.trunc_f32_u", None, l_f)          \
  X(I64TruncF64S, 0xb0, "i64.trunc_f64_s", None, l_d)          \
  X(I64TruncF64U, 0xb1, "i64.trunc_f64_u", None, l_d)          \
  X(I32TruncSatF32S, 0xfc00, "i32.trunc_sat_f32_s", None, i_f) \
  X(I32TruncSatF32U, 0xfc01, "i32.trunc_sat_f32_u", None, i_f) \
  X(I32TruncSatF64S, 0xfc02, "i32.trunc_sat_f64_s", None, i_d) \
  X(I32TruncSatF64U, 0xfc03, "i32.trunc_sat_f64_u", None, i_d) \
  X(I64TruncSatF32S, 0xfc04, "i64.trunc_sat_f32_s", None, l_f) \
  X(I64TruncSatF32U, 0xfc05, "i64.trunc_sat_f32_u", None, l_f) \
  X(I64TruncSatF64S, 0xfc06, "i64.trunc_sat_f64_s", None, l_d) \
  X(I64TruncSatF64U, 0xfc07, "i64.trunc_sat_f64_u", None, l_d) \
  X(I64ExtendI32S, 0xac, "i64.extend_i32_s", None, l_i)        \
  X(I64ExtendI32U, 0xad, "i64.extend_i32_u", None, l_i)        \
  X(F32ConvertI32S, 0xb2, "f32.convert_i32_s", None, f_i)      \
  X(F32ConvertI32U, 0xb3, "f32.convert_i32_u", None, f_i)      \
  X(F32ConvertI64S, 0xb4, "f32.convert_i64_s", None, f_l)      \
  X(F32ConvertI64U, 0xb5, "f32.convert_i64_u", None, f_l)      \
  X(F32DemoteF64, 0xb6, "f32.demote_f64", None, f_d)           \
  X(F64ConvertI32S, 0xb7, "f64.convert_i32_s", None, d_i)      \
  X(F64ConvertI32U, 0xb8, "f64.convert_i32_u", None, d_i)      \
  X(F64ConvertI64S, 0xb9, "f64.convert_i64_s", None, d_l)      \
  X(F64ConvertI64U, 0xba, "f64.convert_i64_u", None, d_l)      \
  X(F64PromoteF32, 0xbb, "f64.promote_f32", None, d_f)         \
  X(I32Extend8S, 0xc0, "i32.extend8_s", None, i_i)             \
  X(I32Extend16S, 0xc1, "i32.extend16_s", None, i_i)           \
  X(I64Extend8S, 0xc2, "i64.extend8_s", None, l_l)             \
  X(I64Extend16S, 0xc3, "i64.extend16_s", None, l_l)           \
  X(I64Extend32S, 0xc4, "i64.extend32_s", None, l_l)

// Reinterpretations: no micro-op, an untagged cell already holds the bits.
#define WARAN_OPS_REINTERPRET(X)                               \
  X(I32ReinterpretF32, 0xbc, "i32.reinterpret_f32", None, i_f) \
  X(I64ReinterpretF64, 0xbd, "i64.reinterpret_f64", None, l_d) \
  X(F32ReinterpretI32, 0xbe, "f32.reinterpret_i32", None, f_i) \
  X(F64ReinterpretI64, 0xbf, "f64.reinterpret_i64", None, d_l)
#define WARAN_OPCODES(X)                                             \
  WARAN_OPS_CONTROL(X) WARAN_OPS_VARIABLE(X) WARAN_OPS_CONST(X)      \
  WARAN_OPS_MEMORY(X) WARAN_OPS_COMPARE(X) WARAN_OPS_NUMERIC(X)      \
  WARAN_OPS_CONVERT(X) WARAN_OPS_REINTERPRET(X)

enum class Op : uint16_t {
#define WARAN_OP_ENUM(name, code, ...) k##name = code,
  WARAN_OPCODES(WARAN_OP_ENUM)
#undef WARAN_OP_ENUM
};

/// What follows the opcode, in the binary and in the text format.
enum class OpImm : uint8_t {
  kNone,
  kBlock,                         ///< 0x40 (no result) or one value type
  kIndex,                         ///< label depth, function, local or global
  kBrTable,                       ///< label depths, then the default depth
  kCallIndirect,                  ///< type index, then table index 0
  kI32, kI64,                     ///< signed LEB128 constant
  kF32, kF64,                     ///< little-endian IEEE 754 constant
  kMem8, kMem16, kMem32, kMem64,  ///< memarg {align, offset}, access width
  kMemIdx,                        ///< memory index 0
  kMemIdx2,                       ///< two memory indices 0 (memory.copy)
};

constexpr bool is_memarg(OpImm k) { return k >= OpImm::kMem8 && k <= OpImm::kMem64; }
/// True for every instruction that needs the module's memory.
constexpr bool uses_memory(OpImm k) { return k >= OpImm::kMem8; }
/// log2 of a memarg access's width: its natural (and largest) alignment.
constexpr uint32_t natural_align_log2(OpImm k) {
  return static_cast<uint32_t>(k) - static_cast<uint32_t>(OpImm::kMem8);
}

/// One row of the table.
struct OpInfo {
  const char* name = nullptr;  ///< null: no instruction has this code
  OpImm imm = OpImm::kNone;
  bool fixed = false;  ///< typed by the signature below
  uint8_t num_params = 0;
  bool has_result = false;
  ValType result{};
  ValType params[3]{};  ///< bottom to top
};

namespace op_table {

constexpr ValType sig_type(char c) {
  switch (c) {
    case 'i': return ValType::kI32;
    case 'l': return ValType::kI64;
    case 'f': return ValType::kF32;
    case 'd': return ValType::kF64;
  }
  throw "bad type letter in an opcode signature";  // fails the build
}

constexpr OpInfo row(const char* name, OpImm imm, const char* sig) {
  OpInfo info{name, imm};
  if (sig[0] == '\0') return info;
  if (sig[1] != '_') throw "opcode signature is not r_pp";
  info.fixed = true;
  info.has_result = sig[0] != 'v';
  if (info.has_result) info.result = sig_type(sig[0]);
  for (const char* p = sig + 2; *p != '\0' && *p != 'v'; ++p) {
    info.params[info.num_params++] = sig_type(*p);
  }
  return info;
}

struct Table {
  OpInfo one_byte[256];
  OpInfo prefixed[0x0c];  ///< by 0xFC sub-opcode
};

constexpr Table build() {
  Table t{};
#define WARAN_OP_ROW(id, code, text, imm, ...)                        \
  {                                                                  \
    OpInfo& cell =                                                   \
        code < 0x100 ? t.one_byte[code] : t.prefixed[code - 0xfc00]; \
    if (cell.name != nullptr) throw "two opcode rows share a code";  \
    cell = row(text, OpImm::k##imm, #__VA_ARGS__);                   \
  }
  WARAN_OPCODES(WARAN_OP_ROW)
#undef WARAN_OP_ROW
  return t;
}

inline constexpr Table kTable = build();
inline constexpr OpInfo kNoOp{};

}  // namespace op_table

/// The row of binary code `code` (one byte, or 0xFC00 | sub-opcode): two
/// array reads. Its `name` is null when no instruction has the code.
constexpr const OpInfo& op_info(uint32_t code) {
  if (code < 0x100) return op_table::kTable.one_byte[code];
  const uint32_t sub = code - 0xfc00;
  return sub < std::size(op_table::kTable.prefixed) ? op_table::kTable.prefixed[sub]
                                                     : op_table::kNoOp;
}
constexpr const OpInfo& op_info(Op op) { return op_info(static_cast<uint32_t>(op)); }

constexpr const char* to_string(Op op) {
  const char* name = op_info(op).name;
  return name != nullptr ? name : "<invalid>";
}

}  // namespace waran::wasm
