// Translation pass: lowers each validated function body from the decoder's
// structured Instr vector into a flat, register-form micro-op stream. The
// stream is what Instance::run actually executes:
//   - a function runs in one window of frame slots: its parameters, its
//     declared locals, its constants, then one temp per operand-stack
//     height. Every value micro-op names its operands and its result as
//     slots, so local.get, local.set, local.tee and constants fold into the
//     micro-op that uses them and the interpreter keeps no stack pointer;
//   - control flow is pre-resolved: block/loop/if/br/br_if/br_table compile
//     to direct jumps carrying the target and the value a taken branch
//     carries, so the interpreter needs no runtime label stack, and an i32
//     comparison that only feeds a branch becomes a compare-and-jump;
//   - fuel-segment charges become explicit kSeg micro-ops (or immediates on
//     branch micro-ops), placed so metered semantics are bit-identical to the
//     structured interpreter's charge points.
// See doc/interpreter.md ("Translation pipeline") for the full mapping.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/result.h"
#include "wasm/module.h"
#include "wasm/types.h"

namespace waran::wasm {

// Every micro-op, in dispatch-table order. The list is expanded twice by the
// interpreter core (wasm/interp_loop.inc): once into `case` labels for the
// portable switch loop and once into a computed-goto `&&label` table for
// threaded dispatch, so a missing handler is a compile error, not a runtime
// hole. The value instructions come from the opcode table (wasm/opcode.h),
// group by group; each lowers to the micro-op of its own name, and the
// reinterprets, identities on untagged cells, have none. Consumers take
// X(name, ...): table rows carry their other columns along.
#define WARAN_UOP_LIST(X)                                                     \
  /* control */                                                               \
  X(Seg) X(Br) X(BrIf) X(Jump) X(JumpZ) X(JumpNZ) WARAN_UOPS_JUMP_I32(X)      \
  X(BrTable) X(Return) X(Unreachable) X(CallWasm) X(CallHost) X(CallIndirect) \
  /* value instructions */                                                    \
  X(Copy) X(Select) X(GlobalGet) X(GlobalSet) WARAN_OPS_MEMORY(X)             \
  WARAN_OPS_COMPARE(X) WARAN_OPS_NUMERIC(X) WARAN_OPS_CONVERT(X)

// Compare-and-jump, one per i32 comparison in WARAN_OPS_COMPARE order: an
// i32 comparison whose only use is a branch condition.
#define WARAN_UOPS_JUMP_I32(X)                                                \
  X(JumpI32Eq) X(JumpI32Ne) X(JumpI32LtS) X(JumpI32LtU) X(JumpI32GtS)         \
  X(JumpI32GtU) X(JumpI32LeS) X(JumpI32LeU) X(JumpI32GeS) X(JumpI32GeU)

enum class UOp : uint16_t {
#define WARAN_UOP_ENUM(name, ...) k##name,
  WARAN_UOP_LIST(WARAN_UOP_ENUM)
#undef WARAN_UOP_ENUM
};

inline constexpr size_t kNumUOps = 0
#define WARAN_UOP_COUNT(name, ...) +1
    WARAN_UOP_LIST(WARAN_UOP_COUNT)
#undef WARAN_UOP_COUNT
    ;

/// Branch/jump target meaning "pop the current frame" (a branch to the
/// function-level label). Valid micro-op indices never reach this value.
inline constexpr uint32_t kRetTarget = UINT32_MAX;

/// Most slots a frame may hold: every slot fits the 16-bit `a` field.
inline constexpr uint32_t kMaxFrameCells = 0xffff;

/// One micro-op, 16 bytes. Slots index the running frame's window. A taken
/// branch's `carry` packs two slots, src | dst << 16: it copies the value
/// the branch keeps into the target's result slot (a self-copy when nothing
/// is kept), or into slot 0 when the branch returns. Field use by op:
///   kSeg             b = fuel-segment length to charge
///   kJump            b = target micro-op, y = taken-edge seg
///   kJumpZ/NZ        a = condition slot, b = target, y = taken-edge seg
///   kJumpI32<cmp>    a = lhs slot, x = rhs slot, b = target, y = seg
///   kBr              b = target, x = carry, y = seg
///   kBrIf            a = condition slot, b = target (kRetTarget: return),
///                    x = carry, y = seg
///   kBrTable         a = index slot, b = base into TranslatedFunc::
///                    br_entries, x = number of explicit targets (default
///                    follows), y = slot of the carried value
///   kReturn          a = result slot (copied to slot 0)
///   kCallWasm        a = first argument slot (the callee's window starts
///                    there), b = callee function index, x = its index
///                    among the defined functions
///   kCallHost        a = first argument slot (the result lands there),
///                    b = import index, x = #params, y = has result
///   kCallIndirect    as kCallHost with b = expected type index; the table
///                    element index follows the arguments
///   value ops        b = result slot, x and y = operand slots, bottom to
///                    top; loads: x = address, y = memarg offset; stores:
///                    b = value, x = address, y = memarg offset;
///                    memory.copy/fill: b, x, y = their three operands;
///                    kSelect: a = condition; kGlobalGet: x = global;
///                    kGlobalSet: b = global, x = value
struct UInstr {
  UOp op = UOp::kUnreachable;
  uint16_t a = 0;
  uint32_t b = 0;
  union {
    uint64_t u64;
    struct {
      uint32_t x;
      uint32_t y;
    } pair;
  } imm = {};
};

static_assert(sizeof(UInstr) == 16, "keep the micro-op cell compact");

/// Packs a taken branch's value copy (see UInstr).
constexpr uint32_t carry(uint32_t src, uint32_t dst) { return src | dst << 16; }
constexpr uint32_t carry_src(uint32_t c) { return c & 0xffff; }
constexpr uint32_t carry_dst(uint32_t c) { return c >> 16; }

/// One resolved br_table arm: where to jump, what to charge, and the slot
/// that receives the carried value (slot 0 for an arm that returns).
struct UBrEntry {
  uint32_t target = 0;  // micro-op index, or kRetTarget
  uint32_t seg = 0;     // taken-edge fuel segment
  uint32_t dst = 0;
};

/// The translated form of one defined function. Its frame window holds
/// frame_cells slots: num_params parameters, the declared locals and the
/// constants (whose initial values `init` holds: zeros, then the constant
/// bits), then max_stack temps, the one for operand height h at slot
/// temp_base() + h. The temps come last: a callee's window opens at an
/// argument temp of its caller's.
struct TranslatedFunc {
  std::vector<UInstr> ops;
  std::vector<UBrEntry> br_entries;
  /// Copied over slots [num_params, temp_base()) when a call enters.
  std::vector<Value> init;
  /// Worst-case operand-stack height: the number of temps.
  uint32_t max_stack = 0;
  uint32_t num_params = 0;
  uint32_t num_locals = 0;  // params + declared locals
  uint32_t frame_cells = 0;  // temp_base() + max_stack, at least 1
  uint8_t result_arity = 0;

  uint32_t temp_base() const { return num_params + static_cast<uint32_t>(init.size()); }
};

struct TranslatedModule {
  std::vector<TranslatedFunc> funcs;  // parallel to Module::codes
};

/// The frame slots a value micro-op names: its result (kNoSlot when it has
/// none) and its operands, bottom to top. Control micro-ops name none.
struct UOperands {
  static constexpr uint32_t kNoSlot = UINT32_MAX;
  uint32_t dst = kNoSlot;
  uint32_t src[3] = {};
  uint32_t num_src = 0;
};
UOperands value_operands(const UInstr& u);

const char* uop_name(UOp op);

/// Lowers defined function `defined_index` (index into Module::codes). The
/// module must already be validated; on a validated module this only fails
/// on a representation limit: a frame of more than kMaxFrameCells slots.
Result<TranslatedFunc> translate_function(const Module& m, uint32_t defined_index);

/// Lowers every defined function.
Result<std::shared_ptr<const TranslatedModule>> translate(const Module& m);

/// Lowers every defined function and attaches the result to `m.translated`
/// so all instances share one stream. Instance::instantiate translates on
/// the fly when this was not called.
Status translate_module(Module& m);

}  // namespace waran::wasm
