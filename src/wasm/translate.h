// Translation pass: lowers each validated function body from the decoder's
// structured Instr vector into a flat, execution-oriented micro-op stream.
// The stream is what Instance::run actually executes:
//   - control flow is pre-resolved: block/loop/if/br/br_if/br_table compile
//     to direct jumps carrying baked-in (target, keep, height) tuples, so the
//     interpreter needs no runtime label stack;
//   - fuel-segment charges become explicit kSeg micro-ops (or immediates on
//     branch micro-ops), placed so metered semantics are bit-identical to the
//     structured interpreter's charge points;
//   - hot peephole patterns emitted by wcc (local.get local.get <binop>,
//     local.get <const> <cmp> br_if, local.get local.set, ...) fuse into
//     single superinstruction micro-ops.
// See doc/interpreter.md ("Translation pipeline") for the full mapping.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/result.h"
#include "wasm/module.h"

namespace waran::wasm {

// Every micro-op, in dispatch-table order. The list is expanded twice by the
// interpreter core (wasm/interp_loop.inc): once into `case` labels for the
// portable switch loop and once into a computed-goto `&&label` table for
// threaded dispatch, so a missing handler is a compile error, not a runtime
// hole. The value instructions come from the opcode table (wasm/opcode.h),
// group by group; each lowers to the micro-op of its own name, and the
// reinterprets, identities on untagged cells, have none. Consumers take
// X(name, ...): table rows carry their other columns along. Naming of the
// fused superinstructions: LL* = two-local operand form, LC* = local+constant
// form, C* = const folded into the top of stack, BrIfLL*/BrIfLC* = fused
// compare-and-branch.
#define WARAN_UOP_LIST(X)                                                     \
  /* control */                                                               \
  X(Seg) X(Br) X(BrIf) X(Jump) X(JumpZ) X(JumpNZ) X(BrTable) X(Return)        \
  X(Unreachable) X(CallWasm) X(CallHost) X(CallIndirect)                      \
  /* value instructions */                                                    \
  WARAN_OPS_VARIABLE(X) X(Const) WARAN_OPS_MEMORY(X) WARAN_OPS_COMPARE(X)     \
  WARAN_OPS_NUMERIC(X) WARAN_OPS_CONVERT(X)                                   \
  /* fused superinstructions */                                               \
  X(LLAddI32) X(LLSubI32) X(LLMulI32) X(LLAndI32) X(LLOrI32) X(LLXorI32)      \
  X(LCAddI32) X(LCMulI32) X(LCAndI32) X(LCOrI32) X(LCXorI32) X(LCShlI32)      \
  X(LCShrSI32) X(LCShrUI32)                                                   \
  X(CAddI32) X(CMulI32) X(CAndI32)                                            \
  X(LLEqI32) X(LLNeI32) X(LLLtSI32) X(LLLtUI32) X(LLGtSI32) X(LLGtUI32)       \
  X(LLLeSI32) X(LLLeUI32) X(LLGeSI32) X(LLGeUI32)                             \
  X(LCEqI32) X(LCNeI32) X(LCLtSI32) X(LCLtUI32) X(LCGtSI32) X(LCGtUI32)       \
  X(LCLeSI32) X(LCLeUI32) X(LCGeSI32) X(LCGeUI32)                             \
  X(BrIfLLEq) X(BrIfLLNe) X(BrIfLLLtS) X(BrIfLLLtU) X(BrIfLLGtS)              \
  X(BrIfLLGtU) X(BrIfLLLeS) X(BrIfLLLeU) X(BrIfLLGeS) X(BrIfLLGeU)            \
  X(BrIfLCEq) X(BrIfLCNe) X(BrIfLCLtS) X(BrIfLCLtU) X(BrIfLCGtS)              \
  X(BrIfLCGtU) X(BrIfLCLeS) X(BrIfLCLeU) X(BrIfLCGeS) X(BrIfLCGeU)            \
  X(LocalMove) X(LCAddSetI32)

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

/// One micro-op, 16 bytes. Field use by op:
///   kSeg             b = fuel-segment length to charge
///   kBr/kBrIf        a = values kept across the branch, b = target micro-op
///                    (kRetTarget: return), pair = {unwind height, taken seg}
///   kJump/kJumpZ/NZ  b = target micro-op, pair.y = taken-edge seg
///   kBrTable         b = base into TranslatedFunc::br_entries,
///                    pair.x = number of explicit targets (default follows)
///   kCallWasm        b = callee function index
///   kCallHost        b = import index, a = #params, pair.x = has result
///   kCallIndirect    b = expected type index, a = #params, pair.x = has result
///   kConst           imm.u64 = pre-built Value bits
///   local/global ops b = index; loads/stores: b = memarg offset
///   LL*              a = lhs local, b = rhs local
///   LC*              a = lhs local, imm.i32 = constant (shift counts
///                    pre-masked; LCSub is canonicalized into LCAdd)
///   C*               imm.i32 = constant applied to the stack top in place
///   BrIfLL*/BrIfLC*  a = lhs local, pair.x = rhs local / constant bits,
///                    b = target (kRetTarget: return), pair.y = taken seg
///   kLocalMove       a = src local, b = dst local
///   kLCAddSetI32     a = src local, b = dst local, imm.i32 = addend
struct UInstr {
  UOp op = UOp::kUnreachable;
  uint16_t a = 0;
  uint32_t b = 0;
  union {
    uint64_t u64;
    int32_t i32;
    struct {
      uint32_t x;
      uint32_t y;
    } pair;
  } imm = {};
};

static_assert(sizeof(UInstr) == 16, "keep the micro-op cell compact");

/// One resolved br_table arm: where to jump, what to charge, how to unwind.
struct UBrEntry {
  uint32_t target = 0;  // micro-op index, or kRetTarget
  uint32_t seg = 0;     // taken-edge fuel segment
  uint32_t height = 0;  // operand-stack height to unwind to (frame-relative)
  uint16_t keep = 0;    // values carried across the branch
};

/// The translated form of one defined function.
struct TranslatedFunc {
  std::vector<UInstr> ops;
  std::vector<UBrEntry> br_entries;
  /// Worst-case operand-stack height (validator- and translator-computed);
  /// the interpreter reserves this once at frame entry and then runs a raw
  /// Value* stack pointer with no per-push capacity checks.
  uint32_t max_stack = 0;
  uint32_t num_params = 0;
  uint32_t num_locals = 0;  // params + declared locals
  uint8_t result_arity = 0;
};

struct TranslatedModule {
  std::vector<TranslatedFunc> funcs;  // parallel to Module::codes
};

const char* uop_name(UOp op);

/// Lowers defined function `defined_index` (index into Module::codes). The
/// module must already be validated; on a validated module this only fails
/// on representation limits (e.g. >64k locals referenced by a fused op is
/// simply not fused, but >64k parameters cannot be encoded at all).
Result<TranslatedFunc> translate_function(const Module& m, uint32_t defined_index);

/// Lowers every defined function.
Result<std::shared_ptr<const TranslatedModule>> translate(const Module& m);

/// Lowers every defined function and attaches the result to `m.translated`
/// so all instances share one stream. Instance::instantiate translates on
/// the fly when this was not called.
Status translate_module(Module& m);

}  // namespace waran::wasm
