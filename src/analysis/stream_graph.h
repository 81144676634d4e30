// Internal to waran::analysis: the verified control-flow graph of one
// micro-op stream, built as a side product of verification. Each node is
// one micro-op; edges carry the fuel charged when the interpreter crosses
// them, so the cost analysis can run shortest/longest-path over the exact
// metering the stream encodes.
#pragma once

#include <cstdint>
#include <vector>

#include "common/result.h"
#include "wasm/module.h"
#include "wasm/translate.h"

namespace waran::analysis::internal {

struct TakenEdge {
  uint32_t to = 0;      ///< target micro-op (unused when `ret`)
  /// Fuel charged crossing this edge. Edges into the same uop may carry
  /// different charges: the translator prices an edge by the *source* pc it
  /// jumps to, and distinct source pcs (nested `end`s emit no uops) can
  /// collapse onto one uop index.
  uint64_t charge = 0;
  bool ret = false;     ///< edge pops the frame (kRetTarget)
};

struct Node {
  bool reachable = false;
  /// Execution can continue at op index + 1 (untaken conditional, charge
  /// op, straight-line op, call resume).
  bool falls_through = false;
  /// Fuel charged when the op itself executes on the fall-through path
  /// (kSeg); taken-edge charges live on the edges.
  uint64_t fall_charge = 0;
  /// kCallWasm: the fall-through edge crosses a call to `callee`
  /// (module-level function index, always a defined function).
  bool is_call_wasm = false;
  uint32_t callee = 0;
  /// kCallIndirect (callee statically unknown) — poisons worst-case
  /// fuel/frames. kCallHost costs nothing statically and is not flagged.
  bool is_call_indirect = false;
  /// kReturn (unconditional frame pop; no fall-through).
  bool is_return = false;
  std::vector<TakenEdge> taken;
};

struct StreamGraph {
  std::vector<Node> nodes;  ///< parallel to TranslatedFunc::ops
};

/// Verifies `tf` against every stream invariant and, on success, fills
/// `out` (when non-null) with the control-flow graph. This is the single
/// implementation behind verify_func and analyze().
Status build_stream_graph(const wasm::Module& m, const wasm::TranslatedFunc& tf,
                          StreamGraph* out);

}  // namespace waran::analysis::internal
