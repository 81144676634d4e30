// wcc: compiles W source to a WebAssembly module binary.
//
// Language surface (see also doc/wcc.md):
//   global g: i32 = 0;
//   export fn schedule() -> i32 { ... }
//   var x: f64 = 1.5;  if/else, while, break, continue, return
//   casts: i32(x), i64(x), f64(x)    (float->int casts saturate)
//   integer literals are i32; a wider one is legal only as i64(N) / i64(-N)
//
// Binary operators, tightest first, all left-associative:
//   * / %   + -   << >> >>>   &   ^   |   < > <= >=   == !=   &&   ||
// & | ^ << >> >>> take two i32 or two i64 operands (never f64); >> is
// arithmetic, >>> logical, and a shift count is masked to the operand
// width as in Wasm.
//
// Intrinsics lower to single opcodes:
//   load8u/load16u/load32/load64/loadf64 (addr) ; store8/16/32/64/f64
//   memory_size() memory_grow(pages) trap()
//   sqrt/floor/ceil/abs (f64)
//
// Host functions from the WA-RAN ABI are imported on demand (only the ones
// a program actually calls become wasm imports):
//   input_len() -> i32 ; input_read(dst, off, len) -> i32
//   output_write(ptr, len) ; log(ptr, len) ; abort(code)
// Additional embedder host functions (the gNB / RIC control surfaces) are
// declared with `extern fn name(args...) -> type;` and import module "env".
#pragma once

#include <cstdint>
#include <string_view>
#include <vector>

#include "common/result.h"

namespace waran::wcc {

struct CompileOptions {
  /// Run the AST optimizer (constant folding, algebraic identities, dead
  /// branches — see wcc/optimizer.h). Type checking always happens on the
  /// unoptimized program, so diagnostics are identical either way.
  bool optimize = true;
};

/// Compiles W source to a wasm binary module with one linear memory of 4 to
/// 64 pages, exported as "memory". The output always passes the engine's
/// validator (the test suite enforces this).
Result<std::vector<uint8_t>> compile(std::string_view source,
                                     const CompileOptions& options = {});

}  // namespace waran::wcc
