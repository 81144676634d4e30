// Token definitions for the W language ("wcc": the WA-RAN plugin compiler).
//
// W is a deliberately small C-like language that compiles to WebAssembly
// through the in-repo wasmbuilder backend — the "tailored 5G RAN Wasm
// toolchain" the paper calls for in §6D. All WA-RAN scheduler and xApp
// plugins are written in W (src/sched/plugins.cpp embeds their sources).
#pragma once

#include <cstdint>
#include <string>

namespace waran::wcc {

enum class Tok : uint8_t {
  kEof,
  kIdent,
  kIntLit,
  kFloatLit,
  // Keywords.
  kFn,
  kVar,
  kGlobal,
  kExport,
  kExtern,
  kIf,
  kElse,
  kWhile,
  kBreak,
  kContinue,
  kReturn,
  kI32,
  kI64,
  kF64,
  // Punctuation.
  kLParen,
  kRParen,
  kLBrace,
  kRBrace,
  kComma,
  kColon,
  kSemi,
  kArrow,   // ->
  kAssign,  // =
  // Operators.
  kPlus,
  kMinus,
  kStar,
  kSlash,
  kPercent,
  kAmpAmp,
  kPipePipe,
  kAmp,     // &
  kPipe,    // |
  kCaret,   // ^
  kShl,     // <<
  kShr,     // >>  (arithmetic)
  kShrU,    // >>> (logical)
  kBang,
  kEq,   // ==
  kNe,   // !=
  kLt,
  kGt,
  kLe,
  kGe,
};

struct Token {
  Tok kind = Tok::kEof;
  std::string text;     // identifier spelling
  int64_t int_value = 0;
  double float_value = 0;
  uint32_t line = 1;
  uint32_t col = 1;
};

const char* to_string(Tok t);

}  // namespace waran::wcc
