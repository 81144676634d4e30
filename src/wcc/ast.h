// Abstract syntax tree for W.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "wcc/token.h"

namespace waran::wcc {

enum class Type : uint8_t { kVoid, kI32, kI64, kF64 };

const char* to_string(Type t);

struct Expr;
using ExprPtr = std::unique_ptr<Expr>;

enum class BinOp : uint8_t {
  kAdd, kSub, kMul, kDiv, kRem,
  kEq, kNe, kLt, kGt, kLe, kGe,
  kAnd, kOr,  // short-circuit logical
  kBitAnd, kBitOr, kBitXor,
  kShl, kShrS, kShrU,  // << >> >>>: the count is masked to the operand width
};

enum class UnOp : uint8_t { kNeg, kNot };

struct Expr {
  enum class Kind : uint8_t {
    kIntLit,
    kFloatLit,
    kVarRef,
    kBinary,
    kUnary,
    kCall,   // user function, intrinsic, or host import
    kCast,   // i32(x) / i64(x) / f64(x)
  };

  Kind kind;
  uint32_t line = 0;

  // kIntLit / kFloatLit. `lit_type` is kI32 for source-level integer
  // literals; the optimizer may fold casts into kI64/kF64 literals.
  int64_t int_value = 0;
  double float_value = 0;
  Type lit_type = Type::kI32;

  // kVarRef / kCall.
  std::string name;

  // kBinary / kUnary / kCast.
  BinOp bin_op{};
  UnOp un_op{};
  Type cast_to{};

  ExprPtr lhs;  // also unary/cast operand
  ExprPtr rhs;
  std::vector<ExprPtr> args;  // kCall
};

struct Stmt;
using StmtPtr = std::unique_ptr<Stmt>;

struct Stmt {
  enum class Kind : uint8_t {
    kVarDecl,
    kAssign,
    kIf,
    kWhile,
    kBreak,
    kContinue,
    kReturn,
    kExprStmt,
    kBlock,
  };

  Kind kind;
  uint32_t line = 0;

  std::string name;  // kVarDecl / kAssign target
  Type decl_type{};  // kVarDecl
  ExprPtr expr;      // init / assigned value / condition / return / expr
  std::vector<StmtPtr> body;       // kBlock, kIf-then, kWhile body
  std::vector<StmtPtr> else_body;  // kIf
};

struct Param {
  std::string name;
  Type type;
};

struct FuncDecl {
  std::string name;
  bool exported = false;
  std::vector<Param> params;
  Type return_type = Type::kVoid;
  std::vector<StmtPtr> body;
  uint32_t line = 0;
};

struct GlobalDecl {
  std::string name;
  Type type;
  // Literal initializer (0 when omitted).
  int64_t int_init = 0;
  double float_init = 0;
  uint32_t line = 0;
};

/// Host-function declaration: imports module "env", name `name`.
struct ExternDecl {
  std::string name;
  std::vector<Param> params;
  Type return_type = Type::kVoid;
  uint32_t line = 0;
};

struct Program {
  std::vector<GlobalDecl> globals;
  std::vector<ExternDecl> externs;
  std::vector<FuncDecl> funcs;
};

}  // namespace waran::wcc
