#include "wcc/compiler.h"

#include <map>
#include <optional>
#include <set>
#include <string>

#include "wasmbuilder/builder.h"
#include "wcc/optimizer.h"
#include "wcc/parser.h"

namespace waran::wcc {
namespace {

using wasmbuilder::BlockT;
using wasmbuilder::FunctionBuilder;
using wasmbuilder::ModuleBuilder;
using wasm::Op;
using WType = wasm::ValType;

WType lower(Type t) {
  switch (t) {
    case Type::kI32: return WType::kI32;
    case Type::kI64: return WType::kI64;
    case Type::kF64: return WType::kF64;
    case Type::kVoid: break;
  }
  return WType::kI32;  // unreachable; void never lowers
}

struct HostImport {
  const char* name;
  const char* module;
  const char* import_name;
  std::vector<Type> params;
  Type result;
};

const std::vector<HostImport>& host_imports() {
  static const std::vector<HostImport> kImports = {
      {"input_len", "waran", "input_len", {}, Type::kI32},
      {"input_read", "waran", "input_read", {Type::kI32, Type::kI32, Type::kI32}, Type::kI32},
      {"output_write", "waran", "output_write", {Type::kI32, Type::kI32}, Type::kVoid},
      {"log", "waran", "log", {Type::kI32, Type::kI32}, Type::kVoid},
      {"abort", "waran", "abort", {Type::kI32}, Type::kVoid},
  };
  return kImports;
}

struct Intrinsic {
  const char* name;
  std::vector<Type> params;
  Type result;
};

const std::map<std::string, Intrinsic>& intrinsics() {
  static const std::map<std::string, Intrinsic> kIntrinsics = {
      {"load8u", {"load8u", {Type::kI32}, Type::kI32}},
      {"load16u", {"load16u", {Type::kI32}, Type::kI32}},
      {"load32", {"load32", {Type::kI32}, Type::kI32}},
      {"load64", {"load64", {Type::kI32}, Type::kI64}},
      {"loadf64", {"loadf64", {Type::kI32}, Type::kF64}},
      {"store8", {"store8", {Type::kI32, Type::kI32}, Type::kVoid}},
      {"store16", {"store16", {Type::kI32, Type::kI32}, Type::kVoid}},
      {"store32", {"store32", {Type::kI32, Type::kI32}, Type::kVoid}},
      {"store64", {"store64", {Type::kI32, Type::kI64}, Type::kVoid}},
      {"storef64", {"storef64", {Type::kI32, Type::kF64}, Type::kVoid}},
      {"memory_size", {"memory_size", {}, Type::kI32}},
      {"memory_grow", {"memory_grow", {Type::kI32}, Type::kI32}},
      {"trap", {"trap", {}, Type::kVoid}},
      {"sqrt", {"sqrt", {Type::kF64}, Type::kF64}},
      {"floor", {"floor", {Type::kF64}, Type::kF64}},
      {"ceil", {"ceil", {Type::kF64}, Type::kF64}},
      {"abs", {"abs", {Type::kF64}, Type::kF64}},
  };
  return kIntrinsics;
}

struct FuncSig {
  uint32_t index;  // wasm function index
  std::vector<Type> params;
  Type result;
};

class Compiler {
 public:
  Compiler(const Program& program, const CompileOptions& options)
      : prog_(program), options_(options) {}

  Result<std::vector<uint8_t>> run();

 private:
  const Program& prog_;
  CompileOptions options_;
  ModuleBuilder mb_;

  std::map<std::string, FuncSig> funcs_;          // user + imported host fns
  std::map<std::string, std::pair<uint32_t, Type>> globals_;

  // Per-function state.
  FunctionBuilder* fb_ = nullptr;
  const FuncDecl* current_ = nullptr;
  std::vector<std::map<std::string, std::pair<uint32_t, Type>>> scopes_;
  uint32_t depth_ = 0;  // open wasm control frames
  struct LoopCtx {
    uint32_t block_level;  // depth_ value of the break target frame
    uint32_t loop_level;   // depth_ value of the continue target frame
  };
  std::vector<LoopCtx> loops_;

  Error err(uint32_t line, const std::string& msg) const {
    std::string fn = current_ != nullptr ? current_->name : "<module>";
    return Error::validation("wcc: in " + fn + " (line " + std::to_string(line) +
                             "): " + msg);
  }

  Status collect_signatures();
  Status compile_func(const FuncDecl& f);
  Status compile_stmt(const Stmt& s);
  Result<Type> compile_expr(const Expr& e);
  Result<Type> compile_call(const Expr& e);
  Status compile_intrinsic(const Expr& e, const Intrinsic& in);

  const std::pair<uint32_t, Type>* lookup_local(const std::string& name) const {
    for (auto it = scopes_.rbegin(); it != scopes_.rend(); ++it) {
      auto found = it->find(name);
      if (found != it->end()) return &found->second;
    }
    return nullptr;
  }

  Status expect_type(uint32_t line, Type got, Type want, const char* what) {
    if (got != want) {
      return err(line, std::string(what) + ": expected " + to_string(want) +
                           ", got " + to_string(got));
    }
    return {};
  }
};

// The value of `i64(N)` or `i64(-N)` when the literal N lies beyond i32
// range: the one place W accepts such a literal. Every other cast compiles
// as before, so programs that never write one keep their exact bytes.
std::optional<int64_t> wide_i64_literal(const Expr& cast) {
  if (cast.cast_to != Type::kI64) return std::nullopt;
  const Expr* x = cast.lhs.get();
  const bool negate = x->kind == Expr::Kind::kUnary && x->un_op == UnOp::kNeg;
  if (negate) x = x->lhs.get();
  if (x->kind != Expr::Kind::kIntLit || x->lit_type != Type::kI32) return std::nullopt;
  const int64_t v = negate ? -x->int_value : x->int_value;
  if (v >= INT32_MIN && v <= INT32_MAX) return std::nullopt;
  return v;
}

// Scans expressions/statements for call names (to import only used host fns).
void collect_calls(const Expr& e, std::set<std::string>& out) {
  if (e.kind == Expr::Kind::kCall) out.insert(e.name);
  if (e.lhs) collect_calls(*e.lhs, out);
  if (e.rhs) collect_calls(*e.rhs, out);
  for (const auto& a : e.args) collect_calls(*a, out);
}

void collect_calls(const std::vector<StmtPtr>& stmts, std::set<std::string>& out) {
  for (const auto& s : stmts) {
    if (s->expr) collect_calls(*s->expr, out);
    collect_calls(s->body, out);
    collect_calls(s->else_body, out);
  }
}

Status Compiler::collect_signatures() {
  // Which host imports does the program use?
  std::set<std::string> called;
  for (const FuncDecl& f : prog_.funcs) collect_calls(f.body, called);

  for (const HostImport& hi : host_imports()) {
    if (!called.contains(hi.name)) continue;
    wasm::FuncType ft;
    for (Type p : hi.params) ft.params.push_back(lower(p));
    if (hi.result != Type::kVoid) ft.results.push_back(lower(hi.result));
    uint32_t index = mb_.import_func(hi.module, hi.import_name, ft);
    funcs_[hi.name] = FuncSig{index, hi.params, hi.result};
  }

  // Declared externs: embedder host functions, imported from module "env".
  for (const ExternDecl& e : prog_.externs) {
    if (funcs_.contains(e.name) || intrinsics().contains(e.name)) {
      return Error::validation("wcc: extern '" + e.name +
                               "' collides with an existing function");
    }
    wasm::FuncType ft;
    FuncSig sig;
    for (const Param& p : e.params) {
      ft.params.push_back(lower(p.type));
      sig.params.push_back(p.type);
    }
    if (e.return_type != Type::kVoid) ft.results.push_back(lower(e.return_type));
    sig.result = e.return_type;
    sig.index = mb_.import_func("env", e.name, ft);
    funcs_[e.name] = std::move(sig);
  }

  // Forward-declare user functions (two-pass so order doesn't matter).
  // Function indices: imports first, then user funcs in declaration order.
  uint32_t next = mb_.num_funcs();
  for (const FuncDecl& f : prog_.funcs) {
    if (funcs_.contains(f.name)) {
      return Error::validation("wcc: duplicate function '" + f.name + "'");
    }
    if (intrinsics().contains(f.name)) {
      return Error::validation("wcc: '" + f.name + "' shadows an intrinsic");
    }
    FuncSig sig;
    sig.index = next++;
    for (const Param& p : f.params) sig.params.push_back(p.type);
    sig.result = f.return_type;
    funcs_[f.name] = std::move(sig);
  }
  return {};
}

Result<std::vector<uint8_t>> Compiler::run() {
  WARAN_CHECK_OK(collect_signatures());

  mb_.add_memory(/*min_pages=*/4, /*max_pages=*/64, "memory");

  for (const GlobalDecl& g : prog_.globals) {
    if (globals_.contains(g.name)) {
      return Error::validation("wcc: duplicate global '" + g.name + "'");
    }
    wasm::Value init{};
    switch (g.type) {
      case Type::kI32: init = wasm::Value::from_i32(static_cast<int32_t>(g.int_init)); break;
      case Type::kI64: init = wasm::Value::from_i64(g.int_init); break;
      case Type::kF64: init = wasm::Value::from_f64(g.float_init); break;
      case Type::kVoid: return Error::validation("wcc: global cannot be void");
    }
    uint32_t index = mb_.add_global(lower(g.type), /*mut=*/true, init);
    globals_[g.name] = {index, g.type};
  }

  for (const FuncDecl& f : prog_.funcs) {
    WARAN_CHECK_OK(compile_func(f));
  }
  return mb_.build();
}

Status Compiler::compile_func(const FuncDecl& f) {
  wasm::FuncType ft;
  for (const Param& p : f.params) ft.params.push_back(lower(p.type));
  if (f.return_type != Type::kVoid) ft.results.push_back(lower(f.return_type));

  FunctionBuilder& fb = mb_.add_func(ft, f.exported ? f.name : "");
  fb_ = &fb;
  current_ = &f;
  depth_ = 0;
  loops_.clear();
  scopes_.clear();
  scopes_.emplace_back();

  for (uint32_t i = 0; i < f.params.size(); ++i) {
    const Param& p = f.params[i];
    if (scopes_.back().contains(p.name)) {
      return err(f.line, "duplicate parameter '" + p.name + "'");
    }
    scopes_.back()[p.name] = {i, p.type};
  }

  for (const StmtPtr& s : f.body) {
    WARAN_CHECK_OK(compile_stmt(*s));
  }

  // Non-void functions must not fall off the end; a trailing `unreachable`
  // both satisfies validation and turns a missing return into a clean trap.
  if (f.return_type != Type::kVoid) fb.op(Op::kUnreachable);
  fb.end();
  fb_ = nullptr;
  current_ = nullptr;
  return {};
}

Status Compiler::compile_stmt(const Stmt& s) {
  switch (s.kind) {
    case Stmt::Kind::kVarDecl: {
      if (scopes_.back().contains(s.name)) {
        return err(s.line, "redeclaration of '" + s.name + "' in the same scope");
      }
      uint32_t index = fb_->add_local(lower(s.decl_type));
      if (s.expr) {
        WARAN_TRY(t, compile_expr(*s.expr));
        WARAN_CHECK_OK(expect_type(s.line, t, s.decl_type, "initializer"));
        fb_->local_set(index);
      }
      scopes_.back()[s.name] = {index, s.decl_type};
      return {};
    }
    case Stmt::Kind::kAssign: {
      if (const auto* local = lookup_local(s.name)) {
        WARAN_TRY(t, compile_expr(*s.expr));
        WARAN_CHECK_OK(expect_type(s.line, t, local->second, "assignment"));
        fb_->local_set(local->first);
        return {};
      }
      auto git = globals_.find(s.name);
      if (git != globals_.end()) {
        WARAN_TRY(t, compile_expr(*s.expr));
        WARAN_CHECK_OK(expect_type(s.line, t, git->second.second, "assignment"));
        fb_->global_set(git->second.first);
        return {};
      }
      return err(s.line, "assignment to undeclared variable '" + s.name + "'");
    }
    case Stmt::Kind::kIf: {
      WARAN_TRY(cond, compile_expr(*s.expr));
      WARAN_CHECK_OK(expect_type(s.line, cond, Type::kI32, "if condition"));
      fb_->if_();
      ++depth_;
      scopes_.emplace_back();
      for (const StmtPtr& st : s.body) WARAN_CHECK_OK(compile_stmt(*st));
      scopes_.pop_back();
      if (!s.else_body.empty()) {
        fb_->else_();
        scopes_.emplace_back();
        for (const StmtPtr& st : s.else_body) WARAN_CHECK_OK(compile_stmt(*st));
        scopes_.pop_back();
      }
      fb_->end();
      --depth_;
      return {};
    }
    case Stmt::Kind::kWhile: {
      fb_->block();
      ++depth_;
      uint32_t block_level = depth_;
      fb_->loop();
      ++depth_;
      uint32_t loop_level = depth_;
      loops_.push_back({block_level, loop_level});

      WARAN_TRY(cond, compile_expr(*s.expr));
      WARAN_CHECK_OK(expect_type(s.line, cond, Type::kI32, "while condition"));
      fb_->op(Op::kI32Eqz).br_if(depth_ - block_level);  // exit when false

      scopes_.emplace_back();
      for (const StmtPtr& st : s.body) WARAN_CHECK_OK(compile_stmt(*st));
      scopes_.pop_back();

      fb_->br(depth_ - loop_level);  // backedge
      fb_->end();                    // loop
      --depth_;
      fb_->end();                    // block
      --depth_;
      loops_.pop_back();
      return {};
    }
    case Stmt::Kind::kBreak: {
      if (loops_.empty()) return err(s.line, "'break' outside a loop");
      fb_->br(depth_ - loops_.back().block_level);
      return {};
    }
    case Stmt::Kind::kContinue: {
      if (loops_.empty()) return err(s.line, "'continue' outside a loop");
      fb_->br(depth_ - loops_.back().loop_level);
      return {};
    }
    case Stmt::Kind::kReturn: {
      Type want = current_->return_type;
      if (want == Type::kVoid) {
        if (s.expr) return err(s.line, "void function returns a value");
      } else {
        if (!s.expr) return err(s.line, "non-void function needs a return value");
        WARAN_TRY(t, compile_expr(*s.expr));
        WARAN_CHECK_OK(expect_type(s.line, t, want, "return value"));
      }
      fb_->ret();
      return {};
    }
    case Stmt::Kind::kExprStmt: {
      WARAN_TRY(t, compile_expr(*s.expr));
      if (t != Type::kVoid) fb_->op(Op::kDrop);
      return {};
    }
    case Stmt::Kind::kBlock: {
      scopes_.emplace_back();
      for (const StmtPtr& st : s.body) WARAN_CHECK_OK(compile_stmt(*st));
      scopes_.pop_back();
      return {};
    }
  }
  return err(s.line, "unhandled statement kind");
}

Result<Type> Compiler::compile_expr(const Expr& e) {
  switch (e.kind) {
    case Expr::Kind::kIntLit: {
      if (e.lit_type == Type::kI64) {  // produced by cast folding
        fb_->i64_const(e.int_value);
        return Type::kI64;
      }
      if (e.int_value < INT32_MIN || e.int_value > INT32_MAX) {
        return err(e.line, "integer literal out of i32 range (use i64(...))");
      }
      fb_->i32_const(static_cast<int32_t>(e.int_value));
      return Type::kI32;
    }
    case Expr::Kind::kFloatLit:
      fb_->f64_const(e.float_value);
      return Type::kF64;

    case Expr::Kind::kVarRef: {
      if (const auto* local = lookup_local(e.name)) {
        fb_->local_get(local->first);
        return local->second;
      }
      auto git = globals_.find(e.name);
      if (git != globals_.end()) {
        fb_->global_get(git->second.first);
        return git->second.second;
      }
      return err(e.line, "use of undeclared variable '" + e.name + "'");
    }

    case Expr::Kind::kUnary: {
      if (e.un_op == UnOp::kNot) {
        WARAN_TRY(t, compile_expr(*e.lhs));
        WARAN_CHECK_OK(expect_type(e.line, t, Type::kI32, "operand of '!'"));
        fb_->op(Op::kI32Eqz);
        return Type::kI32;
      }
      // Negation: constant-fold literals, otherwise 0 - x (or f64.neg).
      if (e.lhs->kind == Expr::Kind::kIntLit) {
        int64_t v = -e.lhs->int_value;
        if (v < INT32_MIN || v > INT32_MAX) return err(e.line, "literal out of range");
        fb_->i32_const(static_cast<int32_t>(v));
        return Type::kI32;
      }
      if (e.lhs->kind == Expr::Kind::kFloatLit) {
        fb_->f64_const(-e.lhs->float_value);
        return Type::kF64;
      }
      {
        // Emit 0 first, then the operand, then subtract. Type is not known
        // until the operand compiles, so compile to a scratch local? W keeps
        // it simpler: negation of non-literals requires a cast-visible type;
        // we compile operand first into a fresh local of its type.
        // Strategy: compile operand, stash in a new local, emit 0, reload.
        WARAN_TRY(t, compile_expr(*e.lhs));
        switch (t) {
          case Type::kF64:
            fb_->op(Op::kF64Neg);
            return Type::kF64;
          case Type::kI32: {
            uint32_t tmp = fb_->add_local(WType::kI32);
            fb_->local_set(tmp).i32_const(0).local_get(tmp).op(Op::kI32Sub);
            return Type::kI32;
          }
          case Type::kI64: {
            uint32_t tmp = fb_->add_local(WType::kI64);
            fb_->local_set(tmp).i64_const(0).local_get(tmp).op(Op::kI64Sub);
            return Type::kI64;
          }
          case Type::kVoid:
            return err(e.line, "cannot negate a void expression");
        }
      }
      return err(e.line, "unreachable");
    }

    case Expr::Kind::kCast: {
      if (std::optional<int64_t> wide = wide_i64_literal(e)) {
        fb_->i64_const(*wide);
        return Type::kI64;
      }
      WARAN_TRY(from, compile_expr(*e.lhs));
      Type to = e.cast_to;
      if (from == to) return to;
      switch (from) {
        case Type::kI32:
          if (to == Type::kI64) fb_->op(Op::kI64ExtendI32S);
          if (to == Type::kF64) fb_->op(Op::kF64ConvertI32S);
          return to;
        case Type::kI64:
          if (to == Type::kI32) fb_->op(Op::kI32WrapI64);
          if (to == Type::kF64) fb_->op(Op::kF64ConvertI64S);
          return to;
        case Type::kF64:
          if (to == Type::kI32) fb_->op(Op::kI32TruncSatF64S);
          if (to == Type::kI64) fb_->op(Op::kI64TruncSatF64S);
          return to;
        case Type::kVoid:
          break;
      }
      return err(e.line, "cannot cast a void expression");
    }

    case Expr::Kind::kBinary: {
      // Short-circuit logical operators first.
      if (e.bin_op == BinOp::kAnd || e.bin_op == BinOp::kOr) {
        WARAN_TRY(lt, compile_expr(*e.lhs));
        WARAN_CHECK_OK(expect_type(e.line, lt, Type::kI32, "logical operand"));
        fb_->if_(BlockT::i32());
        ++depth_;
        if (e.bin_op == BinOp::kAnd) {
          WARAN_TRY(rt, compile_expr(*e.rhs));
          WARAN_CHECK_OK(expect_type(e.line, rt, Type::kI32, "logical operand"));
          fb_->op(Op::kI32Eqz).op(Op::kI32Eqz);  // normalize to 0/1
          fb_->else_().i32_const(0);
        } else {
          fb_->i32_const(1);
          fb_->else_();
          WARAN_TRY(rt, compile_expr(*e.rhs));
          WARAN_CHECK_OK(expect_type(e.line, rt, Type::kI32, "logical operand"));
          fb_->op(Op::kI32Eqz).op(Op::kI32Eqz);
        }
        fb_->end();
        --depth_;
        return Type::kI32;
      }

      WARAN_TRY(lt, compile_expr(*e.lhs));
      WARAN_TRY(rt, compile_expr(*e.rhs));
      if (lt != rt) {
        return err(e.line, std::string("operand type mismatch: ") + to_string(lt) +
                               " vs " + to_string(rt) + " (W has no implicit conversions)");
      }
      if (lt == Type::kVoid) return err(e.line, "void operand");

      // `int_only` spells the operators that have no f64 form.
      struct OpRow {
        Op i32, i64, f64;
        const char* int_only = nullptr;
      };
      auto row = [&](BinOp op) -> Result<OpRow> {
        switch (op) {
          case BinOp::kAdd: return OpRow{Op::kI32Add, Op::kI64Add, Op::kF64Add};
          case BinOp::kSub: return OpRow{Op::kI32Sub, Op::kI64Sub, Op::kF64Sub};
          case BinOp::kMul: return OpRow{Op::kI32Mul, Op::kI64Mul, Op::kF64Mul};
          case BinOp::kDiv: return OpRow{Op::kI32DivS, Op::kI64DivS, Op::kF64Div};
          case BinOp::kRem: return OpRow{Op::kI32RemS, Op::kI64RemS, Op::kNop, "%"};
          case BinOp::kBitAnd: return OpRow{Op::kI32And, Op::kI64And, Op::kNop, "&"};
          case BinOp::kBitOr: return OpRow{Op::kI32Or, Op::kI64Or, Op::kNop, "|"};
          case BinOp::kBitXor: return OpRow{Op::kI32Xor, Op::kI64Xor, Op::kNop, "^"};
          case BinOp::kShl: return OpRow{Op::kI32Shl, Op::kI64Shl, Op::kNop, "<<"};
          case BinOp::kShrS: return OpRow{Op::kI32ShrS, Op::kI64ShrS, Op::kNop, ">>"};
          case BinOp::kShrU: return OpRow{Op::kI32ShrU, Op::kI64ShrU, Op::kNop, ">>>"};
          case BinOp::kEq: return OpRow{Op::kI32Eq, Op::kI64Eq, Op::kF64Eq};
          case BinOp::kNe: return OpRow{Op::kI32Ne, Op::kI64Ne, Op::kF64Ne};
          case BinOp::kLt: return OpRow{Op::kI32LtS, Op::kI64LtS, Op::kF64Lt};
          case BinOp::kGt: return OpRow{Op::kI32GtS, Op::kI64GtS, Op::kF64Gt};
          case BinOp::kLe: return OpRow{Op::kI32LeS, Op::kI64LeS, Op::kF64Le};
          case BinOp::kGe: return OpRow{Op::kI32GeS, Op::kI64GeS, Op::kF64Ge};
          default: return err(e.line, "bad binary operator");
        }
      };
      WARAN_TRY(ops, row(e.bin_op));
      Op chosen = lt == Type::kI32 ? ops.i32 : lt == Type::kI64 ? ops.i64 : ops.f64;
      if (chosen == Op::kNop) {
        return err(e.line, std::string("operator '") + ops.int_only +
                               "' is not defined for f64 (integer operands only)");
      }
      fb_->op(chosen);

      bool is_compare = e.bin_op == BinOp::kEq || e.bin_op == BinOp::kNe ||
                        e.bin_op == BinOp::kLt || e.bin_op == BinOp::kGt ||
                        e.bin_op == BinOp::kLe || e.bin_op == BinOp::kGe;
      return is_compare ? Type::kI32 : lt;
    }

    case Expr::Kind::kCall:
      return compile_call(e);
  }
  return err(e.line, "unhandled expression kind");
}

Status Compiler::compile_intrinsic(const Expr& e, const Intrinsic& in) {
  if (e.args.size() != in.params.size()) {
    return err(e.line, "intrinsic '" + e.name + "' expects " +
                           std::to_string(in.params.size()) + " argument(s)");
  }
  for (size_t i = 0; i < e.args.size(); ++i) {
    WARAN_TRY(t, compile_expr(*e.args[i]));
    WARAN_CHECK_OK(expect_type(e.line, t, in.params[i], "intrinsic argument"));
  }
  const std::string& n = e.name;
  if (n == "load8u") fb_->mem(Op::kI32Load8U, 0, 0);
  else if (n == "load16u") fb_->mem(Op::kI32Load16U, 0, 1);
  else if (n == "load32") fb_->mem(Op::kI32Load, 0, 2);
  else if (n == "load64") fb_->mem(Op::kI64Load, 0, 3);
  else if (n == "loadf64") fb_->mem(Op::kF64Load, 0, 3);
  else if (n == "store8") fb_->mem(Op::kI32Store8, 0, 0);
  else if (n == "store16") fb_->mem(Op::kI32Store16, 0, 1);
  else if (n == "store32") fb_->mem(Op::kI32Store, 0, 2);
  else if (n == "store64") fb_->mem(Op::kI64Store, 0, 3);
  else if (n == "storef64") fb_->mem(Op::kF64Store, 0, 3);
  else if (n == "memory_size") fb_->memory_size();
  else if (n == "memory_grow") fb_->memory_grow();
  else if (n == "trap") fb_->op(Op::kUnreachable);
  else if (n == "sqrt") fb_->op(Op::kF64Sqrt);
  else if (n == "floor") fb_->op(Op::kF64Floor);
  else if (n == "ceil") fb_->op(Op::kF64Ceil);
  else if (n == "abs") fb_->op(Op::kF64Abs);
  else return err(e.line, "unknown intrinsic");
  return {};
}

Result<Type> Compiler::compile_call(const Expr& e) {
  // 1. Intrinsics.
  auto iit = intrinsics().find(e.name);
  if (iit != intrinsics().end()) {
    WARAN_CHECK_OK(compile_intrinsic(e, iit->second));
    return iit->second.result;
  }
  // 2. User functions and host imports (both registered in funcs_).
  auto fit = funcs_.find(e.name);
  if (fit == funcs_.end()) {
    return err(e.line, "call to undefined function '" + e.name + "'");
  }
  const FuncSig& sig = fit->second;
  if (e.args.size() != sig.params.size()) {
    return err(e.line, "'" + e.name + "' expects " + std::to_string(sig.params.size()) +
                           " argument(s), got " + std::to_string(e.args.size()));
  }
  for (size_t i = 0; i < e.args.size(); ++i) {
    WARAN_TRY(t, compile_expr(*e.args[i]));
    WARAN_CHECK_OK(expect_type(e.line, t, sig.params[i], "call argument"));
  }
  fb_->call(sig.index);
  return sig.result;
}

}  // namespace

Result<std::vector<uint8_t>> compile(std::string_view source,
                                     const CompileOptions& options) {
  WARAN_TRY(program, parse(source));
  // Codegen doubles as the typechecker; run it on the unoptimized AST first
  // so the optimizer can never mask a type error, then (optionally) emit
  // again from the simplified AST.
  Compiler unopt(program, options);
  WARAN_TRY(bytes, unopt.run());
  if (!options.optimize) return std::move(bytes);
  optimize(program);
  Compiler opt(program, options);
  return opt.run();
}

}  // namespace waran::wcc
