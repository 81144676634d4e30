#include "wcc/parser.h"

#include <optional>

#include "wcc/lexer.h"

namespace waran::wcc {

const char* to_string(Type t) {
  switch (t) {
    case Type::kVoid: return "void";
    case Type::kI32: return "i32";
    case Type::kI64: return "i64";
    case Type::kF64: return "f64";
  }
  return "?";
}

namespace {

class Parser {
 public:
  explicit Parser(std::vector<Token> tokens) : toks_(std::move(tokens)) {}

  Result<Program> run() {
    Program prog;
    while (peek().kind != Tok::kEof) {
      if (peek().kind == Tok::kGlobal) {
        auto g = global_decl();
        if (!g.ok()) return g.error();
        prog.globals.push_back(std::move(*g));
      } else if (peek().kind == Tok::kExtern) {
        auto e = extern_decl();
        if (!e.ok()) return e.error();
        prog.externs.push_back(std::move(*e));
      } else if (peek().kind == Tok::kFn || peek().kind == Tok::kExport) {
        auto f = func_decl();
        if (!f.ok()) return f.error();
        prog.funcs.push_back(std::move(*f));
      } else {
        return err("expected 'fn', 'export fn', 'extern fn' or 'global'");
      }
    }
    return prog;
  }

 private:
  std::vector<Token> toks_;
  size_t pos_ = 0;

  const Token& peek(size_t ahead = 0) const {
    size_t i = pos_ + ahead;
    return i < toks_.size() ? toks_[i] : toks_.back();
  }
  Token take() { return toks_[pos_ < toks_.size() - 1 ? pos_++ : pos_]; }

  Error err(const std::string& msg) const {
    const Token& t = peek();
    return Error::decode("wcc parse error at " + std::to_string(t.line) + ":" +
                         std::to_string(t.col) + ": " + msg + " (got " +
                         to_string(t.kind) + ")");
  }

  bool accept(Tok k) {
    if (peek().kind == k) {
      take();
      return true;
    }
    return false;
  }

  Status expect(Tok k, const char* what) {
    if (!accept(k)) return err(std::string("expected ") + what);
    return {};
  }

  Result<Type> type_name() {
    switch (peek().kind) {
      case Tok::kI32: take(); return Type::kI32;
      case Tok::kI64: take(); return Type::kI64;
      case Tok::kF64: take(); return Type::kF64;
      default: return err("expected a type (i32, i64, f64)");
    }
  }

  Result<GlobalDecl> global_decl() {
    GlobalDecl g;
    g.line = peek().line;
    take();  // 'global'
    if (peek().kind != Tok::kIdent) return err("expected global name");
    g.name = take().text;
    WARAN_CHECK_OK(expect(Tok::kColon, "':'"));
    WARAN_TRY(ty, type_name());
    g.type = ty;
    if (accept(Tok::kAssign)) {
      bool neg = accept(Tok::kMinus);
      if (peek().kind == Tok::kIntLit) {
        g.int_init = take().int_value * (neg ? -1 : 1);
        g.float_init = static_cast<double>(g.int_init);
      } else if (peek().kind == Tok::kFloatLit) {
        g.float_init = take().float_value * (neg ? -1.0 : 1.0);
      } else {
        return err("global initializer must be a literal");
      }
    }
    WARAN_CHECK_OK(expect(Tok::kSemi, "';'"));
    return g;
  }

  Result<ExternDecl> extern_decl() {
    ExternDecl e;
    e.line = peek().line;
    take();  // 'extern'
    WARAN_CHECK_OK(expect(Tok::kFn, "'fn' after 'extern'"));
    if (peek().kind != Tok::kIdent) return err("expected extern function name");
    e.name = take().text;
    WARAN_CHECK_OK(expect(Tok::kLParen, "'('"));
    if (!accept(Tok::kRParen)) {
      while (true) {
        if (peek().kind != Tok::kIdent) return err("expected parameter name");
        Param p;
        p.name = take().text;
        WARAN_CHECK_OK(expect(Tok::kColon, "':'"));
        WARAN_TRY(ty, type_name());
        p.type = ty;
        e.params.push_back(std::move(p));
        if (accept(Tok::kRParen)) break;
        WARAN_CHECK_OK(expect(Tok::kComma, "','"));
      }
    }
    if (accept(Tok::kArrow)) {
      WARAN_TRY(ty, type_name());
      e.return_type = ty;
    }
    WARAN_CHECK_OK(expect(Tok::kSemi, "';'"));
    return e;
  }

  Result<FuncDecl> func_decl() {
    FuncDecl f;
    f.line = peek().line;
    f.exported = accept(Tok::kExport);
    WARAN_CHECK_OK(expect(Tok::kFn, "'fn'"));
    if (peek().kind != Tok::kIdent) return err("expected function name");
    f.name = take().text;
    WARAN_CHECK_OK(expect(Tok::kLParen, "'('"));
    if (!accept(Tok::kRParen)) {
      while (true) {
        if (peek().kind != Tok::kIdent) return err("expected parameter name");
        Param p;
        p.name = take().text;
        WARAN_CHECK_OK(expect(Tok::kColon, "':'"));
        WARAN_TRY(ty, type_name());
        p.type = ty;
        f.params.push_back(std::move(p));
        if (accept(Tok::kRParen)) break;
        WARAN_CHECK_OK(expect(Tok::kComma, "','"));
      }
    }
    if (accept(Tok::kArrow)) {
      WARAN_TRY(ty, type_name());
      f.return_type = ty;
    }
    WARAN_TRY(body, block());
    f.body = std::move(body);
    return f;
  }

  Result<std::vector<StmtPtr>> block() {
    WARAN_CHECK_OK(expect(Tok::kLBrace, "'{'"));
    std::vector<StmtPtr> stmts;
    while (!accept(Tok::kRBrace)) {
      if (peek().kind == Tok::kEof) return err("unterminated block");
      WARAN_TRY(s, statement());
      stmts.push_back(std::move(s));
    }
    return stmts;
  }

  Result<StmtPtr> statement() {
    auto s = std::make_unique<Stmt>();
    s->line = peek().line;
    switch (peek().kind) {
      case Tok::kVar: {
        take();
        s->kind = Stmt::Kind::kVarDecl;
        if (peek().kind != Tok::kIdent) return err("expected variable name");
        s->name = take().text;
        WARAN_CHECK_OK(expect(Tok::kColon, "':'"));
        WARAN_TRY(ty, type_name());
        s->decl_type = ty;
        if (accept(Tok::kAssign)) {
          WARAN_TRY(e, expression());
          s->expr = std::move(e);
        }
        WARAN_CHECK_OK(expect(Tok::kSemi, "';'"));
        return s;
      }
      case Tok::kIf: {
        take();
        s->kind = Stmt::Kind::kIf;
        WARAN_CHECK_OK(expect(Tok::kLParen, "'('"));
        WARAN_TRY(cond, expression());
        s->expr = std::move(cond);
        WARAN_CHECK_OK(expect(Tok::kRParen, "')'"));
        WARAN_TRY(then_body, block());
        s->body = std::move(then_body);
        if (accept(Tok::kElse)) {
          if (peek().kind == Tok::kIf) {
            WARAN_TRY(chained, statement());
            s->else_body.push_back(std::move(chained));
          } else {
            WARAN_TRY(else_b, block());
            s->else_body = std::move(else_b);
          }
        }
        return s;
      }
      case Tok::kWhile: {
        take();
        s->kind = Stmt::Kind::kWhile;
        WARAN_CHECK_OK(expect(Tok::kLParen, "'('"));
        WARAN_TRY(cond, expression());
        s->expr = std::move(cond);
        WARAN_CHECK_OK(expect(Tok::kRParen, "')'"));
        WARAN_TRY(body, block());
        s->body = std::move(body);
        return s;
      }
      case Tok::kBreak:
        take();
        s->kind = Stmt::Kind::kBreak;
        WARAN_CHECK_OK(expect(Tok::kSemi, "';'"));
        return s;
      case Tok::kContinue:
        take();
        s->kind = Stmt::Kind::kContinue;
        WARAN_CHECK_OK(expect(Tok::kSemi, "';'"));
        return s;
      case Tok::kReturn: {
        take();
        s->kind = Stmt::Kind::kReturn;
        if (!accept(Tok::kSemi)) {
          WARAN_TRY(e, expression());
          s->expr = std::move(e);
          WARAN_CHECK_OK(expect(Tok::kSemi, "';'"));
        }
        return s;
      }
      case Tok::kIdent: {
        // Either an assignment `x = expr;` or an expression statement.
        if (peek(1).kind == Tok::kAssign) {
          s->kind = Stmt::Kind::kAssign;
          s->name = take().text;
          take();  // '='
          WARAN_TRY(e, expression());
          s->expr = std::move(e);
          WARAN_CHECK_OK(expect(Tok::kSemi, "';'"));
          return s;
        }
        [[fallthrough]];
      }
      default: {
        s->kind = Stmt::Kind::kExprStmt;
        WARAN_TRY(e, expression());
        s->expr = std::move(e);
        WARAN_CHECK_OK(expect(Tok::kSemi, "';'"));
        return s;
      }
    }
  }

  // Expression precedence climbing over one binding-power table. A higher
  // power binds tighter; every level is left-associative.
  struct Infix {
    BinOp op;
    int power;
  };
  static std::optional<Infix> infix(Tok t) {
    switch (t) {
      case Tok::kPipePipe: return Infix{BinOp::kOr, 1};
      case Tok::kAmpAmp: return Infix{BinOp::kAnd, 2};
      case Tok::kEq: return Infix{BinOp::kEq, 3};
      case Tok::kNe: return Infix{BinOp::kNe, 3};
      case Tok::kLt: return Infix{BinOp::kLt, 4};
      case Tok::kGt: return Infix{BinOp::kGt, 4};
      case Tok::kLe: return Infix{BinOp::kLe, 4};
      case Tok::kGe: return Infix{BinOp::kGe, 4};
      case Tok::kPipe: return Infix{BinOp::kBitOr, 5};
      case Tok::kCaret: return Infix{BinOp::kBitXor, 6};
      case Tok::kAmp: return Infix{BinOp::kBitAnd, 7};
      case Tok::kShl: return Infix{BinOp::kShl, 8};
      case Tok::kShr: return Infix{BinOp::kShrS, 8};
      case Tok::kShrU: return Infix{BinOp::kShrU, 8};
      case Tok::kPlus: return Infix{BinOp::kAdd, 9};
      case Tok::kMinus: return Infix{BinOp::kSub, 9};
      case Tok::kStar: return Infix{BinOp::kMul, 10};
      case Tok::kSlash: return Infix{BinOp::kDiv, 10};
      case Tok::kPercent: return Infix{BinOp::kRem, 10};
      default: return std::nullopt;
    }
  }

  Result<ExprPtr> expression(int min_power = 1) {
    WARAN_TRY(lhs, unary());
    ExprPtr node = std::move(lhs);
    while (true) {
      std::optional<Infix> op = infix(peek().kind);
      if (!op || op->power < min_power) return node;
      uint32_t line = take().line;
      WARAN_TRY(rhs, expression(op->power + 1));
      node = make_binary(op->op, std::move(node), std::move(rhs), line);
    }
  }

  Result<ExprPtr> unary() {
    if (peek().kind == Tok::kMinus || peek().kind == Tok::kBang) {
      UnOp op = peek().kind == Tok::kMinus ? UnOp::kNeg : UnOp::kNot;
      uint32_t line = take().line;
      WARAN_TRY(operand, unary());
      auto e = std::make_unique<Expr>();
      e->kind = Expr::Kind::kUnary;
      e->un_op = op;
      e->lhs = std::move(operand);
      e->line = line;
      return e;
    }
    return primary();
  }

  Result<ExprPtr> primary() {
    const Token& t = peek();
    // Cast: type '(' expr ')'.
    if (t.kind == Tok::kI32 || t.kind == Tok::kI64 || t.kind == Tok::kF64) {
      Type to = t.kind == Tok::kI32 ? Type::kI32 : t.kind == Tok::kI64 ? Type::kI64
                                                                       : Type::kF64;
      uint32_t line = take().line;
      WARAN_CHECK_OK(expect(Tok::kLParen, "'(' after cast type"));
      WARAN_TRY(inner, expression());
      WARAN_CHECK_OK(expect(Tok::kRParen, "')'"));
      auto e = std::make_unique<Expr>();
      e->kind = Expr::Kind::kCast;
      e->cast_to = to;
      e->lhs = std::move(inner);
      e->line = line;
      return e;
    }
    if (t.kind == Tok::kIntLit) {
      auto e = std::make_unique<Expr>();
      e->kind = Expr::Kind::kIntLit;
      e->int_value = take().int_value;
      e->line = t.line;
      return e;
    }
    if (t.kind == Tok::kFloatLit) {
      auto e = std::make_unique<Expr>();
      e->kind = Expr::Kind::kFloatLit;
      e->float_value = take().float_value;
      e->line = t.line;
      return e;
    }
    if (t.kind == Tok::kIdent) {
      Token ident = take();
      if (accept(Tok::kLParen)) {
        auto e = std::make_unique<Expr>();
        e->kind = Expr::Kind::kCall;
        e->name = ident.text;
        e->line = ident.line;
        if (!accept(Tok::kRParen)) {
          while (true) {
            WARAN_TRY(arg, expression());
            e->args.push_back(std::move(arg));
            if (accept(Tok::kRParen)) break;
            WARAN_CHECK_OK(expect(Tok::kComma, "','"));
          }
        }
        return e;
      }
      auto e = std::make_unique<Expr>();
      e->kind = Expr::Kind::kVarRef;
      e->name = ident.text;
      e->line = ident.line;
      return e;
    }
    if (accept(Tok::kLParen)) {
      WARAN_TRY(inner, expression());
      WARAN_CHECK_OK(expect(Tok::kRParen, "')'"));
      return std::move(inner);
    }
    return err("expected an expression");
  }

  static ExprPtr make_binary(BinOp op, ExprPtr lhs, ExprPtr rhs, uint32_t line) {
    auto e = std::make_unique<Expr>();
    e->kind = Expr::Kind::kBinary;
    e->bin_op = op;
    e->lhs = std::move(lhs);
    e->rhs = std::move(rhs);
    e->line = line;
    return e;
  }
};

}  // namespace

Result<Program> parse(std::string_view source) {
  WARAN_TRY(tokens, lex(source));
  Parser p(std::move(tokens));
  return p.run();
}

}  // namespace waran::wcc
