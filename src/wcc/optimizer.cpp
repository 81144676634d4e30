#include "wcc/optimizer.h"

#include <cmath>
#include <limits>

namespace waran::wcc {
namespace {

bool is_int_lit(const Expr& e) { return e.kind == Expr::Kind::kIntLit; }
bool is_float_lit(const Expr& e) { return e.kind == Expr::Kind::kFloatLit; }

/// Side-effect-free: safe to delete if its value is unused. Calls may touch
/// memory/host state; everything else in W is pure.
bool is_pure(const Expr& e) {
  switch (e.kind) {
    case Expr::Kind::kIntLit:
    case Expr::Kind::kFloatLit:
    case Expr::Kind::kVarRef:
      return true;
    case Expr::Kind::kUnary:
    case Expr::Kind::kCast:
      return is_pure(*e.lhs);
    case Expr::Kind::kBinary:
      return is_pure(*e.lhs) && is_pure(*e.rhs);
    case Expr::Kind::kCall:
      return false;
  }
  return false;
}

void make_int(Expr& e, int64_t v, Type t) {
  e.kind = Expr::Kind::kIntLit;
  e.int_value = v;
  e.lit_type = t;
  e.lhs.reset();
  e.rhs.reset();
  e.args.clear();
}

void make_float(Expr& e, double v) {
  e.kind = Expr::Kind::kFloatLit;
  e.float_value = v;
  e.lit_type = Type::kF64;
  e.lhs.reset();
  e.rhs.reset();
  e.args.clear();
}

/// Replaces `e` with the contents of `*child` (one of e's operands).
void hoist(Expr& e, ExprPtr child) {
  Expr tmp = std::move(*child);
  e = std::move(tmp);
}

int32_t as_i32(const Expr& e) { return static_cast<int32_t>(e.int_value); }

// -x for an integer literal, wrapping at its width. A source literal beyond
// i32 range only typechecks as i64(-N): it is negated exactly, and
// fold_cast then widens it.
int64_t negate_int(const Expr& x) {
  if (x.lit_type == Type::kI64) return static_cast<int64_t>(-static_cast<uint64_t>(x.int_value));
  if (as_i32(x) != x.int_value) return -x.int_value;
  return static_cast<int32_t>(-static_cast<uint32_t>(as_i32(x)));
}

// Saturating f64 -> int, matching the engine's trunc_sat and wcc casts.
int64_t sat_i64(double d) {
  if (std::isnan(d)) return 0;
  d = std::trunc(d);
  if (d <= -9223372036854775808.0) return std::numeric_limits<int64_t>::min();
  if (d >= 9223372036854775808.0) return std::numeric_limits<int64_t>::max();
  return static_cast<int64_t>(d);
}

int32_t sat_i32(double d) {
  if (std::isnan(d)) return 0;
  d = std::trunc(d);
  if (d <= -2147483648.0) return std::numeric_limits<int32_t>::min();
  if (d >= 2147483647.0) return std::numeric_limits<int32_t>::max();
  return static_cast<int32_t>(d);
}

class Optimizer {
 public:
  OptStats run(Program& program) {
    for (FuncDecl& f : program.funcs) visit_block(f.body);
    return stats_;
  }

 private:
  OptStats stats_;

  void visit_block(std::vector<StmtPtr>& stmts) {
    for (size_t i = 0; i < stmts.size();) {
      Stmt& s = *stmts[i];
      if (s.expr) visit_expr(*s.expr);
      visit_block(s.body);
      visit_block(s.else_body);

      if (s.kind == Stmt::Kind::kIf && s.expr && is_int_lit(*s.expr) &&
          s.expr->lit_type == Type::kI32) {
        // Constant condition: keep only the taken branch, wrapped in a
        // block statement so its declarations stay in their own scope.
        ++stats_.dead_branches_removed;
        std::vector<StmtPtr> taken =
            as_i32(*s.expr) != 0 ? std::move(s.body) : std::move(s.else_body);
        if (taken.empty()) {
          stmts.erase(stmts.begin() + static_cast<long>(i));
        } else {
          auto block = std::make_unique<Stmt>();
          block->kind = Stmt::Kind::kBlock;
          block->line = s.line;
          block->body = std::move(taken);
          stmts[i] = std::move(block);
          ++i;
        }
        continue;
      }
      if (s.kind == Stmt::Kind::kWhile && s.expr && is_int_lit(*s.expr) &&
          s.expr->lit_type == Type::kI32 && as_i32(*s.expr) == 0) {
        ++stats_.dead_loops_removed;
        stmts.erase(stmts.begin() + static_cast<long>(i));
        continue;
      }
      ++i;
    }
  }

  void visit_expr(Expr& e) {
    if (e.lhs) visit_expr(*e.lhs);
    if (e.rhs) visit_expr(*e.rhs);
    for (ExprPtr& a : e.args) visit_expr(*a);

    switch (e.kind) {
      case Expr::Kind::kUnary:
        fold_unary(e);
        break;
      case Expr::Kind::kCast:
        fold_cast(e);
        break;
      case Expr::Kind::kBinary:
        fold_binary(e);
        break;
      default:
        break;
    }
  }

  void fold_unary(Expr& e) {
    Expr& x = *e.lhs;
    if (e.un_op == UnOp::kNeg) {
      if (is_int_lit(x)) {
        make_int(e, negate_int(x), x.lit_type);
        ++stats_.folded_consts;
      } else if (is_float_lit(x)) {
        make_float(e, -x.float_value);
        ++stats_.folded_consts;
      }
    } else {  // kNot
      if (is_int_lit(x) && x.lit_type == Type::kI32) {
        make_int(e, as_i32(x) == 0 ? 1 : 0, Type::kI32);
        ++stats_.folded_consts;
      }
    }
  }

  void fold_cast(Expr& e) {
    Expr& x = *e.lhs;
    if (is_int_lit(x)) {
      // int_value is exact. Folded i32 literals are always in range; a source
      // literal beyond it only typechecks directly inside i64(...).
      int64_t v = x.int_value;
      switch (e.cast_to) {
        case Type::kI32:
          make_int(e, static_cast<int32_t>(v), Type::kI32);
          break;
        case Type::kI64:
          make_int(e, v, Type::kI64);
          break;
        case Type::kF64:
          make_float(e, static_cast<double>(v));
          break;
        case Type::kVoid:
          return;
      }
      ++stats_.folded_consts;
    } else if (is_float_lit(x)) {
      switch (e.cast_to) {
        case Type::kI32:
          make_int(e, sat_i32(x.float_value), Type::kI32);
          break;
        case Type::kI64:
          make_int(e, sat_i64(x.float_value), Type::kI64);
          break;
        case Type::kF64:
          make_float(e, x.float_value);
          break;
        case Type::kVoid:
          return;
      }
      ++stats_.folded_consts;
    }
  }

  void fold_binary(Expr& e) {
    Expr& a = *e.lhs;
    Expr& b = *e.rhs;

    // Literal op literal.
    if (is_int_lit(a) && is_int_lit(b) && a.lit_type == b.lit_type) {
      if (fold_int_binary(e, a, b)) return;
    }
    if (is_float_lit(a) && is_float_lit(b)) {
      if (fold_float_binary(e, a, b)) return;
    }

    // Algebraic identities (value-preserving, purity-guarded).
    auto int_is = [](const Expr& x, int64_t v) {
      return is_int_lit(x) && (x.lit_type == Type::kI32 ? x.int_value == v
                                                        : x.int_value == v);
    };
    auto float_is = [](const Expr& x, double v) {
      return is_float_lit(x) && x.float_value == v;
    };
    switch (e.bin_op) {
      case BinOp::kAdd:
        if (int_is(b, 0) || float_is(b, 0.0)) {
          hoist(e, std::move(e.lhs));
          ++stats_.algebraic_simplifications;
        } else if ((int_is(a, 0) || float_is(a, 0.0)) && is_pure(b)) {
          hoist(e, std::move(e.rhs));
          ++stats_.algebraic_simplifications;
        }
        break;
      case BinOp::kSub:
        if (int_is(b, 0) || float_is(b, 0.0)) {
          hoist(e, std::move(e.lhs));
          ++stats_.algebraic_simplifications;
        }
        break;
      case BinOp::kMul:
        if (int_is(b, 1) || float_is(b, 1.0)) {
          hoist(e, std::move(e.lhs));
          ++stats_.algebraic_simplifications;
        } else if ((int_is(a, 1) || float_is(a, 1.0)) && is_pure(b)) {
          hoist(e, std::move(e.rhs));
          ++stats_.algebraic_simplifications;
        } else if (int_is(b, 0) && is_pure(a)) {
          // x * 0 == 0 only when x is pure (and integral: 0.0 * NaN is NaN,
          // so the float case is never folded). The program already
          // typechecked, so b's literal type is the operand type.
          Type zero_type = b.lit_type;
          make_int(e, 0, zero_type);
          ++stats_.algebraic_simplifications;
        }
        break;
      case BinOp::kDiv:
        if (int_is(b, 1) || float_is(b, 1.0)) {
          hoist(e, std::move(e.lhs));
          ++stats_.algebraic_simplifications;
        }
        break;
      default:
        break;
    }
  }

  bool fold_int_binary(Expr& e, const Expr& a, const Expr& b) {
    const bool is32 = a.lit_type == Type::kI32;
    const int64_t av = is32 ? as_i32(a) : a.int_value;
    const int64_t bv = is32 ? as_i32(b) : b.int_value;
    const uint64_t ua = is32 ? static_cast<uint32_t>(av) : static_cast<uint64_t>(av);
    const uint64_t ub = is32 ? static_cast<uint32_t>(bv) : static_cast<uint64_t>(bv);
    const uint64_t shift_mask = is32 ? 31 : 63;

    auto wrap = [&](uint64_t v) -> int64_t {
      return is32 ? static_cast<int32_t>(static_cast<uint32_t>(v))
                  : static_cast<int64_t>(v);
    };

    int64_t result;
    Type result_type = a.lit_type;
    switch (e.bin_op) {
      case BinOp::kAdd: result = wrap(ua + ub); break;
      case BinOp::kSub: result = wrap(ua - ub); break;
      case BinOp::kMul: result = wrap(ua * ub); break;
      case BinOp::kDiv:
        // Trapping cases stay in the program (division by zero and the
        // INT_MIN / -1 overflow must trap at runtime, not fold).
        if (bv == 0) return false;
        if (is32 && av == std::numeric_limits<int32_t>::min() && bv == -1) return false;
        if (!is32 && av == std::numeric_limits<int64_t>::min() && bv == -1) return false;
        result = av / bv;
        break;
      case BinOp::kRem:
        if (bv == 0) return false;
        if (av == (is32 ? std::numeric_limits<int32_t>::min()
                        : std::numeric_limits<int64_t>::min()) &&
            bv == -1) {
          result = 0;
        } else {
          result = av % bv;
        }
        break;
      case BinOp::kEq: result = av == bv; result_type = Type::kI32; break;
      case BinOp::kNe: result = av != bv; result_type = Type::kI32; break;
      case BinOp::kLt: result = av < bv; result_type = Type::kI32; break;
      case BinOp::kGt: result = av > bv; result_type = Type::kI32; break;
      case BinOp::kLe: result = av <= bv; result_type = Type::kI32; break;
      case BinOp::kGe: result = av >= bv; result_type = Type::kI32; break;
      case BinOp::kBitAnd: result = wrap(ua & ub); break;
      case BinOp::kBitOr: result = wrap(ua | ub); break;
      case BinOp::kBitXor: result = wrap(ua ^ ub); break;
      // Wasm masks the shift count to the operand width.
      case BinOp::kShl: result = wrap(ua << (ub & shift_mask)); break;
      case BinOp::kShrS: result = av >> (ub & shift_mask); break;
      case BinOp::kShrU: result = wrap(ua >> (ub & shift_mask)); break;
      case BinOp::kAnd:
        if (!is32) return false;
        result = (av != 0 && bv != 0) ? 1 : 0;
        result_type = Type::kI32;
        break;
      case BinOp::kOr:
        if (!is32) return false;
        result = (av != 0 || bv != 0) ? 1 : 0;
        result_type = Type::kI32;
        break;
      default:
        return false;
    }
    make_int(e, result, result_type);
    ++stats_.folded_consts;
    return true;
  }

  bool fold_float_binary(Expr& e, const Expr& a, const Expr& b) {
    double av = a.float_value, bv = b.float_value;
    switch (e.bin_op) {
      case BinOp::kAdd: make_float(e, av + bv); break;
      case BinOp::kSub: make_float(e, av - bv); break;
      case BinOp::kMul: make_float(e, av * bv); break;
      case BinOp::kDiv: make_float(e, av / bv); break;  // IEEE: no trap
      case BinOp::kEq: make_int(e, av == bv, Type::kI32); break;
      case BinOp::kNe: make_int(e, av != bv, Type::kI32); break;
      case BinOp::kLt: make_int(e, av < bv, Type::kI32); break;
      case BinOp::kGt: make_int(e, av > bv, Type::kI32); break;
      case BinOp::kLe: make_int(e, av <= bv, Type::kI32); break;
      case BinOp::kGe: make_int(e, av >= bv, Type::kI32); break;
      default:
        return false;  // % and logical ops are invalid on f64 anyway
    }
    ++stats_.folded_consts;
    return true;
  }
};

}  // namespace

OptStats optimize(Program& program) {
  Optimizer opt;
  return opt.run(program);
}

}  // namespace waran::wcc
