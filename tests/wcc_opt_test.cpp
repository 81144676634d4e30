// Optimizer tests: semantic equivalence between optimized and unoptimized
// builds across a source corpus (property-style), exact folding results
// with wasm wraparound/saturation semantics, preservation of trapping
// behaviour, and measured instruction savings.
#include <gtest/gtest.h>

#include <limits>
#include <memory>

#include "wasm/wasm.h"
#include "wcc/compiler.h"
#include "wcc/optimizer.h"
#include "wcc/parser.h"

namespace waran::wcc {
namespace {

using wasm::TypedValue;

std::unique_ptr<wasm::Instance> instantiate(const char* src, bool optimize) {
  CompileOptions options;
  options.optimize = optimize;
  auto bytes = compile(src, options);
  EXPECT_TRUE(bytes.ok()) << (bytes.ok() ? "" : bytes.error().message);
  if (!bytes.ok()) return nullptr;
  auto module = wasm::decode_module(*bytes);
  EXPECT_TRUE(module.ok());
  EXPECT_TRUE(wasm::validate_module(*module).ok());
  auto inst = wasm::Instance::instantiate(
      std::make_shared<wasm::Module>(std::move(*module)), {});
  EXPECT_TRUE(inst.ok());
  return inst.ok() ? std::move(*inst) : nullptr;
}

int32_t run_i32(wasm::Instance& inst, std::vector<TypedValue> args = {}) {
  auto r = inst.call("f", args);
  EXPECT_TRUE(r.ok()) << (r.ok() ? "" : r.error().message);
  return r.ok() && r->has_value() ? (*r)->value.as_i32() : INT32_MIN;
}

/// Both builds must produce the same result; the optimized one must retire
/// no more instructions. Returns the instruction savings ratio.
double assert_equivalent(const char* src, std::vector<TypedValue> args = {}) {
  auto plain = instantiate(src, false);
  auto opt = instantiate(src, true);
  EXPECT_TRUE(plain && opt);
  if (!plain || !opt) return 0;
  EXPECT_EQ(run_i32(*plain, args), run_i32(*opt, args)) << src;
  EXPECT_LE(opt->instructions_retired(), plain->instructions_retired()) << src;
  return static_cast<double>(plain->instructions_retired()) /
         static_cast<double>(std::max<uint64_t>(1, opt->instructions_retired()));
}

TEST(WccOpt, ConstantExpressionCollapses) {
  double ratio = assert_equivalent(
      "export fn f() -> i32 { return (2 + 3 * 4 - 5) / 3 % 4; }");
  EXPECT_GT(ratio, 2.0);  // whole expression folded to one const
}

TEST(WccOpt, I32AdditionWrapsLikeWasm) {
  auto opt = instantiate(
      "export fn f() -> i32 { return 2147483647 + 1; }", true);
  ASSERT_NE(opt, nullptr);
  EXPECT_EQ(run_i32(*opt), std::numeric_limits<int32_t>::min());
}

TEST(WccOpt, I64FoldingThroughCasts) {
  assert_equivalent(
      "export fn f() -> i32 { return i32(i64(1000000) * i64(1000000) % i64(97)); }");
}

TEST(WccOpt, FloatFoldingAndSaturatingCast) {
  assert_equivalent("export fn f() -> i32 { return i32(1.5e10 * 2.0); }");
  auto opt = instantiate("export fn f() -> i32 { return i32(1.5e10 * 2.0); }", true);
  ASSERT_NE(opt, nullptr);
  EXPECT_EQ(run_i32(*opt), std::numeric_limits<int32_t>::max());  // saturated
}

TEST(WccOpt, DivisionByZeroIsNotFoldedAway) {
  // The fold must preserve the trap.
  auto opt = instantiate("export fn f() -> i32 { return 1 / 0; }", true);
  ASSERT_NE(opt, nullptr);
  auto r = opt->call("f", std::vector<TypedValue>{});
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().code, Error::Code::kTrap);
}

TEST(WccOpt, IntMinDivMinusOneNotFolded) {
  auto opt = instantiate(
      "export fn f() -> i32 { return (0 - 2147483647 - 1) / (0 - 1); }", true);
  ASSERT_NE(opt, nullptr);
  auto r = opt->call("f", std::vector<TypedValue>{});
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().code, Error::Code::kTrap);
}

TEST(WccOpt, AlgebraicIdentities) {
  double ratio = assert_equivalent(R"(
    export fn f(x: i32) -> i32 {
      var a: i32 = x + 0;
      var b: i32 = a - 0;
      var c: i32 = b * 1;
      var d: i32 = c / 1;
      return d;
    }
  )", {TypedValue::i32(41)});
  EXPECT_GT(ratio, 1.2);
}

TEST(WccOpt, MulZeroFoldsOnlyPureOperands) {
  // Pure operand: folds to 0.
  assert_equivalent("export fn f(x: i32) -> i32 { return x * 0; }",
                    {TypedValue::i32(123)});
  // Impure operand (a call): must NOT be deleted — the side effect has to
  // happen. memory_grow observable via memory_size.
  const char* src = R"(
    export fn f() -> i32 {
      var dead: i32 = memory_grow(1) * 0;
      return memory_size() + dead;
    }
  )";
  auto plain = instantiate(src, false);
  auto opt = instantiate(src, true);
  ASSERT_TRUE(plain && opt);
  EXPECT_EQ(run_i32(*plain), run_i32(*opt));  // both grew memory once
}

TEST(WccOpt, DeadIfBranchRemoved) {
  double ratio = assert_equivalent(R"(
    export fn f() -> i32 {
      if (0) { trap(); }
      if (1) { return 7; } else { trap(); }
    }
  )");
  EXPECT_GT(ratio, 1.0);
}

TEST(WccOpt, DeadWhileRemoved) {
  auto unopt_prog = parse("export fn f() -> i32 { while (0) { trap(); } return 3; }");
  ASSERT_TRUE(unopt_prog.ok());
  OptStats stats = optimize(*unopt_prog);
  EXPECT_EQ(stats.dead_loops_removed, 1u);
  assert_equivalent("export fn f() -> i32 { while (0) { trap(); } return 3; }");
}

TEST(WccOpt, NestedFoldingCascades) {
  // if (3 > 2 && !(4 == 5)) -> if (1) -> branch splice.
  auto prog = parse(R"(
    export fn f() -> i32 {
      if (3 > 2 && !(4 == 5)) { return 1; }
      return 0;
    }
  )");
  ASSERT_TRUE(prog.ok());
  OptStats stats = optimize(*prog);
  EXPECT_GE(stats.folded_consts, 3u);
  EXPECT_EQ(stats.dead_branches_removed, 1u);
}

TEST(WccOpt, SchedulerPluginsUnchangedSemantics) {
  // The shipped scheduler sources must behave identically when optimized
  // (they are compiled with optimize=true by default elsewhere).
  const char* src = R"(
    fn prbs_to_drain(buffer: i32, tbs: i32) -> i32 {
      return i32((i64(buffer) * i64(8) + i64(tbs) - i64(1)) / i64(tbs));
    }
    export fn f(buffer: i32, tbs: i32) -> i32 {
      return prbs_to_drain(buffer, tbs);
    }
  )";
  auto plain = instantiate(src, false);
  auto opt = instantiate(src, true);
  ASSERT_TRUE(plain && opt);
  for (int32_t buffer : {1, 100, 65536, 1 << 20}) {
    for (int32_t tbs : {18, 516, 877}) {
      std::vector<TypedValue> args = {TypedValue::i32(buffer), TypedValue::i32(tbs)};
      EXPECT_EQ(run_i32(*plain, args), run_i32(*opt, args))
          << buffer << "/" << tbs;
    }
  }
}

TEST(WccOpt, TypeErrorsStillDiagnosedWithOptimizerOn) {
  CompileOptions options;
  options.optimize = true;
  // The identity fold could hide the i64/i32 mismatch if typechecking ran
  // after optimization; it must not.
  auto r = compile("export fn f(x: i64) -> i32 { return x * 0; }", options);
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.error().message.find("mismatch"), std::string::npos);
}

TEST(WccOpt, StatsReporting) {
  auto prog = parse(R"(
    export fn f() -> i32 {
      var a: i32 = 2 + 3;
      var b: i32 = a + 0;
      if (0) { trap(); }
      while (0) { trap(); }
      return a + b;
    }
  )");
  ASSERT_TRUE(prog.ok());
  OptStats stats = optimize(*prog);
  EXPECT_GE(stats.folded_consts, 1u);
  EXPECT_GE(stats.algebraic_simplifications, 1u);
  EXPECT_EQ(stats.dead_branches_removed, 1u);
  EXPECT_EQ(stats.dead_loops_removed, 1u);
  EXPECT_EQ(stats.total(), stats.folded_consts + stats.algebraic_simplifications +
                               stats.dead_branches_removed + stats.dead_loops_removed);
}

int64_t run_i64(wasm::Instance& inst, const char* fn) {
  auto r = inst.call(fn, std::vector<TypedValue>{});
  EXPECT_TRUE(r.ok()) << (r.ok() ? "" : r.error().message);
  return r.ok() && r->has_value() ? (*r)->value.as_i64() : INT64_MIN;
}

TEST(WccOpt, BitwiseFoldsMatchUnoptimized) {
  // All-literal operands fold to one constant each. Shift counts are masked
  // to the operand width the way Wasm masks them: 1 << 33 is 1 << 1.
  const char* i32_src = R"(
    export fn f() -> i32 {
      return (12 & 10) + (12 | 10) * 3 + (12 ^ 10) * 100 + (1 << 33) * 1000
           + (-8 >> 33) + (-8 >>> 60) * 7;
    }
  )";
  EXPECT_GT(assert_equivalent(i32_src), 2.0);
  auto opt = instantiate(i32_src, true);
  ASSERT_NE(opt, nullptr);
  EXPECT_EQ(run_i32(*opt), 8 + 14 * 3 + 6 * 100 + 2 * 1000 - 4 + 15 * 7);

  const char* i64_src = R"(
    export fn f() -> i32 {
      var a: i64 = (i64(-1) >>> i64(65)) >> i64(62);   // INT64_MAX >> 62 = 1
      var b: i64 = i64(1) << i64(64);                  // count 64 masks to 0
      var c: i64 = (i64(-16) >> i64(66)) ^ i64(5);     // -4 ^ 5 = -7
      var d: i64 = (i64(-1) << i64(63)) | i64(1);      // INT64_MIN | 1
      return i32(a + b * i64(10) + c * i64(100)) + i32((d >>> i64(63)) & i64(3));
    }
  )";
  EXPECT_GT(assert_equivalent(i64_src), 1.0);
  opt = instantiate(i64_src, true);
  ASSERT_NE(opt, nullptr);
  EXPECT_EQ(run_i32(*opt), 1 + 10 - 700 + 1);
}

TEST(WccOpt, WideI64LiteralsWithAndWithoutOptimizer) {
  // A literal beyond i32 range is legal as the direct operand of i64(...);
  // cast folding must keep it whole instead of wrapping it through i32.
  const char* src = R"(
    export fn big() -> i64 { return i64(5000000000); }
    export fn neg() -> i64 { return i64(-5000000000); }
    export fn top() -> i64 { return i64(9223372036854775807); }
    export fn edge() -> i64 { return i64(2147483648) + i64(-2147483648); }
    export fn mask() -> i64 { return i64(71777214294589695) >>> i64(48); }
  )";
  for (bool optimize : {false, true}) {
    SCOPED_TRACE(optimize ? "optimized" : "unoptimized");
    auto inst = instantiate(src, optimize);
    ASSERT_NE(inst, nullptr);
    EXPECT_EQ(run_i64(*inst, "big"), 5000000000LL);
    EXPECT_EQ(run_i64(*inst, "neg"), -5000000000LL);
    EXPECT_EQ(run_i64(*inst, "top"), std::numeric_limits<int64_t>::max());
    EXPECT_EQ(run_i64(*inst, "edge"), 0);
    EXPECT_EQ(run_i64(*inst, "mask"), 0xff);  // top lane of 0x00ff00ff00ff00ff
  }
}

}  // namespace
}  // namespace waran::wcc
