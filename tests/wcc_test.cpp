// End-to-end tests for the W compiler: compile W source, validate the
// produced module with the engine's validator, instantiate, run, and check
// results. Also negative tests for type/semantic errors.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>

#include "plugin/plugin.h"
#include "wasm/wasm.h"
#include "wcc/compiler.h"
#include "wcc/lexer.h"

namespace waran {
namespace {

using wasm::TypedValue;

std::unique_ptr<wasm::Instance> compile_and_instantiate(
    const char* source, const wasm::Linker& linker = {}) {
  auto bytes = wcc::compile(source);
  EXPECT_TRUE(bytes.ok()) << (bytes.ok() ? "" : bytes.error().message);
  if (!bytes.ok()) return nullptr;
  auto module = wasm::decode_module(*bytes);
  EXPECT_TRUE(module.ok()) << (module.ok() ? "" : module.error().message);
  if (!module.ok()) return nullptr;
  auto st = wasm::validate_module(*module);
  EXPECT_TRUE(st.ok()) << (st.ok() ? "" : st.error().message);
  if (!st.ok()) return nullptr;
  auto inst = wasm::Instance::instantiate(
      std::make_shared<wasm::Module>(std::move(*module)), linker);
  EXPECT_TRUE(inst.ok()) << (inst.ok() ? "" : inst.error().message);
  if (!inst.ok()) return nullptr;
  return std::move(*inst);
}

int32_t run_i32(wasm::Instance& inst, const char* fn,
                std::vector<TypedValue> args = {}) {
  auto r = inst.call(fn, args);
  EXPECT_TRUE(r.ok()) << (r.ok() ? "" : r.error().message);
  if (!r.ok() || !r->has_value()) return INT32_MIN;
  return (*r)->value.as_i32();
}

TEST(Wcc, ReturnConstant) {
  auto inst = compile_and_instantiate("export fn f() -> i32 { return 42; }");
  ASSERT_NE(inst, nullptr);
  EXPECT_EQ(run_i32(*inst, "f"), 42);
}

TEST(Wcc, ArithmeticPrecedence) {
  auto inst = compile_and_instantiate(
      "export fn f() -> i32 { return 2 + 3 * 4 - 10 / 2; }");
  ASSERT_NE(inst, nullptr);
  EXPECT_EQ(run_i32(*inst, "f"), 9);
}

TEST(Wcc, ParamsAndLocals) {
  auto inst = compile_and_instantiate(R"(
    export fn f(a: i32, b: i32) -> i32 {
      var sum: i32 = a + b;
      var diff: i32 = a - b;
      return sum * diff;
    }
  )");
  ASSERT_NE(inst, nullptr);
  EXPECT_EQ(run_i32(*inst, "f", {TypedValue::i32(7), TypedValue::i32(3)}), 40);
}

TEST(Wcc, IfElseChain) {
  auto inst = compile_and_instantiate(R"(
    export fn sign(x: i32) -> i32 {
      if (x > 0) { return 1; }
      else if (x < 0) { return -1; }
      else { return 0; }
    }
  )");
  ASSERT_NE(inst, nullptr);
  EXPECT_EQ(run_i32(*inst, "sign", {TypedValue::i32(99)}), 1);
  EXPECT_EQ(run_i32(*inst, "sign", {TypedValue::i32(-5)}), -1);
  EXPECT_EQ(run_i32(*inst, "sign", {TypedValue::i32(0)}), 0);
}

TEST(Wcc, WhileLoopSum) {
  auto inst = compile_and_instantiate(R"(
    export fn sum(n: i32) -> i32 {
      var acc: i32 = 0;
      var i: i32 = 1;
      while (i <= n) {
        acc = acc + i;
        i = i + 1;
      }
      return acc;
    }
  )");
  ASSERT_NE(inst, nullptr);
  EXPECT_EQ(run_i32(*inst, "sum", {TypedValue::i32(100)}), 5050);
  EXPECT_EQ(run_i32(*inst, "sum", {TypedValue::i32(0)}), 0);
}

TEST(Wcc, BreakAndContinue) {
  auto inst = compile_and_instantiate(R"(
    // Sum of odd numbers below the first multiple of 13 above 20.
    export fn f() -> i32 {
      var acc: i32 = 0;
      var i: i32 = 0;
      while (1) {
        i = i + 1;
        if (i > 20 && i % 13 == 0) { break; }
        if (i % 2 == 0) { continue; }
        acc = acc + i;
      }
      return acc;
    }
  )");
  ASSERT_NE(inst, nullptr);
  // Odd numbers 1..25 (26 is the break point): 13*13 = 169.
  EXPECT_EQ(run_i32(*inst, "f"), 169);
}

TEST(Wcc, NestedLoopBreakTargetsInnermost) {
  auto inst = compile_and_instantiate(R"(
    export fn f() -> i32 {
      var count: i32 = 0;
      var i: i32 = 0;
      while (i < 3) {
        var j: i32 = 0;
        while (1) {
          j = j + 1;
          if (j >= 4) { break; }
        }
        count = count + j;
        i = i + 1;
      }
      return count;
    }
  )");
  ASSERT_NE(inst, nullptr);
  EXPECT_EQ(run_i32(*inst, "f"), 12);
}

TEST(Wcc, FunctionCallsAndRecursion) {
  auto inst = compile_and_instantiate(R"(
    fn fib(n: i32) -> i32 {
      if (n < 2) { return n; }
      return fib(n - 1) + fib(n - 2);
    }
    export fn f(n: i32) -> i32 { return fib(n); }
  )");
  ASSERT_NE(inst, nullptr);
  EXPECT_EQ(run_i32(*inst, "f", {TypedValue::i32(12)}), 144);
}

TEST(Wcc, ForwardReferenceAllowed) {
  auto inst = compile_and_instantiate(R"(
    export fn f() -> i32 { return helper() + 1; }
    fn helper() -> i32 { return 41; }
  )");
  ASSERT_NE(inst, nullptr);
  EXPECT_EQ(run_i32(*inst, "f"), 42);
}

TEST(Wcc, FloatArithmeticAndCasts) {
  auto inst = compile_and_instantiate(R"(
    export fn f(a: f64, b: f64) -> i32 {
      var ratio: f64 = a / b;
      return i32(ratio * 100.0);
    }
  )");
  ASSERT_NE(inst, nullptr);
  EXPECT_EQ(run_i32(*inst, "f", {TypedValue::f64(3.0), TypedValue::f64(4.0)}), 75);
}

TEST(Wcc, FloatIntrinsics) {
  auto inst = compile_and_instantiate(R"(
    export fn f(x: f64) -> i32 {
      return i32(sqrt(x) + floor(0.9) + ceil(0.1) + abs(-2.0));
    }
  )");
  ASSERT_NE(inst, nullptr);
  EXPECT_EQ(run_i32(*inst, "f", {TypedValue::f64(16.0)}), 7);  // 4 + 0 + 1 + 2
}

TEST(Wcc, SaturatingCastDoesNotTrap) {
  auto inst = compile_and_instantiate(
      "export fn f(x: f64) -> i32 { return i32(x); }");
  ASSERT_NE(inst, nullptr);
  EXPECT_EQ(run_i32(*inst, "f", {TypedValue::f64(1e300)}), INT32_MAX);
  EXPECT_EQ(run_i32(*inst, "f", {TypedValue::f64(-1e300)}), INT32_MIN);
}

TEST(Wcc, I64Support) {
  auto inst = compile_and_instantiate(R"(
    export fn f(a: i32) -> i32 {
      var big: i64 = i64(a) * i64(1000000);
      return i32(big % i64(97));
    }
  )");
  ASSERT_NE(inst, nullptr);
  EXPECT_EQ(run_i32(*inst, "f", {TypedValue::i32(1234)}),
            static_cast<int32_t>((1234LL * 1000000LL) % 97));
}

TEST(Wcc, GlobalsPersistAcrossCalls) {
  auto inst = compile_and_instantiate(R"(
    global counter: i32 = 100;
    export fn bump() -> i32 {
      counter = counter + 1;
      return counter;
    }
  )");
  ASSERT_NE(inst, nullptr);
  EXPECT_EQ(run_i32(*inst, "bump"), 101);
  EXPECT_EQ(run_i32(*inst, "bump"), 102);
}

TEST(Wcc, MemoryIntrinsics) {
  auto inst = compile_and_instantiate(R"(
    export fn f() -> i32 {
      store32(16, 7777);
      store8(20, 255);
      storef64(24, 2.5);
      return load32(16) + load8u(20) + i32(loadf64(24) * 2.0);
    }
  )");
  ASSERT_NE(inst, nullptr);
  EXPECT_EQ(run_i32(*inst, "f"), 7777 + 255 + 5);
}

TEST(Wcc, MemoryGrowIntrinsic) {
  auto inst = compile_and_instantiate(R"(
    export fn f() -> i32 {
      var before: i32 = memory_size();
      memory_grow(2);
      return memory_size() - before;
    }
  )");
  ASSERT_NE(inst, nullptr);
  EXPECT_EQ(run_i32(*inst, "f"), 2);
}

TEST(Wcc, ShortCircuitEvaluation) {
  // The right side of && must not execute when the left is false — here the
  // right side would trap by loading out of bounds.
  auto inst = compile_and_instantiate(R"(
    export fn f(cond: i32) -> i32 {
      if (cond && load32(99999999)) { return 1; }
      return 0;
    }
  )");
  ASSERT_NE(inst, nullptr);
  EXPECT_EQ(run_i32(*inst, "f", {TypedValue::i32(0)}), 0);
  auto r = inst->call("f", std::vector<TypedValue>{TypedValue::i32(1)});
  EXPECT_FALSE(r.ok());  // left true -> right side evaluates -> traps
}

TEST(Wcc, LogicalOrNormalizesToBool) {
  auto inst = compile_and_instantiate(
      "export fn f(a: i32, b: i32) -> i32 { return a || b; }");
  ASSERT_NE(inst, nullptr);
  EXPECT_EQ(run_i32(*inst, "f", {TypedValue::i32(0), TypedValue::i32(7)}), 1);
  EXPECT_EQ(run_i32(*inst, "f", {TypedValue::i32(0), TypedValue::i32(0)}), 0);
}

TEST(Wcc, TrapIntrinsic) {
  auto inst = compile_and_instantiate("export fn f() -> i32 { trap(); return 0; }");
  ASSERT_NE(inst, nullptr);
  auto r = inst->call("f", std::vector<TypedValue>{});
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().code, Error::Code::kTrap);
}

TEST(Wcc, MissingReturnTrapsAtRuntime) {
  auto inst = compile_and_instantiate(R"(
    export fn f(x: i32) -> i32 {
      if (x > 0) { return 1; }
      // falls off the end otherwise
    }
  )");
  ASSERT_NE(inst, nullptr);
  EXPECT_EQ(run_i32(*inst, "f", {TypedValue::i32(5)}), 1);
  auto r = inst->call("f", std::vector<TypedValue>{TypedValue::i32(0)});
  EXPECT_FALSE(r.ok());
}

TEST(Wcc, ScopingShadowingInBlocks) {
  auto inst = compile_and_instantiate(R"(
    export fn f() -> i32 {
      var x: i32 = 1;
      if (1) {
        var x: i32 = 10;   // separate scope: allowed
        x = x + 5;
      }
      return x;            // outer x unchanged
    }
  )");
  ASSERT_NE(inst, nullptr);
  EXPECT_EQ(run_i32(*inst, "f"), 1);
}

// --- Host-function integration through the plugin ABI. ---

TEST(Wcc, PluginAbiEcho) {
  // A W plugin that reads its input, adds one to each byte, writes it back.
  const char* src = R"(
    export fn run() -> i32 {
      var n: i32 = input_len();
      input_read(0, 0, n);
      var i: i32 = 0;
      while (i < n) {
        store8(i, load8u(i) + 1);
        i = i + 1;
      }
      output_write(0, n);
      return 0;
    }
  )";
  auto bytes = wcc::compile(src);
  ASSERT_TRUE(bytes.ok()) << bytes.error().message;
  auto plugin = plugin::Plugin::load(*bytes);
  ASSERT_TRUE(plugin.ok()) << plugin.error().message;
  std::vector<uint8_t> input = {1, 2, 3, 250};
  std::vector<uint8_t> out;
  Status st = (*plugin)->call("run", input, out);
  ASSERT_TRUE(st.ok()) << st.error().message;
  EXPECT_EQ(out, (std::vector<uint8_t>{2, 3, 4, 251}));
}

// --- Compile-error diagnostics. ---

TEST(WccErrors, TypeMismatch) {
  auto r = wcc::compile("export fn f() -> i32 { return 1 + 2.0; }");
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.error().message.find("mismatch"), std::string::npos);
}

TEST(WccErrors, UndeclaredVariable) {
  auto r = wcc::compile("export fn f() -> i32 { return nope; }");
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.error().message.find("undeclared"), std::string::npos);
}

TEST(WccErrors, UndefinedFunction) {
  auto r = wcc::compile("export fn f() -> i32 { return g(); }");
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.error().message.find("undefined function"), std::string::npos);
}

TEST(WccErrors, WrongArgCount) {
  auto r = wcc::compile(R"(
    fn g(a: i32) -> i32 { return a; }
    export fn f() -> i32 { return g(1, 2); }
  )");
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.error().message.find("argument"), std::string::npos);
}

TEST(WccErrors, BreakOutsideLoop) {
  auto r = wcc::compile("export fn f() { break; }");
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.error().message.find("break"), std::string::npos);
}

TEST(WccErrors, DuplicateFunction) {
  auto r = wcc::compile("fn f() {} fn f() {}");
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.error().message.find("duplicate"), std::string::npos);
}

TEST(WccErrors, RedeclarationInSameScope) {
  auto r = wcc::compile("export fn f() { var x: i32; var x: i32; }");
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.error().message.find("redeclaration"), std::string::npos);
}

TEST(WccErrors, FloatModulo) {
  auto r = wcc::compile("export fn f() -> f64 { return 1.0 % 2.0; }");
  ASSERT_FALSE(r.ok());
}

TEST(WccErrors, ParseErrorHasLocation) {
  auto r = wcc::compile("export fn f( { }");
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.error().message.find("parse error"), std::string::npos);
}

TEST(WccErrors, VoidInExpression) {
  auto r = wcc::compile(R"(
    fn g() {}
    export fn f() -> i32 { return g() + 1; }
  )");
  ASSERT_FALSE(r.ok());
}

}  // namespace
}  // namespace waran

// Appended: parser/lexer edge cases.
namespace waran {
namespace {

TEST(WccParser, OperatorPrecedenceFull) {
  auto inst = compile_and_instantiate(R"(
    export fn f() -> i32 {
      // ! binds tightest, then * / %, + -, comparisons, &&, ||.
      return 1 + 2 * 3 < 8 || !(4 % 3 == 1) && 0;
    }
  )");
  ASSERT_NE(inst, nullptr);
  // 1+6=7 < 8 -> 1; short-circuits past the rest.
  EXPECT_EQ(run_i32(*inst, "f"), 1);
}

TEST(WccParser, CommentsAndWhitespaceEverywhere) {
  auto inst = compile_and_instantiate(
      "// leading comment\n"
      "export\tfn f( )->i32{//inline\nreturn\n42\n;//trailing\n}\n// eof comment");
  ASSERT_NE(inst, nullptr);
  EXPECT_EQ(run_i32(*inst, "f"), 42);
}

TEST(WccParser, DeepElseIfChain) {
  std::string src = "export fn f(x: i32) -> i32 {\n";
  for (int i = 0; i < 40; ++i) {
    src += (i == 0 ? "  if" : "  else if");
    src += " (x == " + std::to_string(i) + ") { return " + std::to_string(i * 10) + "; }\n";
  }
  src += "  else { return -1; }\n}\n";
  auto inst = compile_and_instantiate(src.c_str());
  ASSERT_NE(inst, nullptr);
  EXPECT_EQ(run_i32(*inst, "f", {TypedValue::i32(0)}), 0);
  EXPECT_EQ(run_i32(*inst, "f", {TypedValue::i32(39)}), 390);
  EXPECT_EQ(run_i32(*inst, "f", {TypedValue::i32(77)}), -1);
}

TEST(WccParser, FloatLiteralForms) {
  auto inst = compile_and_instantiate(R"(
    export fn f() -> i32 {
      var a: f64 = 1.5;
      var b: f64 = 2e3;
      var c: f64 = 1.25e-2;
      return i32(a * 2.0) + i32(b) + i32(c * 800.0);
    }
  )");
  ASSERT_NE(inst, nullptr);
  EXPECT_EQ(run_i32(*inst, "f"), 3 + 2000 + 10);
}

TEST(WccParser, GlobalNegativeAndFloatInitializers) {
  auto inst = compile_and_instantiate(R"(
    global gi: i32 = -17;
    global gf: f64 = -2.5;
    export fn f() -> i32 { return gi + i32(gf * -2.0); }
  )");
  ASSERT_NE(inst, nullptr);
  EXPECT_EQ(run_i32(*inst, "f"), -17 + 5);
}

TEST(WccErrors, ExternSignatureMismatchFailsInstantiation) {
  // The extern declares (i32)->i32 but the host registers (i32,i32)->i32:
  // instantiation must reject the signature mismatch.
  auto bytes = wcc::compile(R"(
    extern fn helper(x: i32) -> i32;
    export fn f() -> i32 { return helper(1); }
  )");
  ASSERT_TRUE(bytes.ok());
  wasm::Linker linker;
  linker.register_func(
      "env", "helper",
      wasm::HostFunc{wasm::FuncType{{wasm::ValType::kI32, wasm::ValType::kI32},
                                    {wasm::ValType::kI32}},
                     [](wasm::HostContext&, std::span<const wasm::Value>)
                         -> Result<std::optional<wasm::Value>> {
                       return std::optional<wasm::Value>(wasm::Value::from_i32(0));
                     }});
  auto module = wasm::decode_module(*bytes);
  ASSERT_TRUE(module.ok());
  auto inst = wasm::Instance::instantiate(
      std::make_shared<wasm::Module>(std::move(*module)), linker);
  ASSERT_FALSE(inst.ok());
  EXPECT_EQ(inst.error().code, Error::Code::kValidation);
}

TEST(WccErrors, ExternCollidingWithUserFunction) {
  auto r = wcc::compile(R"(
    extern fn f(x: i32) -> i32;
    fn f(x: i32) -> i32 { return x; }
  )");
  ASSERT_FALSE(r.ok());
}

TEST(WccErrors, IntegerLiteralOverflow) {
  auto r = wcc::compile("export fn f() -> i32 { return 3000000000; }");
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.error().message.find("range"), std::string::npos);
}

}  // namespace
}  // namespace waran

// Bitwise operators: & | ^ << >> >>> on i32 and i64.
namespace waran {
namespace {

int64_t run_i64(wasm::Instance& inst, const char* fn, std::vector<TypedValue> args) {
  auto r = inst.call(fn, args);
  EXPECT_TRUE(r.ok()) << (r.ok() ? "" : r.error().message);
  if (!r.ok() || !r->has_value()) return INT64_MIN;
  return (*r)->value.as_i64();
}

constexpr const char* kBitwiseOps = R"(
  export fn and32(a: i32, b: i32) -> i32 { return a & b; }
  export fn or32(a: i32, b: i32) -> i32 { return a | b; }
  export fn xor32(a: i32, b: i32) -> i32 { return a ^ b; }
  export fn shl32(a: i32, b: i32) -> i32 { return a << b; }
  export fn shr32(a: i32, b: i32) -> i32 { return a >> b; }
  export fn shru32(a: i32, b: i32) -> i32 { return a >>> b; }
  export fn and64(a: i64, b: i64) -> i64 { return a & b; }
  export fn or64(a: i64, b: i64) -> i64 { return a | b; }
  export fn xor64(a: i64, b: i64) -> i64 { return a ^ b; }
  export fn shl64(a: i64, b: i64) -> i64 { return a << b; }
  export fn shr64(a: i64, b: i64) -> i64 { return a >> b; }
  export fn shru64(a: i64, b: i64) -> i64 { return a >>> b; }
)";

TEST(WccBitwise, I32OperatorsMatchCpp) {
  auto inst = compile_and_instantiate(kBitwiseOps);
  ASSERT_NE(inst, nullptr);
  const int32_t values[] = {0, 1, -1, INT32_MIN, INT32_MAX};
  for (int32_t a : values) {
    for (int32_t b : values) {
      auto args = std::vector<TypedValue>{TypedValue::i32(a), TypedValue::i32(b)};
      EXPECT_EQ(run_i32(*inst, "and32", args), a & b) << a << " & " << b;
      EXPECT_EQ(run_i32(*inst, "or32", args), a | b) << a << " | " << b;
      EXPECT_EQ(run_i32(*inst, "xor32", args), a ^ b) << a << " ^ " << b;
    }
    // Wasm masks the count to the operand width: 32 shifts by 0, 33 by 1.
    for (int32_t n : {0, 1, 31, 32, 33}) {
      auto args = std::vector<TypedValue>{TypedValue::i32(a), TypedValue::i32(n)};
      const int k = n & 31;
      EXPECT_EQ(run_i32(*inst, "shl32", args),
                static_cast<int32_t>(static_cast<uint32_t>(a) << k)) << a << " << " << n;
      EXPECT_EQ(run_i32(*inst, "shr32", args), a >> k) << a << " >> " << n;
      EXPECT_EQ(run_i32(*inst, "shru32", args),
                static_cast<int32_t>(static_cast<uint32_t>(a) >> k)) << a << " >>> " << n;
    }
  }
}

TEST(WccBitwise, I64OperatorsMatchCpp) {
  auto inst = compile_and_instantiate(kBitwiseOps);
  ASSERT_NE(inst, nullptr);
  const int64_t values[] = {0, 1, -1, INT64_MIN, INT64_MAX};
  for (int64_t a : values) {
    for (int64_t b : values) {
      auto args = std::vector<TypedValue>{TypedValue::i64(a), TypedValue::i64(b)};
      EXPECT_EQ(run_i64(*inst, "and64", args), a & b) << a << " & " << b;
      EXPECT_EQ(run_i64(*inst, "or64", args), a | b) << a << " | " << b;
      EXPECT_EQ(run_i64(*inst, "xor64", args), a ^ b) << a << " ^ " << b;
    }
    for (int64_t n : {0, 1, 63, 64, 65}) {
      auto args = std::vector<TypedValue>{TypedValue::i64(a), TypedValue::i64(n)};
      const int k = static_cast<int>(n & 63);
      EXPECT_EQ(run_i64(*inst, "shl64", args),
                static_cast<int64_t>(static_cast<uint64_t>(a) << k)) << a << " << " << n;
      EXPECT_EQ(run_i64(*inst, "shr64", args), a >> k) << a << " >> " << n;
      EXPECT_EQ(run_i64(*inst, "shru64", args),
                static_cast<int64_t>(static_cast<uint64_t>(a) >> k)) << a << " >>> " << n;
    }
  }
}

TEST(WccBitwise, ArithmeticVsLogicalShiftOnNegatives) {
  auto inst = compile_and_instantiate(kBitwiseOps);
  ASSERT_NE(inst, nullptr);
  auto i32s = [](int32_t a, int32_t b) {
    return std::vector<TypedValue>{TypedValue::i32(a), TypedValue::i32(b)};
  };
  auto i64s = [](int64_t a, int64_t b) {
    return std::vector<TypedValue>{TypedValue::i64(a), TypedValue::i64(b)};
  };
  EXPECT_EQ(run_i32(*inst, "shr32", i32s(-16, 2)), -4);           // sign fills
  EXPECT_EQ(run_i32(*inst, "shru32", i32s(-16, 2)), 0x3ffffffc);  // zero fills
  EXPECT_EQ(run_i32(*inst, "shru32", i32s(-1, 31)), 1);
  EXPECT_EQ(run_i64(*inst, "shr64", i64s(-16, 2)), -4);
  EXPECT_EQ(run_i64(*inst, "shru64", i64s(-16, 2)), 0x3ffffffffffffffcLL);
  EXPECT_EQ(run_i64(*inst, "shru64", i64s(-1, 63)), 1);
}

TEST(WccBitwise, PrecedenceTable) {
  auto inst = compile_and_instantiate(R"(
    // & binds tighter than ==, so this is (a & m) == 0.
    export fn masked(a: i32, m: i32) -> i32 { return a & m == 0; }
    // + binds tighter than <<: 1 << 3.
    export fn shift() -> i32 { return 1 << 2 + 1; }
    // & over ^ over |: a | (b ^ (c & d)).
    export fn mixed(a: i32, b: i32, c: i32, d: i32) -> i32 { return a | b ^ c & d; }
    // Shifts bind tighter than comparisons, looser than + -.
    export fn cmp() -> i32 { return 8 >> 1 + 1 < 3; }
  )");
  ASSERT_NE(inst, nullptr);
  EXPECT_EQ(run_i32(*inst, "masked", {TypedValue::i32(6), TypedValue::i32(1)}), 1);
  EXPECT_EQ(run_i32(*inst, "shift"), 8);
  // 1 | (2 ^ (1 & 1)) = 3; each of the other four groupings gives 0, 1 or 2.
  EXPECT_EQ(run_i32(*inst, "mixed", {TypedValue::i32(1), TypedValue::i32(2),
                                     TypedValue::i32(1), TypedValue::i32(1)}),
            3);
  EXPECT_EQ(run_i32(*inst, "cmp"), 1);  // (8 >> 2) < 3
}

TEST(WccBitwise, LexerSplitsSingleAndDoubleOperators) {
  auto toks = wcc::lex("a & b && c | d || e ^ f << g >> h >>> i <= j >= k < l > m");
  ASSERT_TRUE(toks.ok()) << toks.error().message;
  std::vector<wcc::Tok> ops;
  for (const wcc::Token& t : *toks) {
    if (t.kind != wcc::Tok::kIdent && t.kind != wcc::Tok::kEof) ops.push_back(t.kind);
  }
  using wcc::Tok;
  EXPECT_EQ(ops, (std::vector<Tok>{Tok::kAmp, Tok::kAmpAmp, Tok::kPipe, Tok::kPipePipe,
                                   Tok::kCaret, Tok::kShl, Tok::kShr, Tok::kShrU, Tok::kLe,
                                   Tok::kGe, Tok::kLt, Tok::kGt}));
  // Logical operators keep their meaning next to the bitwise ones.
  auto inst = compile_and_instantiate(
      "export fn f(a: i32) -> i32 { return a & 2 != 0 && a | 1 == 7; }");
  ASSERT_NE(inst, nullptr);
  EXPECT_EQ(run_i32(*inst, "f", {TypedValue::i32(6)}), 1);
  EXPECT_EQ(run_i32(*inst, "f", {TypedValue::i32(4)}), 0);
}

TEST(WccBitwise, F64OperandRejectedWithLine) {
  auto r = wcc::compile(
      "export fn f() -> i32 {\n"
      "  var x: f64 = 1.0;\n"
      "  var y: f64 = x >>> 2.0;\n"
      "  return 0;\n"
      "}\n");
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.error().message.find("line 3"), std::string::npos) << r.error().message;
  EXPECT_NE(r.error().message.find("'>>>'"), std::string::npos) << r.error().message;
  EXPECT_FALSE(wcc::compile("export fn f() -> f64 { return 1.0 & 2.0; }").ok());
}

TEST(WccBitwise, MixedWidthShiftCountRejected) {
  // No implicit conversions: an i64 shift count is written i64(n).
  auto r = wcc::compile("export fn f(x: i64) -> i64 { return x << 8; }");
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.error().message.find("mismatch"), std::string::npos) << r.error().message;
  EXPECT_TRUE(wcc::compile("export fn f(x: i64) -> i64 { return x << i64(8); }").ok());
}

TEST(WccErrors, WideLiteralOnlyDirectlyInsideI64) {
  // i64(5000000000) and i64(-5000000000) compile (WccOpt tests the values);
  // a literal beyond i32 range anywhere else stays an error.
  for (const char* src : {
           "export fn f() -> i64 { var x: i64 = 5000000000; return x; }",
           "export fn f() -> i64 { return i64(5000000000 + 1); }",
           "export fn f() -> i32 { return i32(5000000000); }",
           "export fn f() -> f64 { return f64(5000000000); }",
           "export fn f() -> i32 { return -5000000000; }",
       }) {
    auto r = wcc::compile(src);
    ASSERT_FALSE(r.ok()) << src;
    EXPECT_NE(r.error().message.find("range"), std::string::npos) << r.error().message;
  }
}

}  // namespace
}  // namespace waran
