// Execution tests for the wasm engine: arithmetic semantics, control flow,
// memory, traps, fuel metering, and host calls. Modules are produced by the
// wasmbuilder and go through the full decode -> validate -> instantiate
// pipeline, so these double as encoder/decoder round-trip tests.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "tests/wasm_test_util.h"

namespace waran {
namespace {

using namespace wasmtest;

ModuleBuilder unary_i32_module(const char* name, std::function<void(FunctionBuilder&)> body) {
  ModuleBuilder mb;
  auto& f = mb.add_func(FuncType{{ValType::kI32}, {ValType::kI32}}, name);
  body(f);
  f.end();
  return mb;
}

TEST(Engine, ConstReturn) {
  ModuleBuilder mb;
  mb.add_func(FuncType{{}, {ValType::kI32}}, "f").i32_const(42).end();
  auto inst = instantiate(mb);
  ASSERT_NE(inst, nullptr);
  EXPECT_EQ(call_i32(*inst, "f"), 42);
}

TEST(Engine, AddSubMul) {
  ModuleBuilder mb;
  auto& f = mb.add_func(FuncType{{ValType::kI32, ValType::kI32}, {ValType::kI32}}, "f");
  // (a + b) * (a - b)
  f.local_get(0).local_get(1).op(Op::kI32Add);
  f.local_get(0).local_get(1).op(Op::kI32Sub);
  f.op(Op::kI32Mul).end();
  auto inst = instantiate(mb);
  ASSERT_NE(inst, nullptr);
  EXPECT_EQ(call_i32(*inst, "f", {TypedValue::i32(7), TypedValue::i32(3)}), 40);
  EXPECT_EQ(call_i32(*inst, "f", {TypedValue::i32(-2), TypedValue::i32(5)}), -21);
}

TEST(Engine, I32WrapAround) {
  ModuleBuilder mb;
  auto& f = mb.add_func(FuncType{{}, {ValType::kI32}}, "f");
  f.i32_const(std::numeric_limits<int32_t>::max()).i32_const(1).op(Op::kI32Add).end();
  auto inst = instantiate(mb);
  ASSERT_NE(inst, nullptr);
  EXPECT_EQ(call_i32(*inst, "f"), std::numeric_limits<int32_t>::min());
}

TEST(Engine, DivisionSemantics) {
  ModuleBuilder mb;
  auto& f = mb.add_func(FuncType{{ValType::kI32, ValType::kI32}, {ValType::kI32}}, "divs");
  f.local_get(0).local_get(1).op(Op::kI32DivS).end();
  auto& g = mb.add_func(FuncType{{ValType::kI32, ValType::kI32}, {ValType::kI32}}, "rems");
  g.local_get(0).local_get(1).op(Op::kI32RemS).end();
  auto inst = instantiate(mb);
  ASSERT_NE(inst, nullptr);

  EXPECT_EQ(call_i32(*inst, "divs", {TypedValue::i32(-7), TypedValue::i32(2)}), -3);
  EXPECT_EQ(call_i32(*inst, "rems", {TypedValue::i32(-7), TypedValue::i32(2)}), -1);

  // Division by zero traps.
  auto err = call_expect_trap(*inst, "divs", {TypedValue::i32(1), TypedValue::i32(0)});
  EXPECT_EQ(err.code, Error::Code::kTrap);

  // INT_MIN / -1 traps (overflow); INT_MIN % -1 == 0.
  err = call_expect_trap(*inst, "divs",
                         {TypedValue::i32(std::numeric_limits<int32_t>::min()),
                          TypedValue::i32(-1)});
  EXPECT_EQ(err.code, Error::Code::kTrap);
  EXPECT_EQ(call_i32(*inst, "rems",
                     {TypedValue::i32(std::numeric_limits<int32_t>::min()),
                      TypedValue::i32(-1)}),
            0);
}

TEST(Engine, ShiftMasking) {
  ModuleBuilder mb;
  auto& f = mb.add_func(FuncType{{ValType::kI32, ValType::kI32}, {ValType::kI32}}, "shl");
  f.local_get(0).local_get(1).op(Op::kI32Shl).end();
  auto inst = instantiate(mb);
  ASSERT_NE(inst, nullptr);
  // Shift count is taken modulo 32.
  EXPECT_EQ(call_i32(*inst, "shl", {TypedValue::i32(1), TypedValue::i32(33)}), 2);
}

TEST(Engine, ClzCtzPopcnt) {
  auto mk = [](Op op) {
    ModuleBuilder mb;
    auto& f = mb.add_func(FuncType{{ValType::kI32}, {ValType::kI32}}, "f");
    f.local_get(0).op(op).end();
    return mb;
  };
  auto clz = instantiate(mk(Op::kI32Clz));
  auto ctz = instantiate(mk(Op::kI32Ctz));
  auto pop = instantiate(mk(Op::kI32Popcnt));
  ASSERT_TRUE(clz && ctz && pop);
  EXPECT_EQ(call_i32(*clz, "f", {TypedValue::i32(0)}), 32);
  EXPECT_EQ(call_i32(*clz, "f", {TypedValue::i32(1)}), 31);
  EXPECT_EQ(call_i32(*ctz, "f", {TypedValue::i32(0)}), 32);
  EXPECT_EQ(call_i32(*ctz, "f", {TypedValue::i32(8)}), 3);
  EXPECT_EQ(call_i32(*pop, "f", {TypedValue::i32(-1)}), 32);
  EXPECT_EQ(call_i32(*pop, "f", {TypedValue::i32(0xf0)}), 4);
}

TEST(Engine, RotateOps) {
  ModuleBuilder mb;
  auto& f = mb.add_func(FuncType{{ValType::kI32, ValType::kI32}, {ValType::kI32}}, "rotl");
  f.local_get(0).local_get(1).op(Op::kI32Rotl).end();
  auto inst = instantiate(mb);
  ASSERT_NE(inst, nullptr);
  EXPECT_EQ(call_i32(*inst, "rotl", {TypedValue::i32(0x80000000), TypedValue::i32(1)}), 1);
}

TEST(Engine, I64Arithmetic) {
  ModuleBuilder mb;
  auto& f = mb.add_func(FuncType{{ValType::kI64, ValType::kI64}, {ValType::kI64}}, "mul");
  f.local_get(0).local_get(1).op(Op::kI64Mul).end();
  auto inst = instantiate(mb);
  ASSERT_NE(inst, nullptr);
  EXPECT_EQ(call_i64(*inst, "mul",
                     {TypedValue::i64(1LL << 40), TypedValue::i64(1LL << 20)}),
            1LL << 60);
}

TEST(Engine, FloatMinMaxNaNAndSignedZero) {
  ModuleBuilder mb;
  auto& fmin = mb.add_func(FuncType{{ValType::kF64, ValType::kF64}, {ValType::kF64}}, "min");
  fmin.local_get(0).local_get(1).op(Op::kF64Min).end();
  auto& fmax = mb.add_func(FuncType{{ValType::kF64, ValType::kF64}, {ValType::kF64}}, "max");
  fmax.local_get(0).local_get(1).op(Op::kF64Max).end();
  auto inst = instantiate(mb);
  ASSERT_NE(inst, nullptr);

  double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_TRUE(std::isnan(call_f64(*inst, "min", {TypedValue::f64(nan), TypedValue::f64(1.0)})));
  EXPECT_TRUE(std::isnan(call_f64(*inst, "max", {TypedValue::f64(2.0), TypedValue::f64(nan)})));
  // min(-0, +0) = -0 ; max(-0, +0) = +0.
  double mn = call_f64(*inst, "min", {TypedValue::f64(-0.0), TypedValue::f64(0.0)});
  EXPECT_TRUE(std::signbit(mn));
  double mx = call_f64(*inst, "max", {TypedValue::f64(-0.0), TypedValue::f64(0.0)});
  EXPECT_FALSE(std::signbit(mx));
}

TEST(Engine, NearestRoundsHalfToEven) {
  ModuleBuilder mb;
  auto& f = mb.add_func(FuncType{{ValType::kF64}, {ValType::kF64}}, "f");
  f.local_get(0).op(Op::kF64Nearest).end();
  auto inst = instantiate(mb);
  ASSERT_NE(inst, nullptr);
  EXPECT_DOUBLE_EQ(call_f64(*inst, "f", {TypedValue::f64(2.5)}), 2.0);
  EXPECT_DOUBLE_EQ(call_f64(*inst, "f", {TypedValue::f64(3.5)}), 4.0);
  EXPECT_DOUBLE_EQ(call_f64(*inst, "f", {TypedValue::f64(-0.5)}), -0.0);
}

TEST(Engine, TruncTrapsOutOfRange) {
  ModuleBuilder mb;
  auto& f = mb.add_func(FuncType{{ValType::kF64}, {ValType::kI32}}, "f");
  f.local_get(0).op(Op::kI32TruncF64S).end();
  auto inst = instantiate(mb);
  ASSERT_NE(inst, nullptr);
  EXPECT_EQ(call_i32(*inst, "f", {TypedValue::f64(-3.7)}), -3);
  EXPECT_EQ(call_i32(*inst, "f", {TypedValue::f64(2147483647.0)}), 2147483647);
  auto err = call_expect_trap(*inst, "f", {TypedValue::f64(2147483648.0)});
  EXPECT_EQ(err.code, Error::Code::kTrap);
  err = call_expect_trap(*inst, "f", {TypedValue::f64(std::nan(""))});
  EXPECT_EQ(err.code, Error::Code::kTrap);
}

TEST(Engine, TruncSatClampsAndZerosNaN) {
  ModuleBuilder mb;
  auto& f = mb.add_func(FuncType{{ValType::kF64}, {ValType::kI32}}, "f");
  f.local_get(0).op(Op::kI32TruncSatF64S).end();
  auto inst = instantiate(mb);
  ASSERT_NE(inst, nullptr);
  EXPECT_EQ(call_i32(*inst, "f", {TypedValue::f64(1e300)}),
            std::numeric_limits<int32_t>::max());
  EXPECT_EQ(call_i32(*inst, "f", {TypedValue::f64(-1e300)}),
            std::numeric_limits<int32_t>::min());
  EXPECT_EQ(call_i32(*inst, "f", {TypedValue::f64(std::nan(""))}), 0);
}

TEST(Engine, SignExtensionOps) {
  auto mb = unary_i32_module("f", [](FunctionBuilder& f) {
    f.local_get(0).op(Op::kI32Extend8S);
  });
  auto inst = instantiate(mb);
  ASSERT_NE(inst, nullptr);
  EXPECT_EQ(call_i32(*inst, "f", {TypedValue::i32(0x80)}), -128);
  EXPECT_EQ(call_i32(*inst, "f", {TypedValue::i32(0x7f)}), 127);
}

TEST(Engine, ReinterpretRoundTrip) {
  ModuleBuilder mb;
  auto& f = mb.add_func(FuncType{{ValType::kF32}, {ValType::kI32}}, "bits");
  f.local_get(0).op(Op::kI32ReinterpretF32).end();
  auto inst = instantiate(mb);
  ASSERT_NE(inst, nullptr);
  EXPECT_EQ(call_i32(*inst, "bits", {TypedValue::f32(1.0f)}), 0x3f800000);
}

// --- Control flow. ---

TEST(Engine, IfElse) {
  ModuleBuilder mb;
  auto& f = mb.add_func(FuncType{{ValType::kI32}, {ValType::kI32}}, "f");
  f.local_get(0).if_(BlockT::i32());
  f.i32_const(10);
  f.else_();
  f.i32_const(20);
  f.end().end();
  auto inst = instantiate(mb);
  ASSERT_NE(inst, nullptr);
  EXPECT_EQ(call_i32(*inst, "f", {TypedValue::i32(1)}), 10);
  EXPECT_EQ(call_i32(*inst, "f", {TypedValue::i32(0)}), 20);
}

TEST(Engine, IfWithoutElse) {
  ModuleBuilder mb;
  auto& f = mb.add_func(FuncType{{ValType::kI32}, {ValType::kI32}}, "f");
  uint32_t acc = f.add_local(ValType::kI32);
  f.i32_const(1).local_set(acc);
  f.local_get(0).if_();
  f.i32_const(99).local_set(acc);
  f.end();
  f.local_get(acc).end();
  auto inst = instantiate(mb);
  ASSERT_NE(inst, nullptr);
  EXPECT_EQ(call_i32(*inst, "f", {TypedValue::i32(1)}), 99);
  EXPECT_EQ(call_i32(*inst, "f", {TypedValue::i32(0)}), 1);
}

// Loop: sum 1..n via br_if backedge.
TEST(Engine, LoopSum) {
  ModuleBuilder mb;
  auto& f = mb.add_func(FuncType{{ValType::kI32}, {ValType::kI32}}, "sum");
  uint32_t i = f.add_local(ValType::kI32);
  uint32_t acc = f.add_local(ValType::kI32);
  f.block();            // depth 1 (exit)
  f.loop();             // depth 0 (backedge)
  // if i >= n break
  f.local_get(i).local_get(0).op(Op::kI32GeS).br_if(1);
  // i += 1; acc += i
  f.local_get(i).i32_const(1).op(Op::kI32Add).local_tee(i);
  f.local_get(acc).op(Op::kI32Add).local_set(acc);
  f.br(0);
  f.end().end();
  f.local_get(acc).end();
  auto inst = instantiate(mb);
  ASSERT_NE(inst, nullptr);
  EXPECT_EQ(call_i32(*inst, "sum", {TypedValue::i32(10)}), 55);
  EXPECT_EQ(call_i32(*inst, "sum", {TypedValue::i32(0)}), 0);
  EXPECT_EQ(call_i32(*inst, "sum", {TypedValue::i32(1000)}), 500500);
}

TEST(Engine, BlockWithResultAndBr) {
  ModuleBuilder mb;
  auto& f = mb.add_func(FuncType{{ValType::kI32}, {ValType::kI32}}, "f");
  f.block(BlockT::i32());
  f.i32_const(5);
  f.local_get(0).br_if(0);
  f.op(Op::kDrop).i32_const(7);
  f.end().end();
  auto inst = instantiate(mb);
  ASSERT_NE(inst, nullptr);
  EXPECT_EQ(call_i32(*inst, "f", {TypedValue::i32(1)}), 5);
  EXPECT_EQ(call_i32(*inst, "f", {TypedValue::i32(0)}), 7);
}

TEST(Engine, BrTable) {
  ModuleBuilder mb;
  auto& f = mb.add_func(FuncType{{ValType::kI32}, {ValType::kI32}}, "f");
  f.block().block().block();                 // depths 2,1,0
  f.local_get(0).br_table({0, 1}, 2);
  f.end();  // inner: case 0
  f.i32_const(100).ret();
  f.end();  // middle: case 1
  f.i32_const(200).ret();
  f.end();  // outer: default
  f.i32_const(300).end();
  auto inst = instantiate(mb);
  ASSERT_NE(inst, nullptr);
  EXPECT_EQ(call_i32(*inst, "f", {TypedValue::i32(0)}), 100);
  EXPECT_EQ(call_i32(*inst, "f", {TypedValue::i32(1)}), 200);
  EXPECT_EQ(call_i32(*inst, "f", {TypedValue::i32(2)}), 300);
  EXPECT_EQ(call_i32(*inst, "f", {TypedValue::i32(-1)}), 300);  // unsigned index
}

TEST(Engine, EarlyReturn) {
  ModuleBuilder mb;
  auto& f = mb.add_func(FuncType{{ValType::kI32}, {ValType::kI32}}, "f");
  f.local_get(0).if_();
  f.i32_const(11).ret();
  f.end();
  f.i32_const(22).end();
  auto inst = instantiate(mb);
  ASSERT_NE(inst, nullptr);
  EXPECT_EQ(call_i32(*inst, "f", {TypedValue::i32(1)}), 11);
  EXPECT_EQ(call_i32(*inst, "f", {TypedValue::i32(0)}), 22);
}

TEST(Engine, Select) {
  ModuleBuilder mb;
  auto& f = mb.add_func(
      FuncType{{ValType::kI32, ValType::kI32, ValType::kI32}, {ValType::kI32}}, "f");
  f.local_get(0).local_get(1).local_get(2).op(Op::kSelect).end();
  auto inst = instantiate(mb);
  ASSERT_NE(inst, nullptr);
  EXPECT_EQ(call_i32(*inst, "f",
                     {TypedValue::i32(5), TypedValue::i32(9), TypedValue::i32(1)}),
            5);
  EXPECT_EQ(call_i32(*inst, "f",
                     {TypedValue::i32(5), TypedValue::i32(9), TypedValue::i32(0)}),
            9);
}

// --- Calls. ---

TEST(Engine, DirectCallAndRecursion) {
  ModuleBuilder mb;
  // fib(n) recursive.
  auto& fib = mb.add_func(FuncType{{ValType::kI32}, {ValType::kI32}}, "fib");
  fib.local_get(0).i32_const(2).op(Op::kI32LtS).if_(BlockT::i32());
  fib.local_get(0);
  fib.else_();
  fib.local_get(0).i32_const(1).op(Op::kI32Sub).call(fib.index());
  fib.local_get(0).i32_const(2).op(Op::kI32Sub).call(fib.index());
  fib.op(Op::kI32Add);
  fib.end().end();
  auto inst = instantiate(mb);
  ASSERT_NE(inst, nullptr);
  EXPECT_EQ(call_i32(*inst, "fib", {TypedValue::i32(10)}), 55);
  EXPECT_EQ(call_i32(*inst, "fib", {TypedValue::i32(20)}), 6765);
}

TEST(Engine, InfiniteRecursionTrapsOnDepth) {
  ModuleBuilder mb;
  auto& f = mb.add_func(FuncType{{}, {}}, "f");
  f.call(0).end();
  auto inst = instantiate(mb);
  ASSERT_NE(inst, nullptr);
  auto err = call_expect_trap(*inst, "f");
  EXPECT_EQ(err.code, Error::Code::kTrap);
  EXPECT_NE(err.message.find("call stack"), std::string::npos);
}

TEST(Engine, CallIndirect) {
  ModuleBuilder mb;
  FuncType binop{{ValType::kI32, ValType::kI32}, {ValType::kI32}};
  auto& add = mb.add_func(binop);
  add.local_get(0).local_get(1).op(Op::kI32Add).end();
  auto& sub = mb.add_func(binop);
  sub.local_get(0).local_get(1).op(Op::kI32Sub).end();
  mb.add_table(2, 2);
  mb.add_elem(0, {add.index(), sub.index()});
  uint32_t binop_type = mb.add_type(binop);
  auto& dispatch = mb.add_func(
      FuncType{{ValType::kI32, ValType::kI32, ValType::kI32}, {ValType::kI32}}, "dispatch");
  dispatch.local_get(1).local_get(2).local_get(0).call_indirect(binop_type).end();
  auto inst = instantiate(mb);
  ASSERT_NE(inst, nullptr);
  EXPECT_EQ(call_i32(*inst, "dispatch",
                     {TypedValue::i32(0), TypedValue::i32(9), TypedValue::i32(4)}),
            13);
  EXPECT_EQ(call_i32(*inst, "dispatch",
                     {TypedValue::i32(1), TypedValue::i32(9), TypedValue::i32(4)}),
            5);
  // Out-of-bounds table index traps.
  auto err = call_expect_trap(
      *inst, "dispatch", {TypedValue::i32(7), TypedValue::i32(1), TypedValue::i32(1)});
  EXPECT_EQ(err.code, Error::Code::kTrap);
}

TEST(Engine, CallIndirectSignatureMismatchTraps) {
  ModuleBuilder mb;
  auto& noargs = mb.add_func(FuncType{{}, {ValType::kI32}});
  noargs.i32_const(1).end();
  mb.add_table(1, 1);
  mb.add_elem(0, {noargs.index()});
  FuncType other{{ValType::kI32}, {ValType::kI32}};
  uint32_t other_type = mb.add_type(other);
  auto& f = mb.add_func(FuncType{{}, {ValType::kI32}}, "f");
  f.i32_const(5).i32_const(0).call_indirect(other_type).end();
  auto inst = instantiate(mb);
  ASSERT_NE(inst, nullptr);
  auto err = call_expect_trap(*inst, "f");
  EXPECT_NE(err.message.find("signature"), std::string::npos);
}

TEST(Engine, UninitializedTableElementTraps) {
  ModuleBuilder mb;
  FuncType sig{{}, {ValType::kI32}};
  auto& g = mb.add_func(sig);
  g.i32_const(3).end();
  mb.add_table(4, 4);
  mb.add_elem(0, {g.index()});  // slots 1..3 remain null
  uint32_t t = mb.add_type(sig);
  auto& f = mb.add_func(FuncType{{}, {ValType::kI32}}, "f");
  f.i32_const(2).call_indirect(t).end();
  auto inst = instantiate(mb);
  ASSERT_NE(inst, nullptr);
  auto err = call_expect_trap(*inst, "f");
  EXPECT_NE(err.message.find("uninitialized"), std::string::npos);
}

// --- Memory. ---

TEST(Engine, MemoryLoadStore) {
  ModuleBuilder mb;
  mb.add_memory(1, 1, "memory");
  auto& st = mb.add_func(FuncType{{ValType::kI32, ValType::kI32}, {}}, "poke");
  st.local_get(0).local_get(1).mem(Op::kI32Store, 0, 2).end();
  auto& ld = mb.add_func(FuncType{{ValType::kI32}, {ValType::kI32}}, "peek");
  ld.local_get(0).mem(Op::kI32Load, 0, 2).end();
  auto inst = instantiate(mb);
  ASSERT_NE(inst, nullptr);
  auto r = inst->call("poke", std::vector<TypedValue>{TypedValue::i32(64), TypedValue::i32(-123)});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(call_i32(*inst, "peek", {TypedValue::i32(64)}), -123);
}

TEST(Engine, MemoryOutOfBoundsTraps) {
  ModuleBuilder mb;
  mb.add_memory(1, 1);
  auto& ld = mb.add_func(FuncType{{ValType::kI32}, {ValType::kI32}}, "peek");
  ld.local_get(0).mem(Op::kI32Load, 0, 2).end();
  auto inst = instantiate(mb);
  ASSERT_NE(inst, nullptr);
  // Last valid word is at 65532.
  EXPECT_EQ(call_i32(*inst, "peek", {TypedValue::i32(65532)}), 0);
  auto err = call_expect_trap(*inst, "peek", {TypedValue::i32(65533)});
  EXPECT_EQ(err.code, Error::Code::kTrap);
  EXPECT_NE(err.message.find("out-of-bounds"), std::string::npos);
  // Negative base is a huge unsigned address.
  err = call_expect_trap(*inst, "peek", {TypedValue::i32(-4)});
  EXPECT_EQ(err.code, Error::Code::kTrap);
}

TEST(Engine, LoadOffsetOverflowTraps) {
  ModuleBuilder mb;
  mb.add_memory(1, 1);
  auto& ld = mb.add_func(FuncType{{ValType::kI32}, {ValType::kI32}}, "peek");
  ld.local_get(0).mem(Op::kI32Load, 0xffffffff, 0).end();
  auto inst = instantiate(mb);
  ASSERT_NE(inst, nullptr);
  // base + offset overflows 32 bits; must trap, not wrap.
  auto err = call_expect_trap(*inst, "peek", {TypedValue::i32(8)});
  EXPECT_EQ(err.code, Error::Code::kTrap);
}

TEST(Engine, MemoryGrowAndSize) {
  ModuleBuilder mb;
  mb.add_memory(1, 3);
  auto& f = mb.add_func(FuncType{{ValType::kI32}, {ValType::kI32}}, "grow");
  f.local_get(0).memory_grow().end();
  auto& sz = mb.add_func(FuncType{{}, {ValType::kI32}}, "size");
  sz.memory_size().end();
  auto inst = instantiate(mb);
  ASSERT_NE(inst, nullptr);
  EXPECT_EQ(call_i32(*inst, "size"), 1);
  EXPECT_EQ(call_i32(*inst, "grow", {TypedValue::i32(2)}), 1);  // old size
  EXPECT_EQ(call_i32(*inst, "size"), 3);
  // Beyond max: returns -1, no trap.
  EXPECT_EQ(call_i32(*inst, "grow", {TypedValue::i32(1)}), -1);
}

TEST(Engine, BulkMemoryFillAndCopy) {
  ModuleBuilder mb;
  mb.add_memory(1, 1);
  auto& fill = mb.add_func(FuncType{{}, {}}, "fill");
  fill.i32_const(16).i32_const(0xaa).i32_const(8).memory_fill().end();
  auto& copy = mb.add_func(FuncType{{}, {}}, "copy");
  copy.i32_const(100).i32_const(16).i32_const(8).memory_copy().end();
  auto& peek = mb.add_func(FuncType{{ValType::kI32}, {ValType::kI32}}, "peek8");
  peek.local_get(0).mem(Op::kI32Load8U, 0, 0).end();
  auto inst = instantiate(mb);
  ASSERT_NE(inst, nullptr);
  ASSERT_TRUE(inst->call("fill", std::vector<TypedValue>{}).ok());
  ASSERT_TRUE(inst->call("copy", std::vector<TypedValue>{}).ok());
  EXPECT_EQ(call_i32(*inst, "peek8", {TypedValue::i32(100)}), 0xaa);
  EXPECT_EQ(call_i32(*inst, "peek8", {TypedValue::i32(107)}), 0xaa);
  EXPECT_EQ(call_i32(*inst, "peek8", {TypedValue::i32(108)}), 0);
}

TEST(Engine, DataSegmentInitializesMemory) {
  ModuleBuilder mb;
  mb.add_memory(1, 1);
  const uint8_t payload[] = {1, 2, 3, 4};
  mb.add_data(10, payload);
  auto& peek = mb.add_func(FuncType{{ValType::kI32}, {ValType::kI32}}, "peek8");
  peek.local_get(0).mem(Op::kI32Load8U, 0, 0).end();
  auto inst = instantiate(mb);
  ASSERT_NE(inst, nullptr);
  EXPECT_EQ(call_i32(*inst, "peek8", {TypedValue::i32(10)}), 1);
  EXPECT_EQ(call_i32(*inst, "peek8", {TypedValue::i32(13)}), 4);
}

TEST(Engine, SubWordLoadsSignAndZeroExtend) {
  ModuleBuilder mb;
  mb.add_memory(1, 1);
  const uint8_t payload[] = {0xff, 0x80};
  mb.add_data(0, payload);
  auto& s8 = mb.add_func(FuncType{{}, {ValType::kI32}}, "s8");
  s8.i32_const(0).mem(Op::kI32Load8S, 0, 0).end();
  auto& u8f = mb.add_func(FuncType{{}, {ValType::kI32}}, "u8");
  u8f.i32_const(0).mem(Op::kI32Load8U, 0, 0).end();
  auto& s16 = mb.add_func(FuncType{{}, {ValType::kI32}}, "s16");
  s16.i32_const(0).mem(Op::kI32Load16S, 0, 1).end();
  auto inst = instantiate(mb);
  ASSERT_NE(inst, nullptr);
  EXPECT_EQ(call_i32(*inst, "s8"), -1);
  EXPECT_EQ(call_i32(*inst, "u8"), 255);
  EXPECT_EQ(call_i32(*inst, "s16"), static_cast<int16_t>(0x80ff));
}

// --- Globals. ---

TEST(Engine, MutableGlobalCounter) {
  ModuleBuilder mb;
  uint32_t g = mb.add_global(ValType::kI32, true, wasm::Value::from_i32(100));
  auto& bump = mb.add_func(FuncType{{}, {ValType::kI32}}, "bump");
  bump.global_get(g).i32_const(1).op(Op::kI32Add).global_set(g);
  bump.global_get(g).end();
  auto inst = instantiate(mb);
  ASSERT_NE(inst, nullptr);
  EXPECT_EQ(call_i32(*inst, "bump"), 101);
  EXPECT_EQ(call_i32(*inst, "bump"), 102);
}

// --- Traps and safety. ---

TEST(Engine, UnreachableTraps) {
  ModuleBuilder mb;
  auto& f = mb.add_func(FuncType{{}, {}}, "f");
  f.op(Op::kUnreachable).end();
  auto inst = instantiate(mb);
  ASSERT_NE(inst, nullptr);
  auto err = call_expect_trap(*inst, "f");
  EXPECT_EQ(err.code, Error::Code::kTrap);
}

TEST(Engine, HostSurvivesRepeatedTraps) {
  // The instance stays usable after a trap — the property behind the
  // paper's "gNB catches the exception and continues running".
  ModuleBuilder mb;
  mb.add_memory(1, 1);
  auto& bad = mb.add_func(FuncType{{}, {ValType::kI32}}, "bad");
  bad.i32_const(-1).mem(Op::kI32Load, 0, 2).end();
  auto& good = mb.add_func(FuncType{{}, {ValType::kI32}}, "good");
  good.i32_const(7).end();
  auto inst = instantiate(mb);
  ASSERT_NE(inst, nullptr);
  for (int i = 0; i < 10; ++i) {
    auto err = call_expect_trap(*inst, "bad");
    EXPECT_EQ(err.code, Error::Code::kTrap);
    EXPECT_EQ(call_i32(*inst, "good"), 7);
  }
}

// --- Fuel metering. ---

TEST(Engine, FuelExhaustionStopsInfiniteLoop) {
  ModuleBuilder mb;
  auto& f = mb.add_func(FuncType{{}, {}}, "spin");
  f.loop().br(0).end().end();
  auto inst = instantiate(mb);
  ASSERT_NE(inst, nullptr);
  wasm::CallStats stats;
  auto r = inst->call("spin", {}, {.fuel = 10000}, &stats);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().code, Error::Code::kFuelExhausted);
  EXPECT_EQ(stats.fuel_used, 10000u);  // the whole budget, not a unit more
}

TEST(Engine, FuelAccountingIsPerInstruction) {
  ModuleBuilder mb;
  auto& f = mb.add_func(FuncType{{}, {ValType::kI32}}, "f");
  f.i32_const(1).i32_const(2).op(Op::kI32Add).end();  // 4 instructions incl. end
  auto inst = instantiate(mb);
  ASSERT_NE(inst, nullptr);
  wasm::CallStats stats;
  auto r = inst->call("f", {}, {.fuel = 100}, &stats);
  ASSERT_TRUE(r.ok()) << r.error().message;
  EXPECT_EQ((*r)->value.as_i32(), 3);
  EXPECT_EQ(stats.fuel_used, 4u);
  EXPECT_EQ(inst->instructions_retired(), 4u);
}

TEST(Engine, ExactFuelSucceedsOneLessTraps) {
  ModuleBuilder mb;
  auto& f = mb.add_func(FuncType{{}, {ValType::kI32}}, "f");
  f.i32_const(1).i32_const(2).op(Op::kI32Add).end();
  {
    auto inst = instantiate(mb);
    auto r = inst->call("f", {}, {.fuel = 4});
    ASSERT_TRUE(r.ok()) << r.error().message;
    EXPECT_EQ((*r)->value.as_i32(), 3);
  }
  {
    auto inst = instantiate(mb);
    auto r = inst->call("f", {}, {.fuel = 3});
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.error().code, Error::Code::kFuelExhausted);
  }
}

// --- Host functions. ---

TEST(Engine, HostFunctionCall) {
  ModuleBuilder mb;
  uint32_t host_add = mb.import_func("env", "add",
                                     FuncType{{ValType::kI32, ValType::kI32}, {ValType::kI32}});
  auto& f = mb.add_func(FuncType{{ValType::kI32}, {ValType::kI32}}, "f");
  f.local_get(0).i32_const(100).call(host_add).end();

  wasm::Linker linker;
  int call_count = 0;
  linker.register_func("env", "add",
                       wasm::HostFunc{FuncType{{ValType::kI32, ValType::kI32}, {ValType::kI32}},
                                      [&](wasm::HostContext&, std::span<const wasm::Value> args)
                                          -> Result<std::optional<wasm::Value>> {
                                        ++call_count;
                                        return std::optional<wasm::Value>(wasm::Value::from_i32(
                                            args[0].as_i32() + args[1].as_i32()));
                                      }});
  auto inst = instantiate(mb, linker);
  ASSERT_NE(inst, nullptr);
  EXPECT_EQ(call_i32(*inst, "f", {TypedValue::i32(5)}), 105);
  EXPECT_EQ(call_count, 1);
}

TEST(Engine, HostFunctionCanReadGuestMemory) {
  ModuleBuilder mb;
  uint32_t host_sum = mb.import_func("env", "sum_bytes",
                                     FuncType{{ValType::kI32, ValType::kI32}, {ValType::kI32}});
  mb.add_memory(1, 1);
  const uint8_t payload[] = {10, 20, 30};
  mb.add_data(8, payload);
  auto& f = mb.add_func(FuncType{{}, {ValType::kI32}}, "f");
  f.i32_const(8).i32_const(3).call(host_sum).end();

  wasm::Linker linker;
  linker.register_func(
      "env", "sum_bytes",
      wasm::HostFunc{FuncType{{ValType::kI32, ValType::kI32}, {ValType::kI32}},
                     [](wasm::HostContext& ctx, std::span<const wasm::Value> args)
                         -> Result<std::optional<wasm::Value>> {
                       std::vector<uint8_t> buf(args[1].as_u32());
                       auto st = ctx.instance.memory()->read_bytes(args[0].as_u32(), buf);
                       if (!st.ok()) return st.error();
                       int sum = 0;
                       for (uint8_t b : buf) sum += b;
                       return std::optional<wasm::Value>(wasm::Value::from_i32(sum));
                     }});
  auto inst = instantiate(mb, linker);
  ASSERT_NE(inst, nullptr);
  EXPECT_EQ(call_i32(*inst, "f"), 60);
}

TEST(Engine, HostTrapPropagates) {
  ModuleBuilder mb;
  uint32_t host_fail = mb.import_func("env", "fail", FuncType{{}, {}});
  auto& f = mb.add_func(FuncType{{}, {}}, "f");
  f.call(host_fail).end();

  wasm::Linker linker;
  linker.register_func("env", "fail",
                       wasm::HostFunc{FuncType{{}, {}},
                                      [](wasm::HostContext&, std::span<const wasm::Value>)
                                          -> Result<std::optional<wasm::Value>> {
                                        return Error::trap("host says no");
                                      }});
  auto inst = instantiate(mb, linker);
  ASSERT_NE(inst, nullptr);
  auto err = call_expect_trap(*inst, "f");
  EXPECT_NE(err.message.find("host says no"), std::string::npos);
}

TEST(Engine, UnresolvedImportFailsInstantiation) {
  ModuleBuilder mb;
  mb.import_func("env", "missing", FuncType{{}, {}});
  mb.add_func(FuncType{{}, {}}, "f").end();
  auto bytes = mb.build();
  auto module = wasm::decode_module(bytes);
  ASSERT_TRUE(module.ok());
  ASSERT_TRUE(wasm::validate_module(*module).ok());
  wasm::Linker empty;
  auto inst = wasm::Instance::instantiate(
      std::make_shared<wasm::Module>(std::move(*module)), empty);
  ASSERT_FALSE(inst.ok());
  EXPECT_EQ(inst.error().code, Error::Code::kNotFound);
}

TEST(Engine, ImportSignatureMismatchFailsInstantiation) {
  ModuleBuilder mb;
  mb.import_func("env", "f", FuncType{{ValType::kI32}, {}});
  mb.add_func(FuncType{{}, {}}, "g").end();
  auto bytes = mb.build();
  auto module = wasm::decode_module(bytes);
  ASSERT_TRUE(module.ok());
  wasm::Linker linker;
  linker.register_func("env", "f",
                       wasm::HostFunc{FuncType{{ValType::kI64}, {}},
                                      [](wasm::HostContext&, std::span<const wasm::Value>)
                                          -> Result<std::optional<wasm::Value>> {
                                        return std::optional<wasm::Value>{};
                                      }});
  auto inst = wasm::Instance::instantiate(
      std::make_shared<wasm::Module>(std::move(*module)), linker);
  ASSERT_FALSE(inst.ok());
  EXPECT_EQ(inst.error().code, Error::Code::kValidation);
}

// --- Start function & exports. ---

TEST(Engine, StartFunctionRunsAtInstantiation) {
  ModuleBuilder mb;
  uint32_t g = mb.add_global(ValType::kI32, true, wasm::Value::from_i32(0));
  auto& init = mb.add_func(FuncType{{}, {}});
  init.i32_const(77).global_set(g).end();
  mb.set_start(init.index());
  auto& get = mb.add_func(FuncType{{}, {ValType::kI32}}, "get");
  get.global_get(g).end();
  auto inst = instantiate(mb);
  ASSERT_NE(inst, nullptr);
  EXPECT_EQ(call_i32(*inst, "get"), 77);
}

TEST(Engine, MissingExportIsNotFound) {
  ModuleBuilder mb;
  mb.add_func(FuncType{{}, {}}, "f").end();
  auto inst = instantiate(mb);
  ASSERT_NE(inst, nullptr);
  auto r = inst->call("nope", std::vector<TypedValue>{});
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().code, Error::Code::kNotFound);
}

TEST(Engine, ArgumentTypeMismatchRejected) {
  ModuleBuilder mb;
  auto& f = mb.add_func(FuncType{{ValType::kI32}, {ValType::kI32}}, "f");
  f.local_get(0).end();
  auto inst = instantiate(mb);
  ASSERT_NE(inst, nullptr);
  auto r = inst->call("f", std::vector<TypedValue>{TypedValue::f64(1.0)});
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().code, Error::Code::kInvalidArgument);
  r = inst->call("f", std::vector<TypedValue>{});
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().code, Error::Code::kInvalidArgument);
}

// --- Conversions round-trip sweep (parameterized). ---

class ConvertRoundTrip : public ::testing::TestWithParam<int64_t> {};

TEST_P(ConvertRoundTrip, I64ToF64AndBack) {
  ModuleBuilder mb;
  auto& f = mb.add_func(FuncType{{ValType::kI64}, {ValType::kI64}}, "f");
  f.local_get(0).op(Op::kF64ConvertI64S).op(Op::kI64TruncF64S).end();
  auto inst = instantiate(mb);
  ASSERT_NE(inst, nullptr);
  int64_t v = GetParam();
  EXPECT_EQ(call_i64(*inst, "f", {TypedValue::i64(v)}), v);
}

INSTANTIATE_TEST_SUITE_P(SafeIntegers, ConvertRoundTrip,
                         ::testing::Values(0, 1, -1, 42, -1000000, (1LL << 52),
                                           -(1LL << 52), 123456789012345LL));

}  // namespace
}  // namespace waran
