// Engine stress and edge-of-spec tests: deep nesting, many locals, large
// dispatch tables, growth boundaries, and value-representation corners that
// a scheduler plugin could plausibly hit under adversarial inputs.
#include <gtest/gtest.h>

#include <cmath>

#include "tests/wasm_test_util.h"

namespace waran {
namespace {

using namespace wasmtest;

TEST(EngineStress, DeeplyNestedBlocks) {
  // 200 nested blocks with a br out of the middle.
  ModuleBuilder mb;
  auto& f = mb.add_func(FuncType{{}, {ValType::kI32}}, "f");
  const int kDepth = 200;
  for (int i = 0; i < kDepth; ++i) f.block();
  f.br(kDepth / 2);  // jump out of 100 levels at once
  for (int i = 0; i < kDepth; ++i) f.end();
  f.i32_const(77).end();
  auto inst = instantiate(mb);
  ASSERT_NE(inst, nullptr);
  EXPECT_EQ(call_i32(*inst, "f"), 77);
}

TEST(EngineStress, ManyLocalsRunLengthEncoding) {
  // 1000 locals of alternating types exercise the run-length local groups.
  ModuleBuilder mb;
  auto& f = mb.add_func(FuncType{{}, {ValType::kI32}}, "f");
  std::vector<uint32_t> idx;
  for (int i = 0; i < 500; ++i) {
    idx.push_back(f.add_local(ValType::kI32));
    f.add_local(ValType::kF64);
  }
  // Sum a few of them after setting.
  f.i32_const(11).local_set(idx[0]);
  f.i32_const(22).local_set(idx[499]);
  f.local_get(idx[0]).local_get(idx[499]).op(Op::kI32Add).end();
  auto inst = instantiate(mb);
  ASSERT_NE(inst, nullptr);
  EXPECT_EQ(call_i32(*inst, "f"), 33);
}

TEST(EngineStress, LargeBrTable) {
  // 256-way dispatch; every lane returns its index + 1000.
  ModuleBuilder mb;
  auto& f = mb.add_func(FuncType{{ValType::kI32}, {ValType::kI32}}, "f");
  const uint32_t kLanes = 256;
  for (uint32_t i = 0; i < kLanes + 1; ++i) f.block();
  std::vector<uint32_t> targets(kLanes);
  for (uint32_t i = 0; i < kLanes; ++i) targets[i] = i;
  f.local_get(0).br_table(targets, kLanes);
  for (uint32_t i = 0; i < kLanes; ++i) {
    f.end();
    f.i32_const(static_cast<int32_t>(1000 + i)).ret();
  }
  f.end();  // outermost (default)
  f.i32_const(-1).end();
  auto inst = instantiate(mb);
  ASSERT_NE(inst, nullptr);
  EXPECT_EQ(call_i32(*inst, "f", {TypedValue::i32(0)}), 1000);
  EXPECT_EQ(call_i32(*inst, "f", {TypedValue::i32(255)}), 1255);
  EXPECT_EQ(call_i32(*inst, "f", {TypedValue::i32(256)}), -1);
  EXPECT_EQ(call_i32(*inst, "f", {TypedValue::i32(-5)}), -1);
}

TEST(EngineStress, LoopWithBlockResult) {
  // A block with a result fed by a loop-exit br: exercises branch value
  // transfer across label pops.
  ModuleBuilder mb;
  auto& f = mb.add_func(FuncType{{ValType::kI32}, {ValType::kI32}}, "f");
  uint32_t i = f.add_local(ValType::kI32);
  f.block(BlockT::i32());
  f.loop();
  f.local_get(i).i32_const(1).op(Op::kI32Add).local_tee(i);
  f.local_get(0).op(Op::kI32GeS).if_();
  f.local_get(i).i32_const(100).op(Op::kI32Mul).br(2);  // exit with value
  f.end();
  f.br(0);
  f.end();
  // Unreachable fallthrough of the block still needs type-correct stack.
  f.i32_const(0);
  f.end();
  f.end();
  auto inst = instantiate(mb);
  ASSERT_NE(inst, nullptr);
  EXPECT_EQ(call_i32(*inst, "f", {TypedValue::i32(7)}), 700);
}

TEST(EngineStress, GrowThenAccessBoundary) {
  // Access just past the old boundary fails before grow, succeeds after.
  ModuleBuilder mb;
  mb.add_memory(1, 4);
  auto& peek = mb.add_func(FuncType{{ValType::kI32}, {ValType::kI32}}, "peek");
  peek.local_get(0).mem(Op::kI32Load, 0, 2).end();
  auto& grow = mb.add_func(FuncType{{}, {ValType::kI32}}, "grow");
  grow.i32_const(1).memory_grow().end();
  auto inst = instantiate(mb);
  ASSERT_NE(inst, nullptr);
  int32_t boundary = 65536;
  EXPECT_EQ(call_expect_trap(*inst, "peek", {TypedValue::i32(boundary)}).code,
            Error::Code::kTrap);
  EXPECT_EQ(call_i32(*inst, "grow"), 1);
  EXPECT_EQ(call_i32(*inst, "peek", {TypedValue::i32(boundary)}), 0);
  // New boundary still enforced.
  EXPECT_EQ(call_expect_trap(*inst, "peek", {TypedValue::i32(2 * boundary)}).code,
            Error::Code::kTrap);
}

TEST(EngineStress, SelectOnFloats) {
  ModuleBuilder mb;
  auto& f = mb.add_func(
      FuncType{{ValType::kF64, ValType::kF64, ValType::kI32}, {ValType::kF64}}, "f");
  f.local_get(0).local_get(1).local_get(2).op(Op::kSelect).end();
  auto inst = instantiate(mb);
  ASSERT_NE(inst, nullptr);
  EXPECT_DOUBLE_EQ(call_f64(*inst, "f",
                            {TypedValue::f64(1.5), TypedValue::f64(2.5),
                             TypedValue::i32(1)}),
                   1.5);
  EXPECT_DOUBLE_EQ(call_f64(*inst, "f",
                            {TypedValue::f64(1.5), TypedValue::f64(2.5),
                             TypedValue::i32(0)}),
                   2.5);
}

TEST(EngineStress, NaNBitsPreservedThroughReinterpret) {
  // A signalling-ish NaN payload must survive i64 <-> f64 reinterpretation.
  ModuleBuilder mb;
  auto& f = mb.add_func(FuncType{{ValType::kI64}, {ValType::kI64}}, "f");
  f.local_get(0).op(Op::kF64ReinterpretI64).op(Op::kI64ReinterpretF64).end();
  auto inst = instantiate(mb);
  ASSERT_NE(inst, nullptr);
  int64_t nan_payload = 0x7ff8dead'beefcafeLL;
  EXPECT_EQ(call_i64(*inst, "f", {TypedValue::i64(nan_payload)}), nan_payload);
}

TEST(EngineStress, MutualRecursionBoundedByDepth) {
  ModuleBuilder mb;
  FuncType sig{{ValType::kI32}, {ValType::kI32}};
  // even(n) / odd(n) mutual recursion.
  auto& even = mb.add_func(sig, "even");
  auto& odd = mb.add_func(sig);
  even.local_get(0).op(Op::kI32Eqz).if_(BlockT::i32());
  even.i32_const(1);
  even.else_();
  even.local_get(0).i32_const(1).op(Op::kI32Sub).call(odd.index());
  even.end().end();
  odd.local_get(0).op(Op::kI32Eqz).if_(BlockT::i32());
  odd.i32_const(0);
  odd.else_();
  odd.local_get(0).i32_const(1).op(Op::kI32Sub).call(even.index());
  odd.end().end();
  auto inst = instantiate(mb);
  ASSERT_NE(inst, nullptr);
  EXPECT_EQ(call_i32(*inst, "even", {TypedValue::i32(100)}), 1);
  EXPECT_EQ(call_i32(*inst, "even", {TypedValue::i32(101)}), 0);
  // Beyond the call-depth cap it traps instead of smashing the host stack.
  auto err = call_expect_trap(*inst, "even", {TypedValue::i32(100000)});
  EXPECT_NE(err.message.find("call stack"), std::string::npos);
}

TEST(EngineStress, FuelHaltsDeepRecursionMidway) {
  ModuleBuilder mb;
  FuncType sig{{ValType::kI32}, {ValType::kI32}};
  auto& f = mb.add_func(sig, "f");
  f.local_get(0).op(Op::kI32Eqz).if_(BlockT::i32());
  f.i32_const(0);
  f.else_();
  f.local_get(0).i32_const(1).op(Op::kI32Sub).call(0);
  f.end().end();
  auto inst = instantiate(mb);
  ASSERT_NE(inst, nullptr);
  std::vector<TypedValue> args{TypedValue::i32(200)};
  // A budget far less than n=200 recursion needs.
  auto r = inst->call("f", args, {.fuel = 100});
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().code, Error::Code::kFuelExhausted);
}

TEST(EngineStress, GlobalsOfEveryType) {
  ModuleBuilder mb;
  uint32_t gi32 = mb.add_global(ValType::kI32, true, wasm::Value::from_i32(-3));
  uint32_t gi64 = mb.add_global(ValType::kI64, true, wasm::Value::from_i64(1LL << 40));
  uint32_t gf32 = mb.add_global(ValType::kF32, true, wasm::Value::from_f32(0.5f));
  uint32_t gf64 = mb.add_global(ValType::kF64, true, wasm::Value::from_f64(-2.25));
  auto& f = mb.add_func(FuncType{{}, {ValType::kF64}}, "f");
  // f64(i32) + f64(i64 >> 40) + promote(f32) + f64
  f.global_get(gi32).op(Op::kF64ConvertI32S);
  f.global_get(gi64).i64_const(40).op(Op::kI64ShrU).op(Op::kF64ConvertI64S);
  f.op(Op::kF64Add);
  f.global_get(gf32).op(Op::kF64PromoteF32).op(Op::kF64Add);
  f.global_get(gf64).op(Op::kF64Add);
  f.end();
  auto inst = instantiate(mb);
  ASSERT_NE(inst, nullptr);
  EXPECT_DOUBLE_EQ(call_f64(*inst, "f"), -3.0 + 1.0 + 0.5 - 2.25);
}

TEST(EngineStress, MemoryCopyOverlappingRegions) {
  ModuleBuilder mb;
  mb.add_memory(1, 1);
  const uint8_t seed[] = {1, 2, 3, 4, 5, 6, 7, 8};
  mb.add_data(100, seed);
  auto& f = mb.add_func(FuncType{{}, {}}, "shift");
  // Overlapping forward copy: [100..108) -> [104..112) (memmove semantics).
  f.i32_const(104).i32_const(100).i32_const(8).memory_copy().end();
  auto& peek = mb.add_func(FuncType{{ValType::kI32}, {ValType::kI32}}, "peek8");
  peek.local_get(0).mem(Op::kI32Load8U, 0, 0).end();
  auto inst = instantiate(mb);
  ASSERT_NE(inst, nullptr);
  ASSERT_TRUE(inst->call("shift", std::vector<TypedValue>{}).ok());
  // memmove: dst keeps the original source bytes, not a cascaded smear.
  EXPECT_EQ(call_i32(*inst, "peek8", {TypedValue::i32(104)}), 1);
  EXPECT_EQ(call_i32(*inst, "peek8", {TypedValue::i32(111)}), 8);
  EXPECT_EQ(call_i32(*inst, "peek8", {TypedValue::i32(100)}), 1);  // prefix intact
}

TEST(EngineStress, BulkOpsOutOfBoundsTrap) {
  ModuleBuilder mb;
  mb.add_memory(1, 1);
  auto& fill = mb.add_func(FuncType{{ValType::kI32}, {}}, "fill");
  fill.local_get(0).i32_const(0).i32_const(16).memory_fill().end();
  auto inst = instantiate(mb);
  ASSERT_NE(inst, nullptr);
  EXPECT_TRUE(inst->call("fill", std::vector<TypedValue>{TypedValue::i32(65520)}).ok());
  auto err = call_expect_trap(*inst, "fill", {TypedValue::i32(65521)});
  EXPECT_EQ(err.code, Error::Code::kTrap);
}

}  // namespace
}  // namespace waran
