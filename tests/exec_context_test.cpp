// Tests for the explicit-frame execution core: deep wasm->wasm recursion on
// interpreter frames (no native recursion), re-entrant host->wasm calls on
// the shared ExecContext, segment-level fuel accounting that never exceeds
// the budget, per-call CallOptions/CallStats, and the zero-allocation
// warm-call guarantee (tests/heap_probe_guard.h overrides this binary's
// operator new to count real heap traffic through the heap probe).
#include <gtest/gtest.h>

#include "common/tracked_alloc.h"
#include "tests/heap_probe_guard.h"
#include "tests/wasm_test_util.h"

namespace waran::wasmtest {
namespace {

using wasm::CallOptions;
using wasm::CallStats;
using wasm::HostContext;
using wasm::HostFunc;
using wasm::Value;

TEST(ExecContext, DeepRecursionRunsOnInterpreterFrames) {
  // 20k+ wasm frames would overflow the native stack if calls recursed
  // natively; on explicit frames this is just vector growth.
  wasm::InstanceOptions options;
  options.max_call_depth = 50'000;
  auto inst = instantiate(recursive_module(), {}, options);
  ASSERT_NE(inst, nullptr);

  std::vector<TypedValue> args{{ValType::kI32, Value::from_i32(20'000)}};
  CallStats stats;
  auto r = inst->call("down", args, CallOptions{}, &stats);
  ASSERT_TRUE(r.ok()) << (r.ok() ? "" : r.error().message);
  EXPECT_EQ((*r)->value.as_i32(), 0);
  EXPECT_EQ(stats.peak_stack_depth, 20'001u);
}

TEST(ExecContext, DeepRecursionTrapsCleanlyAtDepthLimit) {
  wasm::InstanceOptions options;
  options.max_call_depth = 10'000;
  auto inst = instantiate(recursive_module(), {}, options);
  ASSERT_NE(inst, nullptr);

  std::vector<TypedValue> args{{ValType::kI32, Value::from_i32(100'000)}};
  Error err = call_expect_trap(*inst, "down", args);
  EXPECT_NE(err.message.find("call stack"), std::string::npos) << err.message;

  // The trap unwound the shared context: a shallow call still works.
  std::vector<TypedValue> ok_args{{ValType::kI32, Value::from_i32(5)}};
  EXPECT_EQ(call_i32(*inst, "down", ok_args), 0);
}

TEST(ExecContext, ReentrantHostToWasmSharesOneContext) {
  auto inst = instantiate(reentrant_module(), reenter_linker("leaf"));
  ASSERT_NE(inst, nullptr);

  std::vector<TypedValue> args{{ValType::kI32, Value::from_i32(21)}};
  CallStats stats;
  auto r = inst->call("outer", args, CallOptions{}, &stats);
  ASSERT_TRUE(r.ok()) << (r.ok() ? "" : r.error().message);
  EXPECT_EQ((*r)->value.as_i32(), 43);  // 21 * 2 + 1
  // The nested leaf frame sat on top of outer's frame in the same context.
  EXPECT_EQ(stats.peak_stack_depth, 2u);

  // Many re-entrant rounds neither corrupt nor grow the shared stacks.
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(call_i32(*inst, "outer", args), 43);
  }
}

TEST(ExecContext, ReentrantTrapUnwindsSharedContext) {
  // The host re-enters the instance calling an export that recurses past
  // the depth limit; the resulting trap must unwind both nesting levels.
  wasm::InstanceOptions options;
  options.max_call_depth = 64;
  ModuleBuilder mb;
  uint32_t imp =
      mb.import_func("env", "reenter", FuncType{{ValType::kI32}, {ValType::kI32}});
  FunctionBuilder& down = mb.add_func(FuncType{{ValType::kI32}, {ValType::kI32}}, "down");
  down.local_get(0)
      .op(Op::kI32Eqz)
      .if_(BlockT::i32())
      .i32_const(0)
      .else_()
      .local_get(0)
      .i32_const(1)
      .op(Op::kI32Sub)
      .call(down.index())
      .end()
      .end();
  FunctionBuilder& outer =
      mb.add_func(FuncType{{ValType::kI32}, {ValType::kI32}}, "outer");
  outer.local_get(0).call(imp).end();

  auto inst = instantiate(mb, reenter_linker("down"), options);
  ASSERT_NE(inst, nullptr);

  std::vector<TypedValue> deep{{ValType::kI32, Value::from_i32(1000)}};
  Error err = call_expect_trap(*inst, "outer", deep);
  EXPECT_NE(err.message.find("call stack"), std::string::npos) << err.message;

  std::vector<TypedValue> shallow{{ValType::kI32, Value::from_i32(3)}};
  EXPECT_EQ(call_i32(*inst, "outer", shallow), 0);
}


TEST(ExecContext, SegmentFuelMatchesInstructionCountExactly) {
  auto inst = instantiate(branchy_module());
  ASSERT_NE(inst, nullptr);
  std::vector<TypedValue> args{{ValType::kI32, Value::from_i32(10)}};

  // Reference cost: unmetered run reports retired instructions.
  CallOptions unmetered;
  unmetered.fuel = 0;
  CallStats ref;
  auto r = inst->call("sum", args, unmetered, &ref);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ((*r)->value.as_i32(), 5 + 7 + 9 + 1 + 3);  // odd numbers <= 10
  ASSERT_GT(ref.instrs_retired, 0u);
  EXPECT_EQ(ref.fuel_used, ref.instrs_retired);

  // A budget of exactly the instruction count succeeds...
  CallOptions exact;
  exact.fuel = ref.instrs_retired;
  CallStats stats;
  ASSERT_TRUE(inst->call("sum", args, exact, &stats).ok());
  EXPECT_EQ(stats.fuel_used, ref.instrs_retired);

  // ...and EVERY smaller budget traps with kFuelExhausted without ever
  // charging more than the budget (segment metering may stop short, but
  // can never overdraw).
  for (uint64_t budget = 1; budget < ref.instrs_retired; ++budget) {
    CallOptions limited;
    limited.fuel = budget;
    CallStats st;
    auto res = inst->call("sum", args, limited, &st);
    ASSERT_FALSE(res.ok()) << "budget " << budget << " unexpectedly sufficed";
    EXPECT_EQ(res.error().code, Error::Code::kFuelExhausted) << res.error().message;
    EXPECT_LE(st.fuel_used, budget);
    EXPECT_LE(st.instrs_retired, budget);
  }
}

TEST(ExecContext, ReentrantCallBudgetNestsInTheEnclosingCall) {
  // env.reenter calls leaf(x) under `inner`: an inner call with its own
  // budget leaves the enclosing call's remaining fuel untouched, and a
  // nullopt inner call draws on it.
  CallOptions inner;
  CallStats inner_stats;
  wasm::Linker linker;
  linker.register_func(
      "env", "reenter",
      HostFunc{FuncType{{ValType::kI32}, {ValType::kI32}},
               [&](HostContext& ctx, std::span<const Value> args)
                   -> Result<std::optional<Value>> {
                 TypedValue arg{ValType::kI32, args[0]};
                 auto r = ctx.instance.call("leaf", std::span<const TypedValue>(&arg, 1),
                                            inner, &inner_stats);
                 if (!r.ok()) return r.error();
                 return std::optional<Value>((*r)->value);
               }});
  auto inst = instantiate(reentrant_module(), linker);
  ASSERT_NE(inst, nullptr);
  std::vector<TypedValue> args{{ValType::kI32, Value::from_i32(5)}};
  CallOptions outer;
  outer.fuel = 1000;

  inner.fuel = 500;  // its own budget
  CallStats own;
  auto r = inst->call("outer", args, outer, &own);
  ASSERT_TRUE(r.ok()) << r.error().message;
  EXPECT_EQ((*r)->value.as_i32(), 11);
  const uint64_t leaf_fuel = inner_stats.fuel_used;
  ASSERT_GT(leaf_fuel, 0u);
  // The enclosing call paid only for its own segments; it retired both.
  EXPECT_EQ(own.instrs_retired, own.fuel_used + leaf_fuel);

  inner.fuel = 0;  // unmetered: the enclosing budget is untouched too
  CallStats unmetered;
  ASSERT_TRUE(inst->call("outer", args, outer, &unmetered).ok());
  EXPECT_EQ(unmetered.fuel_used, own.fuel_used);

  inner.fuel = std::nullopt;  // continues the enclosing call's metering
  CallStats shared;
  ASSERT_TRUE(inst->call("outer", args, outer, &shared).ok());
  EXPECT_EQ(inner_stats.fuel_used, leaf_fuel);
  EXPECT_EQ(shared.fuel_used, own.fuel_used + leaf_fuel);

  // One unit short of both shares: the nested call exhausts the enclosing
  // budget, while with its own budget the same enclosing budget suffices.
  outer.fuel = own.fuel_used + leaf_fuel - 1;
  auto starved = inst->call("outer", args, outer, nullptr);
  ASSERT_FALSE(starved.ok());
  EXPECT_EQ(starved.error().code, Error::Code::kFuelExhausted) << starved.error().message;
  inner.fuel = 500;
  EXPECT_TRUE(inst->call("outer", args, outer, nullptr).ok());

  // A top-level nullopt call runs unmetered: no budget outlives its call.
  inner.fuel = std::nullopt;
  EXPECT_EQ(call_i32(*inst, "outer", args), 11);
}

TEST(ExecContext, WarmCallMakesNoHeapAllocations) {
  // work(n): the branchy loop plus a wasm->wasm call, exercising frames,
  // labels, locals and the value stack — the full warm path.
  ModuleBuilder mb;
  FunctionBuilder& leaf = mb.add_func(FuncType{{ValType::kI32}, {ValType::kI32}}, "leaf");
  leaf.local_get(0).i32_const(3).op(Op::kI32Mul).end();
  FunctionBuilder& work = mb.add_func(FuncType{{ValType::kI32}, {ValType::kI32}}, "work");
  uint32_t s = work.add_local(ValType::kI32);
  work.block()
      .loop()
      .local_get(0)
      .op(Op::kI32Eqz)
      .br_if(1)
      .local_get(s)
      .local_get(0)
      .call(leaf.index())
      .op(Op::kI32Add)
      .local_set(s)
      .local_get(0)
      .i32_const(1)
      .op(Op::kI32Sub)
      .local_set(0)
      .br(0)
      .end()
      .end()
      .local_get(s)
      .end();
  auto inst = instantiate(mb);
  ASSERT_NE(inst, nullptr);

  std::vector<TypedValue> args{{ValType::kI32, Value::from_i32(32)}};
  CallOptions opts;
  opts.fuel = 1'000'000;  // metered path must be zero-alloc too
  CallStats stats;

  // Warm-up: let ExecContext vectors reach steady-state capacity.
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(inst->call("work", args, opts, &stats).ok());
  }

  const uint64_t before = heap_probe::allocations();
  bool all_ok = true;
  int32_t last = 0;
  for (int i = 0; i < 256; ++i) {
    auto r = inst->call("work", args, opts, &stats);
    all_ok = all_ok && r.ok();
    if (r.ok()) last = (*r)->value.as_i32();
  }
  const uint64_t after = heap_probe::allocations();

  EXPECT_TRUE(all_ok);
  EXPECT_EQ(last, 3 * (32 * 33) / 2);
  EXPECT_EQ(after - before, 0u) << "warm Instance::call touched the heap";
}

}  // namespace
}  // namespace waran::wasmtest
