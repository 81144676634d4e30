// WAT assembler tests: hand-written text modules, error paths, and the
// crown jewel — the full disassemble -> assemble -> disassemble fixpoint
// plus execution equivalence over the real plugin corpus.
#include <gtest/gtest.h>

#include <memory>
#include <set>

#include "common/rng.h"
#include "plugin/plugin.h"
#include "ric/plugin_sources.h"
#include "sched/plugins.h"
#include "tests/wasm_test_util.h"
#include "wasm/disasm.h"
#include "wasmbuilder/wat.h"

namespace waran {
namespace {

using namespace wasmtest;

std::unique_ptr<wasm::Instance> instantiate_wat(const char* text) {
  auto bytes = wasmbuilder::assemble_wat(text);
  EXPECT_TRUE(bytes.ok()) << (bytes.ok() ? "" : bytes.error().message);
  if (!bytes.ok()) return nullptr;
  auto module = wasm::decode_module(*bytes);
  EXPECT_TRUE(module.ok()) << (module.ok() ? "" : module.error().message);
  if (!module.ok()) return nullptr;
  auto st = wasm::validate_module(*module);
  EXPECT_TRUE(st.ok()) << (st.ok() ? "" : st.error().message);
  if (!st.ok()) return nullptr;
  auto inst = wasm::Instance::instantiate(
      std::make_shared<wasm::Module>(std::move(*module)), {});
  EXPECT_TRUE(inst.ok());
  return inst.ok() ? std::move(*inst) : nullptr;
}

TEST(Wat, EmptyModule) {
  auto bytes = wasmbuilder::assemble_wat("(module)");
  ASSERT_TRUE(bytes.ok()) << bytes.error().message;
  EXPECT_TRUE(wasm::decode_module(*bytes).ok());
}

TEST(Wat, HandWrittenFunction) {
  auto inst = instantiate_wat(R"((module
    (func $0 (param i32 i32) (result i32)
      local.get 0
      local.get 1
      i32.add
    )
    (export "add" (func 0))
  ))");
  ASSERT_NE(inst, nullptr);
  EXPECT_EQ(call_i32(*inst, "add", {TypedValue::i32(30), TypedValue::i32(12)}), 42);
}

TEST(Wat, ControlFlowAndLocals) {
  auto inst = instantiate_wat(R"((module
    (export "sum" (func 0))
    (func $0 (param i32) (result i32)
      (local i32 i32)
      block
        loop
          local.get 1
          local.get 0
          i32.ge_s
          br_if 1
          local.get 1
          i32.const 1
          i32.add
          local.tee 1
          local.get 2
          i32.add
          local.set 2
          br 0
        end
      end
      local.get 2
    )
  ))");
  ASSERT_NE(inst, nullptr);
  EXPECT_EQ(call_i32(*inst, "sum", {TypedValue::i32(10)}), 55);
}

TEST(Wat, MemoryGlobalsDataAndMemarg) {
  auto inst = instantiate_wat(R"((module
    (memory 1 2)
    (global 0 (mut i32) (i32.const 7))
    (export "peek" (func 0))
    (data (i32.const 8) "\01\02\ff")
    (func $0 (result i32)
      i32.const 0
      i32.load8_u offset=10 align=1
      global.get 0
      i32.add
    )
  ))");
  ASSERT_NE(inst, nullptr);
  EXPECT_EQ(call_i32(*inst, "peek"), 0xff + 7);
}

TEST(Wat, TableElemCallIndirect) {
  auto inst = instantiate_wat(R"((module
    (type 0 (func (result i32)))
    (table 2 2 funcref)
    (elem (i32.const 0) 0 1)
    (export "pick" (func 2))
    (func $0 (result i32) i32.const 100)
    (func $1 (result i32) i32.const 200)
    (func $2 (param i32) (result i32)
      local.get 0
      call_indirect (type 0)
    )
  ))");
  ASSERT_NE(inst, nullptr);
  EXPECT_EQ(call_i32(*inst, "pick", {TypedValue::i32(0)}), 100);
  EXPECT_EQ(call_i32(*inst, "pick", {TypedValue::i32(1)}), 200);
}

TEST(Wat, FloatConstsIncludingSpecials) {
  auto inst = instantiate_wat(R"((module
    (export "f" (func 0))
    (func $0 (result f64)
      f64.const 2.5
      f64.const -0.5
      f64.mul
    )
  ))");
  ASSERT_NE(inst, nullptr);
  EXPECT_DOUBLE_EQ(call_f64(*inst, "f"), -1.25);
}

TEST(WatErrors, Diagnostics) {
  EXPECT_FALSE(wasmbuilder::assemble_wat("").ok());
  EXPECT_FALSE(wasmbuilder::assemble_wat("(module").ok());
  EXPECT_FALSE(wasmbuilder::assemble_wat("(module (bogus))").ok());
  EXPECT_FALSE(wasmbuilder::assemble_wat(
                   "(module (func $0 i32.frobnicate))").ok());
  EXPECT_FALSE(wasmbuilder::assemble_wat(
                   "(module (func $0 i32.const zzz))").ok());
  EXPECT_FALSE(wasmbuilder::assemble_wat(
                   "(module (func $0) (import \"a\" \"b\" (func)))").ok());
}

// --- The round trip: binary -> text -> binary over the whole corpus. ---

void assert_round_trip(std::span<const uint8_t> original, const char* label) {
  auto module1 = wasm::decode_module(original);
  ASSERT_TRUE(module1.ok()) << label;
  std::string text1 = wasm::disassemble(*module1);

  auto reassembled = wasmbuilder::assemble_wat(text1);
  ASSERT_TRUE(reassembled.ok()) << label << ": " << reassembled.error().message
                                << "\n" << text1;
  auto module2 = wasm::decode_module(*reassembled);
  ASSERT_TRUE(module2.ok()) << label;
  ASSERT_TRUE(wasm::validate_module(*module2).ok()) << label;

  // Textual fixpoint: disassembling the reassembled module reproduces the
  // exact same listing.
  EXPECT_EQ(wasm::disassemble(*module2), text1) << label;
}

TEST(WatRoundTrip, SchedulerPlugins) {
  for (const char* kind : {"rr", "pf", "mt"}) {
    auto bytes = sched::plugins::scheduler(kind);
    ASSERT_TRUE(bytes.ok());
    assert_round_trip(*bytes, kind);
  }
}

TEST(WatRoundTrip, RicPluginCorpus) {
  auto comm = ric::plugin_sources::comm_framing();
  auto ctl = ric::plugin_sources::control_dispatch_v2();
  auto sla = ric::plugin_sources::sla_xapp();
  auto steer = ric::plugin_sources::steer_xapp();
  ASSERT_TRUE(comm.ok() && ctl.ok() && sla.ok() && steer.ok());
  assert_round_trip(*comm, "comm");
  assert_round_trip(*ctl, "ctl-v2");
  assert_round_trip(*sla, "sla");
  assert_round_trip(*steer, "steer");
}

TEST(WatRoundTrip, ReassembledPluginBehavesIdentically) {
  auto original = sched::plugins::scheduler("pf");
  ASSERT_TRUE(original.ok());
  auto module = wasm::decode_module(*original);
  ASSERT_TRUE(module.ok());
  auto reassembled = wasmbuilder::assemble_wat(wasm::disassemble(*module));
  ASSERT_TRUE(reassembled.ok());

  auto p1 = plugin::Plugin::load(*original);
  auto p2 = plugin::Plugin::load(*reassembled);
  ASSERT_TRUE(p1.ok() && p2.ok());

  // Identical outputs on identical inputs (a few structured requests in the
  // flat wire format: header + UE records).
  Xoshiro256 rng(31337);
  for (int round = 0; round < 10; ++round) {
    std::vector<uint8_t> input(12 + 5 * 40, 0);
    input[0] = static_cast<uint8_t>(round);  // slot
    input[4] = 52;                           // quota
    input[8] = 5;                            // n_ues
    for (size_t i = 12; i < input.size(); ++i) {
      input[i] = static_cast<uint8_t>(rng.next());
    }
    std::vector<uint8_t> o1, o2;
    const bool ok1 = (*p1)->call("schedule", input, o1).ok();
    ASSERT_EQ(ok1, (*p2)->call("schedule", input, o2).ok());
    if (ok1) {
      EXPECT_EQ(o1, o2);
    }
  }
}

TEST(WatRoundTrip, BuilderFeaturesModule) {
  // A module exercising every section the disassembler prints.
  ModuleBuilder mb;
  mb.import_func("env", "h", FuncType{{ValType::kF64}, {ValType::kF64}});
  mb.add_memory(1, 4, "memory");
  mb.add_global(ValType::kF64, true, wasm::Value::from_f64(3.25));
  mb.add_global(ValType::kI64, false, wasm::Value::from_i64(-9));
  FuncType sig{{ValType::kI32}, {ValType::kI32}};
  auto& f = mb.add_func(sig, "f");
  uint32_t tmp = f.add_local(ValType::kI64);
  f.local_get(0).if_(BlockT::i32());
  f.i32_const(1);
  f.else_();
  f.i32_const(-2);
  f.end();
  f.i64_const(5).local_set(tmp);
  f.end();
  mb.add_table(1, 1);
  mb.add_elem(0, {f.index()});
  const uint8_t data[] = {0xde, 0xad};
  mb.add_data(100, data);
  auto bytes = mb.build();
  assert_round_trip(bytes, "builder-features");
}

TEST(WatRoundTrip, EveryInstruction) {
  // One function holding every instruction of the opcode table once, each
  // with a non-zero immediate. Decoding it, printing it and assembling the
  // text must give back the encoder's bytes exactly.
  using wasm::OpImm;
  ModuleBuilder mb;
  mb.add_memory(1);
  mb.add_table(1);
  mb.add_global(ValType::kI32, true, wasm::Value::from_i32(0));
  const uint32_t sig = mb.add_type(FuncType{{ValType::kI32}, {ValType::kI64}});
  auto& f = mb.add_func(FuncType{{ValType::kI32}, {}});
  f.add_local(ValType::kI64);
  // Control by hand: in table order `end` would close the body.
  f.block(BlockT::i32()).loop().if_(BlockT::f64()).else_().end().end().end();
  f.br(1).br_if(2).br_table({0, 3}, 1).ret().call(0).call_indirect(sig);
  f.op(Op::kUnreachable).op(Op::kNop);
  auto emit = [&f](Op op) {
    const wasm::OpInfo& info = wasm::op_info(op);
    switch (info.imm) {
      case OpImm::kIndex:
        if (op == Op::kLocalGet) f.local_get(1);
        if (op == Op::kLocalSet) f.local_set(1);
        if (op == Op::kLocalTee) f.local_tee(1);
        if (op == Op::kGlobalGet) f.global_get(0);
        if (op == Op::kGlobalSet) f.global_set(0);
        break;
      case OpImm::kI32: f.i32_const(-123456); break;
      case OpImm::kI64: f.i64_const(-(int64_t{1} << 40) - 7); break;
      case OpImm::kF32: f.f32_const(1.5f); break;
      case OpImm::kF64: f.f64_const(-2.75e300); break;
      case OpImm::kMem8:
      case OpImm::kMem16:
      case OpImm::kMem32:
      case OpImm::kMem64:
        f.mem(op, 16, wasm::natural_align_log2(info.imm));
        break;
      case OpImm::kMemIdx:
      case OpImm::kMemIdx2:
        if (op == Op::kMemorySize) f.memory_size();
        if (op == Op::kMemoryGrow) f.memory_grow();
        if (op == Op::kMemoryCopy) f.memory_copy();
        if (op == Op::kMemoryFill) f.memory_fill();
        break;
      default:
        f.op(op);
        break;
    }
  };
#define WARAN_EMIT(name, ...) emit(Op::k##name);
  WARAN_OPS_VARIABLE(WARAN_EMIT) WARAN_OPS_CONST(WARAN_EMIT) WARAN_OPS_MEMORY(WARAN_EMIT)
  WARAN_OPS_COMPARE(WARAN_EMIT) WARAN_OPS_NUMERIC(WARAN_EMIT) WARAN_OPS_CONVERT(WARAN_EMIT)
  WARAN_OPS_REINTERPRET(WARAN_EMIT)
#undef WARAN_EMIT
  f.end();
  const std::vector<uint8_t> bytes = mb.build();

  auto module = wasm::decode_module(bytes);
  ASSERT_TRUE(module.ok()) << module.error().message;
  std::set<Op> seen;
  for (const wasm::Instr& ins : module->codes[0].body) seen.insert(ins.op);
  EXPECT_EQ(seen.size(), 187u);
  auto again = wasmbuilder::assemble_wat(wasm::disassemble(*module));
  ASSERT_TRUE(again.ok()) << again.error().message;
  EXPECT_EQ(*again, bytes);
}

}  // namespace
}  // namespace waran
