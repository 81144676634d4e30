// Disassembler tests: structural completeness (every section represented),
// stable opcode naming, and usability on the real plugin corpus.
#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cstdlib>

#include "sched/plugins.h"
#include "tests/wasm_test_util.h"
#include "wasm/disasm.h"
#include "wcc/compiler.h"

namespace waran {
namespace {

using namespace wasmtest;

TEST(Disasm, EmptyModule) {
  ModuleBuilder mb;
  auto bytes = mb.build();
  auto module = wasm::decode_module(bytes);
  ASSERT_TRUE(module.ok());
  EXPECT_EQ(wasm::disassemble(*module), "(module\n)\n");
}

TEST(Disasm, CoversAllSections) {
  ModuleBuilder mb;
  mb.import_func("env", "host", FuncType{{ValType::kI32}, {}});
  mb.add_memory(2, 8, "memory");
  mb.add_global(ValType::kI64, true, wasm::Value::from_i64(-5));
  FuncType sig{{}, {ValType::kI32}};
  auto& f = mb.add_func(sig, "answer");
  f.i32_const(42).end();
  mb.add_table(1, 1);
  mb.add_elem(0, {f.index()});
  const uint8_t data[] = {1, 2};
  mb.add_data(64, data);

  auto bytes = mb.build();
  auto module = wasm::decode_module(bytes);
  ASSERT_TRUE(module.ok());
  std::string text = wasm::disassemble(*module);

  EXPECT_NE(text.find("(import \"env\" \"host\" (func (param i32)))"), std::string::npos)
      << text;
  EXPECT_NE(text.find("(memory 2 8)"), std::string::npos);
  EXPECT_NE(text.find("(table 1 1 funcref)"), std::string::npos);
  EXPECT_NE(text.find("(mut i64) (i64.const -5)"), std::string::npos);
  EXPECT_NE(text.find("(export \"answer\" (func 1))"), std::string::npos);
  EXPECT_NE(text.find("i32.const 42"), std::string::npos);
}

TEST(Disasm, ControlFlowIndentation) {
  ModuleBuilder mb;
  auto& f = mb.add_func(FuncType{{ValType::kI32}, {ValType::kI32}}, "f");
  f.local_get(0).if_(BlockT::i32());
  f.i32_const(1);
  f.else_();
  f.block().i32_const(5).br_if(0).end();
  f.i32_const(2);
  f.end().end();
  auto bytes = mb.build();
  auto module = wasm::decode_module(bytes);
  ASSERT_TRUE(module.ok());
  std::string text = wasm::disassemble(*module);
  // if carries its result annotation; nesting indents the inner block body.
  EXPECT_NE(text.find("if (result i32)"), std::string::npos) << text;
  EXPECT_NE(text.find("\n      block"), std::string::npos) << text;
  EXPECT_NE(text.find("br_if 0"), std::string::npos);
}

TEST(Disasm, MemargRendering) {
  ModuleBuilder mb;
  mb.add_memory(1, 1);
  auto& f = mb.add_func(FuncType{{}, {ValType::kI32}}, "f");
  f.i32_const(0).mem(Op::kI32Load, 16, 2).end();
  auto bytes = mb.build();
  auto module = wasm::decode_module(bytes);
  ASSERT_TRUE(module.ok());
  std::string text = wasm::disassemble(*module);
  EXPECT_NE(text.find("i32.load offset=16 align=4"), std::string::npos) << text;
}

TEST(Disasm, WholePluginCorpusDisassembles) {
  for (const char* kind : {"rr", "pf", "mt"}) {
    auto bytes = sched::plugins::scheduler(kind);
    ASSERT_TRUE(bytes.ok());
    auto module = wasm::decode_module(*bytes);
    ASSERT_TRUE(module.ok());
    std::string text = wasm::disassemble(*module);
    EXPECT_NE(text.find("(export \"schedule\""), std::string::npos) << kind;
    EXPECT_GT(text.size(), 500u) << kind;
    // Balanced parens is a cheap well-formedness proxy.
    EXPECT_EQ(std::count(text.begin(), text.end(), '('),
              std::count(text.begin(), text.end(), ')'))
        << kind;
  }
}

// Round-trip smoke test for the micro-op listing: every resolved branch
// target printed by disassemble_translated must land inside the stream it
// was printed from, value micro-ops name locals directly on the real
// scheduler corpus, and every line of control flow carries its baked fuel
// charge.
TEST(Disasm, TranslatedStreamRoundTrips) {
  for (const char* kind : {"rr", "pf", "mt"}) {
    auto bytes = sched::plugins::scheduler(kind);
    ASSERT_TRUE(bytes.ok());
    auto module = wasm::decode_module(*bytes);
    ASSERT_TRUE(module.ok());
    ASSERT_TRUE(wasm::validate_module(*module).ok());
    ASSERT_TRUE(wasm::translate_module(*module).ok());
    ASSERT_TRUE(module->translated);

    bool any_local_operand = false;
    for (uint32_t i = 0; i < module->codes.size(); ++i) {
      const size_t num_ops = module->translated->funcs[i].ops.size();
      std::string text = wasm::disassemble_translated(*module, i);
      ASSERT_GT(num_ops, 0u) << kind << " func " << i;
      // Header + one line per micro-op.
      EXPECT_EQ(static_cast<size_t>(std::count(text.begin(), text.end(), '\n')),
                num_ops + 1)
          << kind << " func " << i << "\n"
          << text;
      // Every resolved target must point inside this stream.
      for (size_t pos = text.find("-> @"); pos != std::string::npos;
           pos = text.find("-> @", pos + 4)) {
        size_t digits = pos + 4;
        if (text.compare(digits, 3, "ret") == 0) continue;
        ASSERT_LT(digits, text.size());
        ASSERT_TRUE(std::isdigit(static_cast<unsigned char>(text[digits]))) << text;
        EXPECT_LT(std::strtoul(text.c_str() + digits, nullptr, 10), num_ops)
            << kind << " func " << i << "\n"
            << text;
      }
      // Fuel segments are baked into the stream, not recomputed at run time.
      EXPECT_NE(text.find("charge="), std::string::npos)
          << kind << " func " << i << "\n"
          << text;
      if (text.find(" = l") != std::string::npos ||
          text.find(", l") != std::string::npos) {
        any_local_operand = true;
      }
    }
    EXPECT_TRUE(any_local_operand) << kind << ": no micro-op reads a local slot";
  }
}

TEST(Disasm, TranslatedStreamWithoutAttachedTranslation) {
  ModuleBuilder mb;
  auto& f = mb.add_func(FuncType{{ValType::kI32}, {ValType::kI32}}, "f");
  f.local_get(0).i32_const(7).op(Op::kI32Add).end();
  auto bytes = mb.build();
  auto module = wasm::decode_module(bytes);
  ASSERT_TRUE(module.ok());
  ASSERT_TRUE(wasm::validate_module(*module).ok());
  // No translate_module call: the disassembler lowers on the fly.
  std::string text = wasm::disassemble_translated(*module, 0);
  EXPECT_NE(text.find("uops"), std::string::npos) << text;
  EXPECT_NE(text.find("charge="), std::string::npos) << text;
  // local.get and the constant fold into the add's operands.
  EXPECT_NE(text.find("I32Add t0 = l0, #7"), std::string::npos) << text;
}

TEST(Disasm, BrTableTargetsListed) {
  ModuleBuilder mb;
  auto& f = mb.add_func(FuncType{{ValType::kI32}, {}}, "f");
  f.block().block().local_get(0).br_table({0, 1}, 1).end().end().end();
  auto bytes = mb.build();
  auto module = wasm::decode_module(bytes);
  ASSERT_TRUE(module.ok());
  EXPECT_NE(wasm::disassemble(*module).find("br_table 0 1 1"), std::string::npos);
}

}  // namespace
}  // namespace waran
