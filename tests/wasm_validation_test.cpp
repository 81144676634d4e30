// Negative-path tests for the decoder and validator: malformed binaries,
// type errors, and resource-limit violations must all be rejected before
// any plugin code runs — this is the "static analysis before deployment"
// step the paper gives MNOs (§3A).
#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "tests/wasm_test_util.h"

namespace waran {
namespace {

using namespace wasmtest;

Status decode_and_validate(const ModuleBuilder& mb) {
  auto bytes = mb.build();
  auto module = wasm::decode_module(bytes);
  if (!module.ok()) return module.error();
  return wasm::validate_module(*module);
}

Status decode_bytes(std::vector<uint8_t> bytes) {
  auto module = wasm::decode_module(bytes);
  if (!module.ok()) return module.error();
  return wasm::validate_module(*module);
}

TEST(Decode, RejectsBadMagic) {
  auto st = decode_bytes({0x00, 0x61, 0x73, 0x00, 1, 0, 0, 0});
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.error().code, Error::Code::kDecode);
}

TEST(Decode, RejectsBadVersion) {
  auto st = decode_bytes({0x00, 0x61, 0x73, 0x6d, 2, 0, 0, 0});
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.error().code, Error::Code::kDecode);
}

TEST(Decode, RejectsTruncatedHeader) {
  auto st = decode_bytes({0x00, 0x61});
  ASSERT_FALSE(st.ok());
}

TEST(Decode, EmptyModuleIsValid) {
  auto st = decode_bytes({0x00, 0x61, 0x73, 0x6d, 1, 0, 0, 0});
  EXPECT_TRUE(st.ok());
}

TEST(Decode, RejectsOutOfOrderSections) {
  // Memory section (5) followed by type section (1).
  std::vector<uint8_t> bytes = {0x00, 0x61, 0x73, 0x6d, 1, 0, 0, 0,
                                5, 3, 1, 0, 1,      // memory: 1 page
                                1, 1, 0};           // type section, empty
  auto st = decode_bytes(bytes);
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.error().message.find("out-of-order"), std::string::npos);
}

TEST(Decode, RejectsTrailingSectionGarbage) {
  // Type section declares size 2 but contains an empty vector (1 byte used).
  std::vector<uint8_t> bytes = {0x00, 0x61, 0x73, 0x6d, 1, 0, 0, 0,
                                1, 2, 0, 0};
  auto st = decode_bytes(bytes);
  ASSERT_FALSE(st.ok());
}

TEST(Decode, SkipsCustomSections) {
  std::vector<uint8_t> bytes = {0x00, 0x61, 0x73, 0x6d, 1, 0, 0, 0,
                                0, 5, 4, 'n', 'a', 'm', 'e'};
  auto st = decode_bytes(bytes);
  EXPECT_TRUE(st.ok());
}

TEST(Decode, FunctionCodeCountMismatch) {
  // Function section declares 1 function, no code section.
  std::vector<uint8_t> bytes = {0x00, 0x61, 0x73, 0x6d, 1, 0, 0, 0,
                                1, 4, 1, 0x60, 0, 0,   // type: () -> ()
                                3, 2, 1, 0};           // function: [type 0]
  auto st = decode_bytes(bytes);
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.error().message.find("count mismatch"), std::string::npos);
}

TEST(Decode, RejectsUnknownValueTypeInHex) {
  std::vector<uint8_t> bytes = {0x00, 0x61, 0x73, 0x6d, 1, 0, 0, 0,
                                1, 5, 1, 0x60, 1, 0x7b, 0};  // type: (0x7b) -> ()
  auto st = decode_bytes(bytes);
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.error().message, "invalid value type 0x7b");
}

// A module whose one () -> () function has body `code` (no locals).
std::vector<uint8_t> module_with_body(const std::vector<uint8_t>& code) {
  const auto size = static_cast<uint8_t>(code.size() + 1);
  std::vector<uint8_t> bytes = {0x00, 0x61, 0x73, 0x6d, 1, 0, 0, 0,
                                1, 4, 1, 0x60, 0, 0,   // type: () -> ()
                                3, 2, 1, 0,            // function: [type 0]
                                10, static_cast<uint8_t>(size + 2), 1, size, 0};
  for (uint8_t b : code) bytes.push_back(b);
  return bytes;
}

TEST(Decode, RejectsEveryOpcodeOutsideTheInstructionSet) {
  // The codes of no instruction in the MVP, sign extension, saturating
  // truncation or memory.copy/fill, from the spec's opcode tables rather
  // than from the engine's own.
  auto invalid_byte = [](uint32_t b) {
    return (b >= 0x06 && b <= 0x0a) || (b >= 0x12 && b <= 0x19) ||
           (b >= 0x1c && b <= 0x1f) || (b >= 0x25 && b <= 0x27) ||
           (b >= 0xc5 && b != 0xfc);
  };
  auto invalid_sub = [](uint32_t sub) { return sub == 0x08 || sub == 0x09 || sub >= 0x0c; };
  uint32_t known = 0;
  auto check = [&known](std::vector<uint8_t> code, bool invalid, const std::string& hex) {
    code.push_back(0x0b);
    auto st = decode_bytes(module_with_body(code));
    const bool unknown =
        !st.ok() && st.error().message.find("unknown opcode") != std::string::npos;
    EXPECT_EQ(unknown, invalid) << hex;
    if (unknown) {
      EXPECT_EQ(st.error().message, "unknown opcode " + hex);
    }
    if (!invalid) ++known;
  };
  char hex[8];
  for (uint32_t b = 0; b <= 0xff; ++b) {
    if (b == 0xfc) continue;
    std::snprintf(hex, sizeof(hex), "0x%02x", b);
    check({static_cast<uint8_t>(b)}, invalid_byte(b), hex);
  }
  for (uint32_t sub = 0; sub <= 0xff; ++sub) {
    std::snprintf(hex, sizeof(hex), "0xfc%02x", sub);
    std::vector<uint8_t> code = {0xfc, static_cast<uint8_t>(sub | 0x80),
                                 static_cast<uint8_t>(sub >> 7)};  // 2-byte LEB
    check(code, invalid_sub(sub), hex);
  }
  EXPECT_EQ(known, 187u);
  // Sub-opcodes past one byte never name an instruction.
  EXPECT_FALSE(decode_bytes(module_with_body({0xfc, 0x80, 0x02, 0x0b})).ok());
  EXPECT_FALSE(decode_bytes(module_with_body({0xfc, 0xff, 0xff, 0xff, 0xff, 0x0f, 0x0b})).ok());
}

TEST(Validate, TypeMismatchI32PlusF64) {
  ModuleBuilder mb;
  auto& f = mb.add_func(FuncType{{}, {ValType::kI32}}, "f");
  f.i32_const(1).f64_const(2.0).op(Op::kI32Add).end();
  auto st = decode_and_validate(mb);
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.error().code, Error::Code::kValidation);
}

TEST(Validate, StackUnderflow) {
  ModuleBuilder mb;
  auto& f = mb.add_func(FuncType{{}, {ValType::kI32}}, "f");
  f.op(Op::kI32Add).end();
  auto st = decode_and_validate(mb);
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.error().message.find("underflow"), std::string::npos);
}

TEST(Validate, MissingResultValue) {
  ModuleBuilder mb;
  auto& f = mb.add_func(FuncType{{}, {ValType::kI32}}, "f");
  f.end();  // returns nothing
  auto st = decode_and_validate(mb);
  ASSERT_FALSE(st.ok());
}

TEST(Validate, ExtraValuesAtEnd) {
  ModuleBuilder mb;
  auto& f = mb.add_func(FuncType{{}, {ValType::kI32}}, "f");
  f.i32_const(1).i32_const(2).end();
  auto st = decode_and_validate(mb);
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.error().message.find("values left"), std::string::npos);
}

TEST(Validate, LocalIndexOutOfRange) {
  ModuleBuilder mb;
  auto& f = mb.add_func(FuncType{{ValType::kI32}, {ValType::kI32}}, "f");
  f.local_get(5).end();
  auto st = decode_and_validate(mb);
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.error().message.find("local index"), std::string::npos);
}

TEST(Validate, GlobalSetOfImmutable) {
  ModuleBuilder mb;
  uint32_t g = mb.add_global(ValType::kI32, false, wasm::Value::from_i32(1));
  auto& f = mb.add_func(FuncType{{}, {}}, "f");
  f.i32_const(2).global_set(g).end();
  auto st = decode_and_validate(mb);
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.error().message.find("immutable"), std::string::npos);
}

TEST(Validate, BranchDepthOutOfRange) {
  ModuleBuilder mb;
  auto& f = mb.add_func(FuncType{{}, {}}, "f");
  f.block().br(5).end().end();
  auto st = decode_and_validate(mb);
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.error().message.find("depth"), std::string::npos);
}

TEST(Validate, MemoryOpWithoutMemory) {
  ModuleBuilder mb;
  auto& f = mb.add_func(FuncType{{}, {ValType::kI32}}, "f");
  f.i32_const(0).mem(Op::kI32Load, 0, 2).end();
  auto st = decode_and_validate(mb);
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.error().message.find("memory"), std::string::npos);
}

TEST(Validate, OverAlignedAccessRejected) {
  ModuleBuilder mb;
  mb.add_memory(1, 1);
  auto& f = mb.add_func(FuncType{{}, {ValType::kI32}}, "f");
  f.i32_const(0).mem(Op::kI32Load, 0, 3).end();  // align 8 > natural 4
  auto st = decode_and_validate(mb);
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.error().message.find("alignment"), std::string::npos);
}

TEST(Validate, CallIndexOutOfRange) {
  ModuleBuilder mb;
  auto& f = mb.add_func(FuncType{{}, {}}, "f");
  f.call(9).end();
  auto st = decode_and_validate(mb);
  ASSERT_FALSE(st.ok());
}

TEST(Validate, CallIndirectWithoutTable) {
  ModuleBuilder mb;
  FuncType sig{{}, {}};
  uint32_t t = mb.add_type(sig);
  auto& f = mb.add_func(FuncType{{}, {}}, "f");
  f.i32_const(0).call_indirect(t).end();
  auto st = decode_and_validate(mb);
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.error().message.find("table"), std::string::npos);
}

TEST(Validate, IfWithResultRequiresElse) {
  ModuleBuilder mb;
  auto& f = mb.add_func(FuncType{{ValType::kI32}, {ValType::kI32}}, "f");
  f.local_get(0).if_(BlockT::i32());
  f.i32_const(1);
  f.end().end();
  auto st = decode_and_validate(mb);
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.error().message.find("else"), std::string::npos);
}

TEST(Validate, IfBranchResultMismatch) {
  ModuleBuilder mb;
  auto& f = mb.add_func(FuncType{{ValType::kI32}, {ValType::kI32}}, "f");
  f.local_get(0).if_(BlockT::i32());
  f.i32_const(1);
  f.else_();
  f.f64_const(1.0);
  f.end().end();
  auto st = decode_and_validate(mb);
  ASSERT_FALSE(st.ok());
}

TEST(Validate, SelectOperandTypesMustMatch) {
  ModuleBuilder mb;
  auto& f = mb.add_func(FuncType{{}, {ValType::kI32}}, "f");
  f.i32_const(1).f32_const(1.0f).i32_const(0).op(Op::kSelect).end();
  auto st = decode_and_validate(mb);
  ASSERT_FALSE(st.ok());
}

TEST(Validate, UnreachableMakesStackPolymorphic) {
  // After `unreachable`, anything type-checks (per spec).
  ModuleBuilder mb;
  auto& f = mb.add_func(FuncType{{}, {ValType::kI32}}, "f");
  f.op(Op::kUnreachable).op(Op::kI32Add).end();
  auto st = decode_and_validate(mb);
  EXPECT_TRUE(st.ok()) << (st.ok() ? "" : st.error().message);
}

TEST(Validate, CodeAfterBrIsUnreachableButValid) {
  ModuleBuilder mb;
  auto& f = mb.add_func(FuncType{{}, {ValType::kI32}}, "f");
  f.block(BlockT::i32()).i32_const(1).br(0).i32_const(2).op(Op::kI32Add).end().end();
  auto st = decode_and_validate(mb);
  EXPECT_TRUE(st.ok()) << (st.ok() ? "" : st.error().message);
}

TEST(Validate, DuplicateExportNamesRejected) {
  ModuleBuilder mb;
  auto& f = mb.add_func(FuncType{{}, {}}, "same");
  f.end();
  auto& g = mb.add_func(FuncType{{}, {}}, "same");
  g.end();
  auto st = decode_and_validate(mb);
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.error().message.find("duplicate export"), std::string::npos);
}

TEST(Validate, StartFunctionMustBeNullary) {
  ModuleBuilder mb;
  auto& f = mb.add_func(FuncType{{ValType::kI32}, {}});
  f.end();
  mb.set_start(f.index());
  auto st = decode_and_validate(mb);
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.error().message.find("start"), std::string::npos);
}

TEST(Validate, GlobalInitTypeMismatch) {
  ModuleBuilder mb;
  // Builder emits the init with the declared type, so construct raw bytes:
  // global section with an f64 global initialised by i32.const.
  std::vector<uint8_t> bytes = {0x00, 0x61, 0x73, 0x6d, 1, 0, 0, 0,
                                6, 6, 1, 0x7c, 0x00, 0x41, 0x05, 0x0b};
  auto st = decode_bytes(bytes);
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.error().message.find("init type"), std::string::npos);
}

TEST(Limits, TooManyLocalsRejected) {
  ModuleBuilder mb;
  auto& f = mb.add_func(FuncType{{}, {}}, "f");
  for (int i = 0; i < 5000; ++i) f.add_local(ValType::kI32);
  f.end();
  auto st = decode_and_validate(mb);
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.error().code, Error::Code::kLimitExceeded);
}

TEST(Limits, MemoryOverEmbedderCapRejected) {
  ModuleBuilder mb;
  mb.add_memory(5000);  // > kMaxMemoryPages (4096)
  auto st = decode_and_validate(mb);
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.error().code, Error::Code::kLimitExceeded);
}

TEST(Limits, ElementSegmentOutOfBoundsFailsInstantiation) {
  ModuleBuilder mb;
  FuncType sig{{}, {}};
  auto& f = mb.add_func(sig);
  f.end();
  mb.add_table(1, 1);
  mb.add_elem(5, {f.index()});  // offset beyond table size
  auto bytes = mb.build();
  auto module = wasm::decode_module(bytes);
  ASSERT_TRUE(module.ok());
  ASSERT_TRUE(wasm::validate_module(*module).ok());
  wasm::Linker linker;
  auto inst = wasm::Instance::instantiate(
      std::make_shared<wasm::Module>(std::move(*module)), linker);
  ASSERT_FALSE(inst.ok());
  EXPECT_EQ(inst.error().code, Error::Code::kTrap);
}

TEST(Limits, DataSegmentOutOfBoundsFailsInstantiation) {
  ModuleBuilder mb;
  mb.add_memory(1, 1);
  std::vector<uint8_t> big(10, 0xff);
  mb.add_data(65530, big);  // crosses the 64 KiB boundary
  auto bytes = mb.build();
  auto module = wasm::decode_module(bytes);
  ASSERT_TRUE(module.ok());
  ASSERT_TRUE(wasm::validate_module(*module).ok());
  wasm::Linker linker;
  auto inst = wasm::Instance::instantiate(
      std::make_shared<wasm::Module>(std::move(*module)), linker);
  ASSERT_FALSE(inst.ok());
}

// Round-trip: every wasmbuilder module must decode back to an equivalent
// structure (spot checks on counts and types).
TEST(RoundTrip, BuilderOutputDecodes) {
  ModuleBuilder mb;
  mb.import_func("env", "h", FuncType{{ValType::kI32}, {}});
  mb.add_memory(2, 4, "memory");
  mb.add_global(ValType::kF64, true, wasm::Value::from_f64(1.5));
  auto& f = mb.add_func(FuncType{{ValType::kI32}, {ValType::kI32}}, "run");
  f.local_get(0).end();
  auto bytes = mb.build();
  auto module = wasm::decode_module(bytes);
  ASSERT_TRUE(module.ok()) << module.error().message;
  EXPECT_EQ(module->num_imported_funcs, 1u);
  EXPECT_EQ(module->func_type_indices.size(), 1u);
  ASSERT_TRUE(module->memory.has_value());
  EXPECT_EQ(module->memory->min, 2u);
  EXPECT_EQ(*module->memory->max, 4u);
  EXPECT_EQ(module->globals.size(), 1u);
  EXPECT_EQ(module->exports.size(), 2u);
  EXPECT_TRUE(wasm::validate_module(*module).ok());
}

}  // namespace
}  // namespace waran
