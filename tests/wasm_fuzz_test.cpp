// Decoder/validator robustness: a deployment gate must never crash on
// hostile bytes (paper §3A — the MNO statically analyses third-party
// plugins before loading). Deterministic fuzzing:
//   - pure-random byte blobs (valid header or not),
//   - bit/byte mutations of real plugin modules,
//   - truncations of real modules at every prefix length.
// Pass criterion: decode+validate returns (accept or reject) without
// crashing, and anything accepted must then instantiate or fail cleanly.
#include <gtest/gtest.h>

#include "common/rng.h"
#include "plugin/plugin.h"
#include "sched/plugins.h"
#include "wasm/wasm.h"

namespace waran {
namespace {

Status decode_validate(std::span<const uint8_t> bytes) {
  auto module = wasm::decode_module(bytes);
  if (!module.ok()) return module.error();
  WARAN_CHECK_OK(wasm::validate_module(*module));
  // If it validated, it must also instantiate cleanly or fail cleanly.
  wasm::Linker linker;
  auto inst = wasm::Instance::instantiate(
      std::make_shared<wasm::Module>(std::move(*module)), linker);
  if (!inst.ok()) return inst.error();
  return {};
}

TEST(Fuzz, RandomBlobsNeverCrash) {
  Xoshiro256 rng(0xF00D);
  for (int round = 0; round < 2000; ++round) {
    size_t len = rng.below(256);
    std::vector<uint8_t> blob(len);
    for (auto& b : blob) b = static_cast<uint8_t>(rng.next());
    auto st = decode_validate(blob);
    (void)st;  // accept or reject — just don't crash
  }
}

TEST(Fuzz, RandomBlobsWithValidHeader) {
  Xoshiro256 rng(0xBEEF);
  for (int round = 0; round < 2000; ++round) {
    std::vector<uint8_t> blob = {0x00, 0x61, 0x73, 0x6d, 1, 0, 0, 0};
    size_t len = rng.below(200);
    for (size_t i = 0; i < len; ++i) blob.push_back(static_cast<uint8_t>(rng.next()));
    auto st = decode_validate(blob);
    (void)st;
  }
}

class MutationFuzz : public ::testing::TestWithParam<const char*> {};

TEST_P(MutationFuzz, MutatedRealModulesNeverCrash) {
  auto seed_module = sched::plugins::scheduler(GetParam());
  ASSERT_TRUE(seed_module.ok());
  Xoshiro256 rng(42);
  int accepted = 0;
  for (int round = 0; round < 3000; ++round) {
    std::vector<uint8_t> mutated = *seed_module;
    // 1-4 random byte mutations.
    uint64_t n_mutations = 1 + rng.below(4);
    for (uint64_t m = 0; m < n_mutations; ++m) {
      size_t pos = rng.below(mutated.size());
      switch (rng.below(3)) {
        case 0: mutated[pos] = static_cast<uint8_t>(rng.next()); break;
        case 1: mutated[pos] ^= static_cast<uint8_t>(1u << rng.below(8)); break;
        case 2: mutated[pos] = 0xff; break;
      }
    }
    if (decode_validate(mutated).ok()) ++accepted;
  }
  // Some mutations (e.g. inside data payloads) legitimately survive, but
  // the vast majority must be rejected.
  EXPECT_LT(accepted, 1500);
}

TEST_P(MutationFuzz, EveryTruncationHandledCleanly) {
  auto seed_module = sched::plugins::scheduler(GetParam());
  ASSERT_TRUE(seed_module.ok());
  auto full = wasm::decode_module(*seed_module);
  ASSERT_TRUE(full.ok());
  const uint32_t full_funcs = full->num_funcs();

  int accepted_prefixes = 0;
  for (size_t len = 0; len < seed_module->size(); ++len) {
    std::span<const uint8_t> prefix(seed_module->data(), len);
    // A prefix cut exactly at a section boundary is a legitimate (smaller)
    // module — e.g. the bare 8-byte header is the empty module. Anything
    // accepted must describe strictly less than the original; mid-section
    // cuts must be rejected. Either way: no crash.
    auto module = wasm::decode_module(prefix);
    if (!module.ok()) continue;
    ++accepted_prefixes;
    EXPECT_LT(module->num_funcs() + module->exports.size(),
              full_funcs + full->exports.size())
        << "truncation to " << len << " bytes kept everything?!";
  }
  // Almost every cut lands mid-section.
  EXPECT_LT(accepted_prefixes, 10);
  // The full module decodes and validates (imports resolve only under a
  // real host linker, so instantiation is out of scope here).
  auto module = wasm::decode_module(*seed_module);
  ASSERT_TRUE(module.ok());
  EXPECT_TRUE(wasm::validate_module(*module).ok());
}

INSTANTIATE_TEST_SUITE_P(SchedulerSeeds, MutationFuzz,
                         ::testing::Values("rr", "pf", "mt"));

TEST(Fuzz, ValidatedMutantsAreSafeToRun) {
  // The stronger property: if a mutant passes validation, *running* it must
  // still be memory-safe (trap or terminate, never corrupt the host).
  auto seed_module = sched::plugins::scheduler("rr");
  ASSERT_TRUE(seed_module.ok());
  Xoshiro256 rng(7777);
  std::vector<uint8_t> input(52, 1);
  int executed = 0;
  for (int round = 0; round < 3000 && executed < 50; ++round) {
    std::vector<uint8_t> mutated = *seed_module;
    mutated[rng.below(mutated.size())] = static_cast<uint8_t>(rng.next());
    plugin::PluginLimits limits;
    limits.fuel_per_call = 200'000;
    auto p = plugin::Plugin::load(mutated, {}, limits);
    if (!p.ok()) continue;
    ++executed;
    std::vector<uint8_t> out;
    Status st = (*p)->call("schedule", input, out);
    (void)st;  // any Status is fine; reaching here without UB is the test
  }
  EXPECT_GT(executed, 0);
}

}  // namespace
}  // namespace waran
