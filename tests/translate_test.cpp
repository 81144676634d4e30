// Translation pass tests: how many micro-ops the hot loops of the real
// plugin corpus lower to (register-form micro-ops name their operands as
// frame slots, so local.get, local.set and constants cost no dispatch; these
// pins fail if a change to the translator brings that traffic back), and
// control shapes the lowering has got wrong before.
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <memory>
#include <string_view>

#include "ric/plugin_sources.h"
#include "sched/plugins.h"
#include "wasm/wasm.h"
#include "wcc/compiler.h"

namespace waran {
namespace {

using wasm::TranslatedFunc;
using wasm::UInstr;
using wasm::UOp;

std::shared_ptr<const wasm::Module> lower(const Result<std::vector<uint8_t>>& bytes) {
  EXPECT_TRUE(bytes.ok());
  auto m = wasm::decode_module(*bytes);
  EXPECT_TRUE(m.ok());
  EXPECT_TRUE(wasm::validate_module(*m).ok());
  EXPECT_TRUE(wasm::translate_module(*m).ok());
  return std::make_shared<const wasm::Module>(std::move(*m));
}

/// Micro-ops whose b field is a jump target.
bool is_jump(UOp op) {
  const std::string_view name = wasm::uop_name(op);
  return name.starts_with("Jump") || (name.starts_with("Br") && name != "BrTable");
}

/// Micro-ops of the innermost loop holding an op that `wanted` accepts:
/// from a back edge's target to the back edge. 0 when no loop holds one.
size_t loop_size(const TranslatedFunc& tf, const std::function<bool(const UInstr&)>& wanted) {
  size_t best = 0;
  for (size_t j = 0; j < tf.ops.size(); ++j) {
    const UInstr& u = tf.ops[j];
    if (!is_jump(u.op) || u.b == wasm::kRetTarget || u.b > j) continue;
    bool holds = false;
    for (size_t i = u.b; i <= j; ++i) holds = holds || wanted(tf.ops[i]);
    const size_t size = j - u.b + 1;
    if (holds && (best == 0 || size < best)) best = size;
  }
  return best;
}

size_t live_ops(const TranslatedFunc& tf) {
  // The stream ends with the function-level `end`'s return; a body that
  // returns explicitly leaves that one unreachable.
  return tf.ops.size() - (tf.ops.size() > 1 && tf.ops[tf.ops.size() - 2].op == UOp::kReturn);
}

TEST(Translate, CommChecksumWordLoopIsTenMicroOps) {
  auto m = lower(ric::plugin_sources::comm_framing());
  // checksum is the comm plugin's first defined function.
  const TranslatedFunc& checksum = m->translated->funcs[0];
  const size_t words = loop_size(
      checksum, [](const UInstr& u) { return u.op == UOp::kI64Load; });
  // Per 8-byte word: the loop test, the segment charge, the load, five
  // arithmetic micro-ops, the pointer bump and the back edge. The stack
  // form took 19, 9 of them local.get/local.set/const traffic.
  EXPECT_GT(words, 0u);
  EXPECT_LE(words, 10u);
}

TEST(Translate, PfScanLoopAndMetricBody) {
  auto m = lower(sched::plugins::scheduler("pf"));
  const std::vector<TranslatedFunc>& funcs = m->translated->funcs;
  ASSERT_EQ(funcs.size(), 3u);
  // funcs[0] is the per-UE `metric` leaf, funcs[2] the exported schedule
  // whose scan over the UEs calls it once per eligible UE.
  const uint32_t metric = m->num_imported_funcs;
  const size_t scan = loop_size(funcs[2], [&](const UInstr& u) {
    return u.op == UOp::kCallWasm && u.b == metric;
  });
  // The stack form took 41 micro-ops for the scan and 16 for metric.
  EXPECT_GT(scan, 0u);
  EXPECT_LE(scan, 30u);
  EXPECT_LE(live_ops(funcs[0]), 11u);
}

TEST(Translate, CodeAfterIfWhoseElseArmReturnsRuns) {
  // The true arm falls through to the continuation even though the else
  // arm ends in `return`: the code after the `if` must still be lowered.
  auto bytes = wcc::compile(R"(
    export fn f(c: i32) -> i32 {
      var x: i32 = 0;
      if (c > 0) { x = 5; } else { return 7; }
      return x + 1;
    })");
  ASSERT_TRUE(bytes.ok()) << bytes.error().message;
  auto m = lower(bytes);
  for (wasm::Dispatch d : {wasm::Dispatch::kSwitch, wasm::Dispatch::kThreaded}) {
    wasm::InstanceOptions opt;
    opt.dispatch = d;
    auto inst = wasm::Instance::instantiate(m, {}, opt);
    ASSERT_TRUE(inst.ok());
    for (int32_t c : {1, 0}) {
      const std::vector<wasm::TypedValue> args = {wasm::TypedValue::i32(c)};
      auto r = (*inst)->call("f", args);
      ASSERT_TRUE(r.ok() && r->has_value());
      EXPECT_EQ((*r)->value.as_i32(), c > 0 ? 6 : 7);
    }
  }
}

}  // namespace
}  // namespace waran
