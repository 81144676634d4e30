// FuelGovernor tests (§6B resource management): floor guarantees, demand-
// proportional sharing, adaptation when load shifts, and the end-to-end
// effect — a heavy plugin stops hitting fuel exhaustion once idle slots
// donate headroom, while the floor still protects light plugins.
#include <gtest/gtest.h>

#include "plugin/governor.h"
#include "plugin/manager.h"
#include "wcc/compiler.h"

namespace waran::plugin {
namespace {

std::vector<uint8_t> compile(const char* src) {
  auto bytes = wcc::compile(src);
  EXPECT_TRUE(bytes.ok()) << (bytes.ok() ? "" : bytes.error().message);
  return bytes.ok() ? *bytes : std::vector<uint8_t>{};
}

TEST(Governor, FloorBeforeFirstRebalance) {
  FuelGovernor gov({.budget_per_slot = 1'000'000, .floor = 50'000});
  ASSERT_TRUE(gov.register_slot("a").ok());
  EXPECT_EQ(gov.allocation("a"), 50'000u);
  EXPECT_EQ(gov.allocation("missing"), 0u);
}

TEST(Governor, DuplicateAndBadRegistrations) {
  FuelGovernor gov({});
  ASSERT_TRUE(gov.register_slot("a").ok());
  EXPECT_FALSE(gov.register_slot("a").ok());
  EXPECT_FALSE(gov.register_slot("b", 0.0).ok());
  EXPECT_FALSE(gov.register_slot("c", -1.0).ok());
  EXPECT_TRUE(gov.remove_slot("a").ok());
  EXPECT_FALSE(gov.remove_slot("a").ok());
}

TEST(Governor, IdleSlotsSplitEvenly) {
  FuelGovernor gov({.budget_per_slot = 1'000'000, .floor = 100'000});
  ASSERT_TRUE(gov.register_slot("a").ok());
  ASSERT_TRUE(gov.register_slot("b").ok());
  gov.rebalance();
  // 2 x 100k floors + 800k spare split evenly.
  EXPECT_EQ(gov.allocation("a"), 500'000u);
  EXPECT_EQ(gov.allocation("b"), 500'000u);
}

TEST(Governor, DemandShiftsTheSpare) {
  FuelGovernor gov({.budget_per_slot = 1'000'000, .floor = 100'000, .alpha = 0.5});
  ASSERT_TRUE(gov.register_slot("busy").ok());
  ASSERT_TRUE(gov.register_slot("idle").ok());
  for (int i = 0; i < 20; ++i) gov.record_usage("busy", 400'000);
  gov.rebalance();
  EXPECT_GT(gov.allocation("busy"), 800'000u);
  EXPECT_GE(gov.allocation("idle"), 100'000u);  // floor guaranteed
  EXPECT_LE(gov.allocation("busy") + gov.allocation("idle"),
            1'000'000u + 2);  // budget respected (integer rounding slack)
}

TEST(Governor, WeightsScaleTheShare) {
  FuelGovernor gov({.budget_per_slot = 1'100'000, .floor = 50'000, .alpha = 0.5});
  ASSERT_TRUE(gov.register_slot("gold", 10.0).ok());
  ASSERT_TRUE(gov.register_slot("bronze", 1.0).ok());
  // Equal measured demand; gold's weight should dominate the spare.
  for (int i = 0; i < 10; ++i) {
    gov.record_usage("gold", 100'000);
    gov.record_usage("bronze", 100'000);
  }
  gov.rebalance();
  EXPECT_GT(gov.allocation("gold"), 5 * (gov.allocation("bronze") - 50'000));
}

TEST(Governor, AdaptsWhenLoadMoves) {
  FuelGovernor gov({.budget_per_slot = 1'000'000, .floor = 10'000, .alpha = 0.3});
  ASSERT_TRUE(gov.register_slot("a").ok());
  ASSERT_TRUE(gov.register_slot("b").ok());
  for (int i = 0; i < 30; ++i) gov.record_usage("a", 300'000);
  gov.rebalance();
  uint64_t a_high = gov.allocation("a");
  EXPECT_GT(a_high, gov.allocation("b"));
  // Load moves to b; a goes quiet.
  for (int i = 0; i < 60; ++i) {
    gov.record_usage("b", 300'000);
    gov.record_usage("a", 100);
  }
  gov.rebalance();
  EXPECT_GT(gov.allocation("b"), gov.allocation("a"));
  EXPECT_LT(gov.allocation("a"), a_high);
}

TEST(Governor, ApplyDrivesRealPluginBudgets) {
  // "heavy" needs ~600k instructions; under an even split of a 1M budget it
  // exhausts its fuel, but once the governor sees idle "light" it hands
  // heavy the headroom and the calls start succeeding.
  const char* kHeavy = R"(
    export fn run() -> i32 {
      var i: i32 = 0;
      while (i < 30000) { i = i + 1; }   // ~300k instructions
      output_write(0, 0);
      return 0;
    }
  )";
  const char* kLight = R"(
    export fn run() -> i32 { output_write(0, 0); return 0; }
  )";

  PluginLimits limits;
  limits.fuel_per_call = 200'000;       // even-split starting point: starves heavy
  limits.quarantine_after_faults = 50;  // let the governor act first
  PluginManager mgr(limits);
  ASSERT_TRUE(mgr.install("heavy", compile(kHeavy)).ok());
  ASSERT_TRUE(mgr.install("light", compile(kLight)).ok());

  // Starved under the even split.
  std::vector<uint8_t> out;
  Status starved = mgr.call("heavy", "run", {}, out);
  ASSERT_FALSE(starved.ok());
  EXPECT_EQ(starved.error().code, Error::Code::kFuelExhausted);

  FuelGovernor gov({.budget_per_slot = 1'000'000, .floor = 20'000, .alpha = 0.5});
  ASSERT_TRUE(gov.register_slot("heavy").ok());
  ASSERT_TRUE(gov.register_slot("light").ok());

  bool heavy_succeeded = false;
  for (int slot_tick = 0; slot_tick < 20 && !heavy_succeeded; ++slot_tick) {
    ASSERT_TRUE(mgr.call("light", "run", {}, out).ok());
    gov.record_usage("light", mgr.plugin("light")->last_call_instructions());

    Status heavy = mgr.call("heavy", "run", {}, out);
    gov.record_usage("heavy", mgr.plugin("heavy")->last_call_instructions());
    heavy_succeeded = heavy.ok();

    gov.apply(mgr);
  }
  EXPECT_TRUE(heavy_succeeded);
  // And light still runs fine on its (floor-backed) allocation.
  EXPECT_TRUE(mgr.call("light", "run", {}, out).ok());
  EXPECT_GE(gov.allocation("light"), 20'000u);
}

}  // namespace
}  // namespace waran::plugin
