// Differential execution: the threaded (computed-goto) dispatcher and the
// portable switch dispatcher are generated from the same interpreter core
// (wasm/interp_loop.inc), and this suite pins down that they stay
// observably identical — results, trap codes and messages, fuel_used,
// instrs_retired, and linear-memory contents — across a wcc program corpus,
// hand-built control-flow edge cases (including a 300-lane br_table), trap
// paths, memory.grow at its limits, re-entrant host calls, exact-boundary
// fuel sweeps, and validated random mutants of every scheduler plugin. The
// switch loop is the oracle; any divergence is a translation or dispatch
// bug, not a test environment artifact.
//
// Both dispatchers run the same translated stream, so they cannot disagree
// about a translator bug. Every compared call is therefore also checked
// against a record kept in tests/data/interp_outcomes.txt, taken from an
// earlier translator: one line per call, in call order, grouped by test,
// plus the admission summary of every corpus module. A test fails when one
// of its lines differs, is missing or is extra. Running the whole binary
// without a filter writes what it observed to `interp_outcomes.observed` in
// the working directory, in the record's format.
#include <gtest/gtest.h>

#include <array>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <numeric>
#include <string>
#include <string_view>
#include <vector>

#include "analysis/analysis.h"
#include "common/rng.h"
#include "ric/plugin_sources.h"
#include "sched/plugins.h"
#include "tests/outcome_record.h"
#include "tests/wasm_test_util.h"
#include "wasm/wasm.h"
#include "wasmbuilder/builder.h"
#include "wcc/compiler.h"

namespace waran {
namespace {

using wasm::CallOptions;
using wasm::CallStats;
using wasm::Dispatch;
using wasm::FuncType;
using wasm::InstanceOptions;
using wasm::Op;
using wasm::TypedValue;
using wasm::ValType;
using wasmbuilder::ModuleBuilder;

/// Everything observable about one call, comparable field by field.
struct Outcome {
  bool ok = false;
  int error_code = 0;
  std::string message;
  bool has_value = false;
  uint64_t bits = 0;
  uint64_t fuel_used = 0;
  uint64_t instrs = 0;
  uint64_t mem_hash = 0;

  bool operator==(const Outcome&) const = default;
};

uint64_t hash_memory(const wasm::Instance& inst) {
  const wasm::Memory* mem = inst.memory();
  if (mem == nullptr) return 0;
  uint64_t h = 1469598103934665603ull;  // FNV-1a
  const uint8_t* p = mem->data();
  for (size_t i = 0; i < mem->size_bytes(); ++i) {
    h = (h ^ p[i]) * 1099511628211ull;
  }
  return h;
}

/// The budget a call that passes no fuel runs under, so a miscompiled loop
/// that spins fails with a record mismatch instead of hanging the binary.
/// Far above any recorded call's use; a completed call reports the same
/// fuel_used metered or not, so the record does not see it.
constexpr uint64_t kHangGuardFuel = 100'000'000;

Outcome run_one(wasm::Instance& inst, const char* fn,
                const std::vector<TypedValue>& args, const CallOptions& opts) {
  Outcome o;
  CallStats stats;
  CallOptions guarded = opts;
  if (!guarded.fuel || *guarded.fuel == 0) guarded.fuel = kHangGuardFuel;
  auto r = inst.call(fn, args, guarded, &stats);
  o.fuel_used = stats.fuel_used;
  o.instrs = stats.instrs_retired;
  o.ok = r.ok();
  if (!r.ok()) {
    o.error_code = static_cast<int>(r.error().code);
    o.message = r.error().message;
  } else if (r->has_value()) {
    o.has_value = true;
    o.bits = (*r)->value.bits;
  }
  o.mem_hash = hash_memory(inst);
  return o;
}

// --- Cross-version record ----------------------------------------------------

std::string format_outcome(const Outcome& o) {
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "ok=%d code=%d value=%s0x%016" PRIx64 " fuel=%" PRIu64
                " instrs=%" PRIu64 " mem=0x%016" PRIx64 " msg=",
                o.ok ? 1 : 0, o.error_code, o.has_value ? "" : "none:", o.bits,
                o.fuel_used, o.instrs, o.mem_hash);
  return buf + o.message;
}

std::string describe_call(const char* fn, const std::vector<TypedValue>& args,
                          const CallOptions& opts) {
  std::string s = fn;
  s += "(";
  for (size_t i = 0; i < args.size(); ++i) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%s0x%" PRIx64, i == 0 ? "" : ",",
                  args[i].value.bits);
    s += buf;
  }
  s += ")";
  if (opts.fuel) s += " fuel=" + std::to_string(*opts.fuel);
  return s;
}

/// The record: `<test>\t<what>\t<observed>` lines, in the order each test
/// makes its calls.
outcomes::OutcomeRecord& record() {
  static outcomes::OutcomeRecord r("InterpDifferential", "interp_outcomes");
  return r;
}

const auto* const kRecordWriter =
    ::testing::AddGlobalTestEnvironment(new outcomes::RecordWriter(record()));

/// Every test of the suite checks its lines against the record when it ends.
class InterpDifferential : public ::testing::Test {
 protected:
  void TearDown() override { record().check_current_test(); }
};

/// One module instantiated twice — switch oracle vs threaded hot path.
struct DiffPair {
  std::unique_ptr<wasm::Instance> oracle;    // Dispatch::kSwitch
  std::unique_ptr<wasm::Instance> threaded;  // Dispatch::kThreaded

  /// Runs the call on both instances and asserts identical outcomes.
  void expect_same(const char* fn, const std::vector<TypedValue>& args,
                   const CallOptions& opts = {}, const std::string& label = "") {
    const Outcome a = run_one(*oracle, fn, args, opts);
    const Outcome b = run_one(*threaded, fn, args, opts);
    EXPECT_EQ(a.ok, b.ok) << fn << ": " << a.message << " vs " << b.message;
    EXPECT_EQ(a.error_code, b.error_code) << fn;
    EXPECT_EQ(a.message, b.message) << fn;
    EXPECT_EQ(a.has_value, b.has_value) << fn;
    EXPECT_EQ(a.bits, b.bits) << fn;
    EXPECT_EQ(a.fuel_used, b.fuel_used) << fn;
    EXPECT_EQ(a.instrs, b.instrs) << fn;
    EXPECT_EQ(a.mem_hash, b.mem_hash) << fn;
    record().add(label + describe_call(fn, args, opts) + "\t" + format_outcome(a));
    EXPECT_EQ(format_outcome(b), format_outcome(a)) << fn;
  }
};

Result<DiffPair> make_pair_from_module(const std::shared_ptr<const wasm::Module>& shared,
                                       const wasm::Linker& linker) {
  DiffPair pair;
  InstanceOptions opt;
  opt.dispatch = Dispatch::kSwitch;
  WARAN_TRY(sw, wasm::Instance::instantiate(shared, linker, opt));
  opt.dispatch = Dispatch::kThreaded;
  WARAN_TRY(th, wasm::Instance::instantiate(shared, linker, opt));
  pair.oracle = std::move(sw);
  pair.threaded = std::move(th);
  return pair;
}

Result<DiffPair> make_pair_from_bytes(std::span<const uint8_t> bytes,
                                      const wasm::Linker& linker = {}) {
  WARAN_TRY(module, wasm::decode_module(bytes));
  WARAN_CHECK_OK(wasm::validate_module(module));
  WARAN_CHECK_OK(wasm::translate_module(module));
  return make_pair_from_module(std::make_shared<const wasm::Module>(std::move(module)),
                               linker);
}

DiffPair make_pair_wcc(const char* src, const wasm::Linker& linker = {}) {
  auto bytes = wcc::compile(src);
  EXPECT_TRUE(bytes.ok()) << (bytes.ok() ? "" : bytes.error().message);
  auto pair = make_pair_from_bytes(*bytes, linker);
  EXPECT_TRUE(pair.ok()) << (pair.ok() ? "" : pair.error().message);
  return std::move(*pair);
}

DiffPair make_pair(const ModuleBuilder& mb, const wasm::Linker& linker = {}) {
  auto bytes = mb.build();
  auto pair = make_pair_from_bytes(bytes, linker);
  EXPECT_TRUE(pair.ok()) << (pair.ok() ? "" : pair.error().message);
  return std::move(*pair);
}

TEST_F(InterpDifferential, ThreadedDispatchIsAvailableWhereExpected) {
#if WARAN_HAS_THREADED_DISPATCH
  auto pair = make_pair_wcc("export fn f() -> i32 { return 7; }");
  EXPECT_EQ(pair.oracle->dispatch(), Dispatch::kSwitch);
  EXPECT_EQ(pair.threaded->dispatch(), Dispatch::kThreaded);
#else
  GTEST_SKIP() << "toolchain has no computed-goto dispatch";
#endif
}

TEST_F(InterpDifferential, WccCorpusMatches) {
  // Programs chosen to cover the fused superinstructions (local/local and
  // local/const binops and compares, compare-and-branch), loads/stores,
  // calls, f64 math, and div/rem edge paths.
  const char* corpus[] = {
      R"(export fn work(n: i32) -> i32 {
           var acc: i32 = 0;
           var i: i32 = 0;
           while (i < n) { acc = acc + i * 7 - i / 3; i = i + 1; }
           return acc;
         })",
      R"(export fn work(n: i32) -> i32 {
           var acc: i32 = 0;
           var i: i32 = 0;
           while (i < n) {
             if (i % 3 == 0) { acc = acc + i * 7; } else { acc = acc - i / 3; }
             i = i + 1;
           }
           return acc;
         })",
      R"(export fn work(n: i32) -> f64 {
           var acc: f64 = 0.0;
           var i: i32 = 0;
           while (i < n) { acc = acc + sqrt(f64(i)) * 0.5; i = i + 1; }
           return acc;
         })",
      R"(export fn work(n: i32) -> i32 {
           var i: i32 = 0;
           var acc: i32 = 0;
           while (i < n) { store32(i * 4, i); acc = acc + load32(i * 4); i = i + 1; }
           return acc;
         })",
      R"(fn leaf(x: i32) -> i32 { return x + 1; }
         export fn work(n: i32) -> i32 {
           var acc: i32 = 0;
           var i: i32 = 0;
           while (i < n) { acc = leaf(acc); i = i + 1; }
           return acc;
         })",
      // The comm plugin's SWAR byte sum over n pattern bytes.
      R"(fn checksum(ptr: i32, len: i32) -> i32 {
           var m: i64 = i64(71777214294589695);
           var halves: i64 = i64(281470681808895);
           var sum: i32 = 0;
           var p: i32 = ptr;
           var words_end: i32 = ptr + (len & -8);
           while (p < words_end) {
             var block_end: i32 = p + 1024;
             if (block_end > words_end) { block_end = words_end; }
             var lanes: i64 = i64(0);
             while (p < block_end) {
               var x: i64 = load64(p);
               lanes = lanes + (x & m) + ((x >>> i64(8)) & m);
               p = p + 8;
             }
             var pairs: i64 = (lanes & halves) + ((lanes >>> i64(16)) & halves);
             sum = sum + i32(pairs) + i32(pairs >>> i64(32));
           }
           var end: i32 = ptr + len;
           while (p < end) { sum = sum + load8u(p); p = p + 1; }
           return sum;
         }
         export fn work(n: i32) -> i32 {
           var i: i32 = 0;
           while (i < n) { store8(8 + i, i * 37 + 11); i = i + 1; }
           return checksum(8, n);
         })",
      // Nested calls with several arguments, locals live across the calls.
      R"(fn mix(a: i32, b: i32, c: i32) -> i32 { return a * 31 + (b ^ c); }
         fn twice(a: i32, b: i32) -> i32 { return mix(a, b, a - b) + mix(b, a, 3); }
         export fn work(n: i32) -> i32 {
           var acc: i32 = 7;
           var i: i32 = 0;
           while (i < n) { acc = twice(acc, i) - mix(i, acc, n); i = i + 1; }
           return acc;
         })",
  };
  for (const char* src : corpus) {
    DiffPair pair = make_pair_wcc(src);
    for (int32_t n : {0, 1, 2, 7, 100, 1000}) {
      pair.expect_same("work", {TypedValue::i32(n)});
    }
  }
}

TEST_F(InterpDifferential, BrTableMatches) {
  // br_table across three depths plus default, with per-arm side effects on
  // a local so divergent target resolution changes the result.
  ModuleBuilder mb;
  auto& f = mb.add_func(FuncType{{ValType::kI32}, {ValType::kI32}}, "work");
  uint32_t acc = f.add_local(ValType::kI32);
  f.block();                                // depth 2 at br_table site
  f.block();                                // depth 1
  f.block();                                // depth 0
  f.local_get(0);
  f.br_table({0, 1, 2}, 1);
  f.end();
  f.i32_const(10).local_set(acc);
  f.local_get(acc).ret();
  f.end();
  f.i32_const(20).local_set(acc);
  f.local_get(acc).ret();
  f.end();
  f.i32_const(30).local_set(acc);
  f.local_get(acc).end();

  DiffPair pair = make_pair(mb);
  for (int32_t sel : {0, 1, 2, 3, 100, -1}) {
    pair.expect_same("work", {TypedValue::i32(sel)});
  }
}

TEST_F(InterpDifferential, DeepBrTableMatches) {
  // 300 lanes: the lane count and the deeper targets need multi-byte LEBs,
  // and resolution unwinds through hundreds of enclosing blocks — the
  // widest dispatch shape the translator has to get right.
  constexpr uint32_t kLanes = 300;
  ModuleBuilder mb;
  auto& f = mb.add_func(FuncType{{ValType::kI32}, {ValType::kI32}}, "work");
  uint32_t acc = f.add_local(ValType::kI32);
  for (uint32_t d = 0; d < kLanes; ++d) f.block();
  f.local_get(0);
  std::vector<uint32_t> targets(kLanes);
  std::iota(targets.begin(), targets.end(), 0u);
  f.br_table(targets, kLanes - 1);
  for (uint32_t d = 0; d < kLanes; ++d) {
    f.end();
    if (d + 1 < kLanes) {
      // Distinct side effect per arm so a mis-resolved target changes the
      // result, not just the path.
      f.i32_const(static_cast<int32_t>(d * 7 + 1)).local_set(acc);
      f.local_get(acc).ret();
    }
  }
  f.i32_const(static_cast<int32_t>(kLanes * 7 + 1)).local_set(acc);
  f.local_get(acc).end();

  DiffPair pair = make_pair(mb);
  for (int32_t sel : {0, 1, 63, 127, 128, 255, 256, 298, 299, 300, 5000, -1}) {
    pair.expect_same("work", {TypedValue::i32(sel)});
  }
}

TEST_F(InterpDifferential, MemoryGrowAtLimitsMatches) {
  // memory 1..4 pages. Both dispatchers must agree on every grow result
  // (previous size on success, -1 on denial), on memory.size, and on
  // whether a probe at the moving boundary traps — before, across, and at
  // the declared maximum.
  ModuleBuilder mb;
  mb.add_memory(1, 4);
  auto& g = mb.add_func(FuncType{{ValType::kI32}, {ValType::kI32}}, "grow");
  g.local_get(0).memory_grow().end();
  auto& s = mb.add_func(FuncType{{}, {ValType::kI32}}, "size");
  s.memory_size().end();
  auto& p = mb.add_func(FuncType{{ValType::kI32}, {ValType::kI32}}, "probe");
  p.local_get(0).mem(Op::kI32Load).end();

  constexpr int32_t kPage = 65536;
  DiffPair pair = make_pair(mb);
  pair.expect_same("size", {});
  pair.expect_same("probe", {TypedValue::i32(kPage - 4)});      // last word, page 0
  pair.expect_same("probe", {TypedValue::i32(kPage)});          // oob before grow
  pair.expect_same("grow", {TypedValue::i32(0)});               // no-op: reports 1
  pair.expect_same("grow", {TypedValue::i32(2)});               // 1 -> 3
  pair.expect_same("probe", {TypedValue::i32(3 * kPage - 4)});  // now in bounds
  pair.expect_same("grow", {TypedValue::i32(2)});               // 3+2 > max: -1
  pair.expect_same("grow", {TypedValue::i32(1)});               // 3 -> 4 == max
  pair.expect_same("grow", {TypedValue::i32(1)});               // at max: -1
  pair.expect_same("grow", {TypedValue::i32(0x7fffffff)});      // absurd count: -1
  pair.expect_same("grow", {TypedValue::i32(0)});               // still reports 4
  pair.expect_same("size", {});
  pair.expect_same("probe", {TypedValue::i32(4 * kPage - 4)});
  pair.expect_same("probe", {TypedValue::i32(4 * kPage)});      // oob at max
}

TEST_F(InterpDifferential, ReentrantHostCallsMatch) {
  // outer -> host import -> back into the instance's exported leaf, all on
  // the shared ExecContext. Both dispatchers must agree across the host
  // boundary — results, metering, and where the budget dies when it runs
  // out inside the nested call.
  DiffPair pair =
      make_pair(wasmtest::reentrant_module(), wasmtest::reenter_linker("leaf"));
  for (int32_t x : {0, 1, 21, -5, 1 << 20}) {
    pair.expect_same("outer", {TypedValue::i32(x)});
  }

  const std::vector<TypedValue> args = {TypedValue::i32(21)};
  Outcome probe = run_one(*pair.oracle, "outer", args, {});
  ASSERT_TRUE(probe.ok);
  ASSERT_GT(probe.instrs, 2u);
  for (uint64_t b : {uint64_t{1}, probe.instrs - 1, probe.instrs, probe.instrs + 1}) {
    CallOptions opts;
    opts.fuel = b;
    pair.expect_same("outer", args, opts);
  }
}

TEST_F(InterpDifferential, LoopWithValueCarryingBranchMatches) {
  // A block-typed branch that keeps one value across the unwind, exercising
  // the (keep, height) baked into the translated branch.
  ModuleBuilder mb;
  auto& f = mb.add_func(FuncType{{ValType::kI32}, {ValType::kI32}}, "work");
  uint32_t i = f.add_local(ValType::kI32);
  f.block(wasmbuilder::BlockT{ValType::kI32});
  f.loop();
  f.local_get(i).local_get(0).op(Op::kI32GeS);
  f.if_();
  f.local_get(i).i32_const(1000).op(Op::kI32Mul).br(2);  // carries a value out
  f.end();
  f.local_get(i).i32_const(1).op(Op::kI32Add).local_set(i);
  f.br(0);
  f.end();
  f.i32_const(-1);  // unreachable filler keeping the block's type
  f.end();
  f.end();

  DiffPair pair = make_pair(mb);
  for (int32_t n : {0, 1, 5, 37}) {
    pair.expect_same("work", {TypedValue::i32(n)});
  }
}

TEST_F(InterpDifferential, TrapsMatch) {
  DiffPair div = make_pair_wcc(
      "export fn work(a: i32, b: i32) -> i32 { return a / b; }");
  div.expect_same("work", {TypedValue::i32(7), TypedValue::i32(0)});
  div.expect_same("work", {TypedValue::i32(INT32_MIN), TypedValue::i32(-1)});
  div.expect_same("work", {TypedValue::i32(9), TypedValue::i32(3)});

  DiffPair oob = make_pair_wcc(
      "export fn work(a: i32) -> i32 { return load32(a); }");
  oob.expect_same("work", {TypedValue::i32(0)});
  oob.expect_same("work", {TypedValue::i32(INT32_MAX)});
  oob.expect_same("work", {TypedValue::i32(-4)});

  // Unbounded recursion: both dispatchers must exhaust the frame budget at
  // the same depth (same instrs_retired) with the same trap.
  ModuleBuilder rec;
  auto& f = rec.add_func(FuncType{{}, {ValType::kI32}}, "work");
  f.call(0).end();
  DiffPair deep = make_pair(rec);
  deep.expect_same("work", {});

  ModuleBuilder unr;
  auto& g = unr.add_func(FuncType{{}, {}}, "work");
  g.op(Op::kUnreachable).end();
  DiffPair boom = make_pair(unr);
  boom.expect_same("work", {});
}

TEST_F(InterpDifferential, IndirectCallTrapsMatch) {
  ModuleBuilder mb;
  FuncType unop{{ValType::kI32}, {ValType::kI32}};
  FuncType nullary{{}, {ValType::kI32}};
  auto& inc = mb.add_func(unop);
  inc.local_get(0).i32_const(1).op(Op::kI32Add).end();
  auto& zero = mb.add_func(nullary);
  zero.i32_const(0).end();
  mb.add_table(4, 4);
  mb.add_elem(0, {inc.index()});
  mb.add_elem(2, {zero.index()});
  uint32_t t_unop = mb.add_type(unop);
  auto& work = mb.add_func(FuncType{{ValType::kI32}, {ValType::kI32}}, "work");
  work.i32_const(41).local_get(0).call_indirect(t_unop).end();

  DiffPair pair = make_pair(mb);
  pair.expect_same("work", {TypedValue::i32(0)});   // ok
  pair.expect_same("work", {TypedValue::i32(1)});   // uninitialized element
  pair.expect_same("work", {TypedValue::i32(2)});   // signature mismatch
  pair.expect_same("work", {TypedValue::i32(9)});   // out of bounds
}

TEST_F(InterpDifferential, FuelBoundariesMatch) {
  DiffPair pair = make_pair_wcc(R"(
    export fn work(n: i32) -> i32 {
      var acc: i32 = 0;
      var i: i32 = 0;
      while (i < n) {
        if (i % 3 == 0) { acc = acc + i * 7; } else { acc = acc - i / 3; }
        i = i + 1;
      }
      return acc;
    }
  )");
  const std::vector<TypedValue> args = {TypedValue::i32(200)};

  // Discover the exact cost unmetered, then sweep the boundary: every budget
  // must produce the identical success/trap outcome AND identical fuel_used
  // on both dispatchers (bit-identical metering).
  Outcome probe = run_one(*pair.oracle, "work", args, {});
  ASSERT_TRUE(probe.ok);
  const uint64_t exact = probe.instrs;

  std::vector<uint64_t> budgets = {1, 2, 3, 5, exact / 2, exact - 1, exact,
                                   exact + 1, exact * 10};
  for (uint64_t b : budgets) {
    CallOptions opts;
    opts.fuel = b;
    pair.expect_same("work", args, opts);
  }

  // And the exact budget must succeed while exact-1 must trap — on both.
  CallOptions at;
  at.fuel = exact;
  EXPECT_TRUE(run_one(*pair.threaded, "work", args, at).ok);
  CallOptions under;
  under.fuel = exact - 1;
  Outcome starved = run_one(*pair.threaded, "work", args, under);
  EXPECT_FALSE(starved.ok);
  EXPECT_EQ(starved.error_code, static_cast<int>(Error::Code::kFuelExhausted));
}

/// Stubs every function import with a zero-returning host of the right
/// signature so mutants (and pristine plugins) exercise the interpreter,
/// not the plugin ABI.
wasm::Linker stub_linker(const wasm::Module& m) {
  wasm::Linker linker;
  for (const auto& imp : m.imports) {
    if (imp.kind != wasm::ImportKind::kFunc) continue;
    const FuncType& ft = m.types[imp.type_index];
    const bool has_result = !ft.results.empty();
    linker.register_func(
        imp.module, imp.name,
        wasm::HostFunc{ft, [has_result](wasm::HostContext&,
                                        std::span<const wasm::Value>)
                               -> Result<std::optional<wasm::Value>> {
          if (has_result) return std::optional<wasm::Value>(wasm::Value{});
          return std::optional<wasm::Value>{};
        }});
  }
  return linker;
}

TEST_F(InterpDifferential, VerifierAcceptsTierStreams) {
  // Every tier-1 lowering passes the stream verifier: the module's shared
  // translation (translate_module) and the private lowering an instance
  // makes when the embedder skipped it. Both are verified for every
  // scheduler, and the privately lowered pair must still run identically.
  for (const char* kind : {"rr", "pf", "mt"}) {
    auto bytes = sched::plugins::scheduler(kind);
    ASSERT_TRUE(bytes.ok()) << kind;
    auto decoded = wasm::decode_module(*bytes);
    ASSERT_TRUE(decoded.ok()) << kind;
    ASSERT_TRUE(wasm::validate_module(*decoded).ok()) << kind;
    // Copied before translate_module, so its instances lower privately.
    auto untranslated = std::make_shared<const wasm::Module>(*decoded);
    ASSERT_TRUE(wasm::translate_module(*decoded).ok()) << kind;
    EXPECT_TRUE(analysis::verify_module(*decoded, *decoded->translated).ok())
        << kind;

    auto pair = make_pair_from_module(untranslated, stub_linker(*decoded));
    ASSERT_TRUE(pair.ok()) << kind << ": " << pair.error().message;
    for (wasm::Instance* inst : {pair->oracle.get(), pair->threaded.get()}) {
      EXPECT_TRUE(analysis::verify_module(*untranslated, *inst->translation()).ok())
          << kind;
    }
    CallOptions opts;
    opts.fuel = 200'000;
    pair->expect_same("schedule", {}, opts, std::string(kind) + " ");
  }
}

TEST_F(InterpDifferential, CorruptedStreamsAreRejected) {
  // Deterministic corruptions of uop immediates, each guaranteed to break a
  // stream invariant (arbitrary bit flips can land on another legal stream,
  // e.g. in kConst payload bits — those are the mutants above). Applied to
  // the tier-1 stream of every scheduler function.
  using wasm::TranslatedFunc;
  using wasm::UOp;

  auto is_branch = [](UOp op) {
    return op == UOp::kJump || op == UOp::kJumpZ || op == UOp::kJumpNZ ||
           op == UOp::kBr || op == UOp::kBrIf ||
           (op >= UOp::kJumpI32Eq && op <= UOp::kJumpI32GeU);
  };
  auto first_branch = [&](const TranslatedFunc& tf) -> int64_t {
    for (size_t i = 0; i < tf.ops.size(); ++i) {
      if (is_branch(tf.ops[i].op)) return static_cast<int64_t>(i);
    }
    return -1;
  };
  auto first_result_op = [](const TranslatedFunc& tf) -> int64_t {
    for (size_t i = 0; i < tf.ops.size(); ++i) {
      if (wasm::value_operands(tf.ops[i]).dst != wasm::UOperands::kNoSlot) {
        return static_cast<int64_t>(i);
      }
    }
    return -1;
  };

  auto expect_rejected = [](const wasm::Module& m, const TranslatedFunc& tf,
                            const char* what) {
    Status st = analysis::verify_func(m, tf);
    EXPECT_FALSE(st.ok()) << what << ": corrupted stream passed the verifier";
  };

  int corruptions = 0;
  auto corrupt_all_ways = [&](const wasm::Module& m, const TranslatedFunc& base,
                              const std::string& tag) {
    {  // bad-opcode: op value outside the dispatch table
      TranslatedFunc tf = base;
      tf.ops[0].op = static_cast<UOp>(wasm::kNumUOps);
      expect_rejected(m, tf, (tag + "/bad-opcode").c_str());
      ++corruptions;
    }
    {  // entry-charge: first op no longer charges its segment
      TranslatedFunc tf = base;
      tf.ops[0] = wasm::UInstr{};
      tf.ops[0].op = UOp::kCopy;
      expect_rejected(m, tf, (tag + "/entry-charge").c_str());
      ++corruptions;
    }
    {  // fall-off-end: last op falls through past the stream
      TranslatedFunc tf = base;
      wasm::UInstr seg{};
      seg.op = UOp::kSeg;
      seg.b = 1;
      tf.ops.back() = seg;
      expect_rejected(m, tf, (tag + "/fall-off-end").c_str());
      ++corruptions;
    }
    {  // zero-charge: op 0 (always the entry kSeg) charges nothing
      TranslatedFunc tf = base;
      tf.ops[0].b = 0;
      expect_rejected(m, tf, (tag + "/zero-charge").c_str());
      ++corruptions;
    }
    if (int64_t i = first_branch(base); i >= 0) {
      {  // target-range: branch off the end of the stream
        TranslatedFunc tf = base;
        tf.ops[static_cast<size_t>(i)].b =
            static_cast<uint32_t>(tf.ops.size()) + 1000;
        expect_rejected(m, tf, (tag + "/target-range").c_str());
        ++corruptions;
      }
      {  // double-charge: taken edge lands on the charge-leading op 0
        TranslatedFunc tf = base;
        tf.ops[static_cast<size_t>(i)].b = 0;
        expect_rejected(m, tf, (tag + "/double-charge").c_str());
        ++corruptions;
      }
    }
    if (int64_t i = first_result_op(base); i >= 0) {
      // slot-range: a result slot far outside the frame
      TranslatedFunc tf = base;
      tf.ops[static_cast<size_t>(i)].b = 0xFFFE;
      expect_rejected(m, tf, (tag + "/slot-range").c_str());
      ++corruptions;
    }
  };

  for (const char* kind : {"rr", "pf", "mt"}) {
    auto bytes = sched::plugins::scheduler(kind);
    ASSERT_TRUE(bytes.ok()) << kind;
    auto decoded = wasm::decode_module(*bytes);
    ASSERT_TRUE(decoded.ok());
    ASSERT_TRUE(wasm::validate_module(*decoded).ok());
    ASSERT_TRUE(wasm::translate_module(*decoded).ok());

    for (size_t fi = 0; fi < decoded->translated->funcs.size(); ++fi) {
      corrupt_all_ways(*decoded, decoded->translated->funcs[fi],
                       std::string(kind) + "/f" + std::to_string(fi));
    }
  }
  // The battery must have actually fired across the corpus: all seven
  // corruptions on each of the two functions of the three schedulers.
  EXPECT_GE(corruptions, 42);
}

/// Validated mutants the translator refuses on a representation limit.
constexpr std::array<std::string_view, 0> kRepresentationLimitMutants = {};

TEST_F(InterpDifferential, ValidatedMutantsMatch) {
  // Random mutants (1-3 byte edits) of every real scheduler plugin that
  // still pass validation: run each through both dispatchers under a
  // stubbed host ABI and a tight fuel budget, and require identical
  // observable behavior — the differential analogue of
  // Fuzz.ValidatedMutantsAreSafeToRun, widened across the plugin corpus
  // and deeper corruption. Every lowering is verified explicitly.
  int kind_index = 0;
  for (const char* kind : {"rr", "pf", "mt"}) {
    auto seed_module = sched::plugins::scheduler(kind);
    ASSERT_TRUE(seed_module.ok()) << kind;

    Xoshiro256 rng(0xD1FF + static_cast<uint64_t>(kind_index++));
    int executed = 0;
    for (int round = 0; round < 4000 && executed < 25; ++round) {
      std::vector<uint8_t> mutated = *seed_module;
      const uint64_t edits = 1 + rng.below(3);
      for (uint64_t e = 0; e < edits; ++e) {
        mutated[rng.below(mutated.size())] = static_cast<uint8_t>(rng.next());
      }

      auto decoded = wasm::decode_module(mutated);
      if (!decoded.ok()) continue;
      if (!wasm::validate_module(*decoded).ok()) continue;

      // Every validated mutant's lowering must pass the stream verifier.
      // Translation may legally reject a mutant on representation limits;
      // the record then still holds that mutant's line, so each one is
      // named here.
      const std::string name = std::string(kind) + " round " + std::to_string(round);
      if (!wasm::translate_module(*decoded).ok()) {
        bool listed = false;
        for (std::string_view l : kRepresentationLimitMutants) listed = listed || name == l;
        EXPECT_TRUE(listed) << name << " failed to translate";
        continue;
      }
      Status v = analysis::verify_module(*decoded, *decoded->translated);
      ASSERT_TRUE(v.ok()) << kind << " mutant round " << round << ": "
                          << v.error().message;

      auto pair = make_pair_from_bytes(mutated, stub_linker(*decoded));
      if (!pair.ok()) continue;  // e.g. start function trapped — fine
      ++executed;
      CallOptions opts;
      opts.fuel = 200'000;
      pair->expect_same("schedule", {}, opts, name + " ");
    }
    EXPECT_GT(executed, 0) << kind;
  }
}

/// The plugin corpus: every scheduler, fault and RIC-side plugin.
std::vector<std::pair<std::string, Result<std::vector<uint8_t>>>> plugin_corpus() {
  std::vector<std::pair<std::string, Result<std::vector<uint8_t>>>> out;
  for (const char* kind : {"rr", "drr", "pf", "mt"}) {
    out.emplace_back(kind, sched::plugins::scheduler(kind));
  }
  for (const char* kind :
       {"oob", "null", "loop", "doublefree", "leak", "badalloc", "shortoutput"}) {
    out.emplace_back(kind, sched::plugins::faulty(kind));
  }
  namespace ps = ric::plugin_sources;
  out.emplace_back("comm_framing", ps::comm_framing());
  out.emplace_back("control_dispatch", ps::control_dispatch());
  out.emplace_back("control_dispatch_v2", ps::control_dispatch_v2());
  out.emplace_back("vendor_widen", ps::vendor_widen());
  out.emplace_back("sla_xapp", ps::sla_xapp());
  out.emplace_back("steer_xapp", ps::steer_xapp());
  out.emplace_back("counter_xapp", ps::counter_xapp());
  return out;
}

/// An admission summary line without its first per-export field, which
/// describes how the stream lays out its values rather than what any call
/// costs: the recorded lines keep the verdict, frame and fuel bounds and the
/// loop class.
std::string without_layout_field(const std::string& line) {
  const size_t open = line.find("): ");
  if (line.rfind("  export ", 0) != 0 || open == std::string::npos) return line;
  const size_t comma = line.find(", ", open + 3);
  if (comma == std::string::npos) return line;
  return line.substr(0, open + 3) + line.substr(comma + 2);
}

TEST_F(InterpDifferential, CorpusAdmissionMatchesRecord) {
  record().check_tests_exist();
  const auto corpus = plugin_corpus();
  ASSERT_EQ(corpus.size(), 18u);
  for (const auto& [name, bytes] : corpus) {
    ASSERT_TRUE(bytes.ok()) << name;
    auto m = wasm::decode_module(*bytes);
    ASSERT_TRUE(m.ok()) << name;
    ASSERT_TRUE(wasm::validate_module(*m).ok()) << name;
    auto tm = wasm::translate(*m);
    ASSERT_TRUE(tm.ok()) << name;
    const std::string summary =
        analysis::admit(*m, **tm, analysis::AdmissionLimits{2'000'000, 256}).summary();
    size_t line_no = 0;
    for (size_t pos = 0; pos < summary.size(); ++line_no) {
      const size_t nl = summary.find('\n', pos);
      const std::string line = summary.substr(pos, nl - pos);
      record().add(name + " summary " + std::to_string(line_no) + "\t" +
                   without_layout_field(line));
      pos = nl == std::string::npos ? summary.size() : nl + 1;
    }
  }
}

}  // namespace
}  // namespace waran
