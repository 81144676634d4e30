// W program corpus: nontrivial algorithms compiled by wcc and executed in
// the engine, validated against C++ reference implementations. This is the
// breadth test for the whole toolchain (parser edge cases, codegen for
// nested control flow, i64 arithmetic, memory addressing) and exercises
// the compute-plugin use cases the paper lists in §3 (e.g. FEC-adjacent
// bit-twiddling like CRC).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <memory>
#include <numeric>
#include <vector>

#include "common/rng.h"
#include "plugin/plugin.h"
#include "wasm/wasm.h"
#include "wcc/compiler.h"

namespace waran {
namespace {

using wasm::TypedValue;

std::unique_ptr<wasm::Instance> instantiate(const char* src) {
  auto bytes = wcc::compile(src);
  EXPECT_TRUE(bytes.ok()) << (bytes.ok() ? "" : bytes.error().message);
  if (!bytes.ok()) return nullptr;
  auto module = wasm::decode_module(*bytes);
  EXPECT_TRUE(module.ok());
  EXPECT_TRUE(wasm::validate_module(*module).ok());
  auto inst = wasm::Instance::instantiate(
      std::make_shared<wasm::Module>(std::move(*module)), {});
  EXPECT_TRUE(inst.ok());
  return inst.ok() ? std::move(*inst) : nullptr;
}

// --- CRC-32 (IEEE 802.3, bitwise). ---

uint32_t crc32_reference(const std::vector<uint8_t>& data) {
  uint32_t crc = 0xffffffff;
  for (uint8_t byte : data) {
    crc ^= byte;
    for (int k = 0; k < 8; ++k) {
      crc = (crc >> 1) ^ (0xedb88320u & (0u - (crc & 1)));
    }
  }
  return ~crc;
}

const std::vector<std::vector<uint8_t>>& crc32_inputs() {
  static const std::vector<std::vector<uint8_t>> kInputs = {
      {}, {'a'}, {'1', '2', '3', '4', '5', '6', '7', '8', '9'}, std::vector<uint8_t>(64, 0xff)};
  return kInputs;
}

TEST(WProgram, Crc32MatchesReference) {
  // This CRC builds XOR and logical shifts from div/mod arithmetic alone,
  // without W's bitwise operators: a worst-case stress of signed
  // wraparound codegen. Crc32BitwiseMatchesReference is the direct form.
  const char* kPractical = R"(
    // Without bitwise operators, every bit is extracted with div/mod.
    fn bit(x: i32, k: i32) -> i32 {
      var v: i32 = x;
      var i: i32 = 0;
      while (i < k) {
        // logical shift right by one
        if (v < 0) {
          v = (v - 2147483647 - 1) / 2 + 1073741824;
        } else {
          v = v / 2;
        }
        i = i + 1;
      }
      return v - (v / 2) * 2;
    }
    fn xor32(a: i32, b: i32) -> i32 {
      var result: i32 = 0;
      var k: i32 = 0;
      var weight: i32 = 1;
      while (k < 32) {
        var x: i32 = bit(a, k) + bit(b, k);
        x = x - (x / 2) * 2;
        if (x != 0) { result = result + weight; }
        weight = weight * 2;   // wraps to INT_MIN at k=30->31, then 0
        k = k + 1;
      }
      return result;
    }
    fn shr1u(x: i32) -> i32 {
      if (x < 0) {
        return (x - 2147483647 - 1) / 2 + 1073741824;
      }
      return x / 2;
    }
    export fn run() -> i32 {
      var n: i32 = input_len();
      input_read(0, 0, n);
      var crc: i32 = -1;
      var i: i32 = 0;
      while (i < n) {
        crc = xor32(crc, load8u(i));
        var k: i32 = 0;
        while (k < 8) {
          var lsb: i32 = crc - (crc / 2) * 2;
          if (crc < 0) { lsb = crc - shr1u(crc) * 2; }
          crc = shr1u(crc);
          if (lsb != 0) {
            crc = xor32(crc, -306674912);
          }
          k = k + 1;
        }
        i = i + 1;
      }
      crc = xor32(crc, -1);
      store32(4096, crc);
      output_write(4096, 4);
      return 0;
    }
  )";
  auto bytes = wcc::compile(kPractical);
  ASSERT_TRUE(bytes.ok()) << bytes.error().message;
  plugin::PluginLimits limits;
  limits.fuel_per_call = 50'000'000;
  auto p = plugin::Plugin::load(*bytes, {}, limits);
  ASSERT_TRUE(p.ok()) << p.error().message;

  for (const std::vector<uint8_t>& data : crc32_inputs()) {
    std::vector<uint8_t> out;
    Status st = (*p)->call("run", data, out);
    ASSERT_TRUE(st.ok()) << st.error().message;
    uint32_t got;
    std::memcpy(&got, out.data(), 4);
    EXPECT_EQ(got, crc32_reference(data)) << "len " << data.size();
  }
}

TEST(WProgram, Crc32BitwiseMatchesReference) {
  // The same CRC with & ^ >>>, under the default 2,000,000-fuel budget.
  const char* kBitwise = R"(
    export fn run() -> i32 {
      var n: i32 = input_len();
      input_read(0, 0, n);
      var crc: i32 = -1;
      var i: i32 = 0;
      while (i < n) {
        crc = crc ^ load8u(i);
        var k: i32 = 0;
        while (k < 8) {
          crc = (crc >>> 1) ^ (-306674912 & -(crc & 1));   // 0xEDB88320
          k = k + 1;
        }
        i = i + 1;
      }
      store32(4096, crc ^ -1);
      output_write(4096, 4);
      return 0;
    }
  )";
  auto bytes = wcc::compile(kBitwise);
  ASSERT_TRUE(bytes.ok()) << bytes.error().message;
  auto p = plugin::Plugin::load(*bytes);
  ASSERT_TRUE(p.ok()) << p.error().message;
  ASSERT_EQ((*p)->limits().fuel_per_call, 2'000'000u);

  std::vector<std::vector<uint8_t>> inputs = crc32_inputs();
  Xoshiro256 rng(7);
  std::vector<uint8_t> random(4000);
  for (uint8_t& b : random) b = static_cast<uint8_t>(rng.next());
  inputs.push_back(random);
  for (const std::vector<uint8_t>& data : inputs) {
    std::vector<uint8_t> out;
    Status st = (*p)->call("run", data, out);
    ASSERT_TRUE(st.ok()) << st.error().message;
    uint32_t got;
    std::memcpy(&got, out.data(), 4);
    EXPECT_EQ(got, crc32_reference(data)) << "len " << data.size();
  }
}

// --- Binary GCD. ---

TEST(WProgram, GcdMatchesStdGcd) {
  auto inst = instantiate(R"(
    export fn gcd(a: i32, b: i32) -> i32 {
      while (b != 0) {
        var t: i32 = b;
        b = a % b;
        a = t;
      }
      return a;
    }
  )");
  ASSERT_NE(inst, nullptr);
  for (int32_t a : {1, 12, 35, 1071, 46368, 1000000}) {
    for (int32_t b : {1, 18, 49, 462, 75025, 2048}) {
      auto r = inst->call("gcd", std::vector<TypedValue>{TypedValue::i32(a),
                                                         TypedValue::i32(b)});
      ASSERT_TRUE(r.ok());
      EXPECT_EQ((*r)->value.as_i32(), std::gcd(a, b)) << a << "," << b;
    }
  }
}

// --- Integer square root by Newton iteration (uses f64 internally). ---

TEST(WProgram, IsqrtNewton) {
  auto inst = instantiate(R"(
    export fn isqrt(n: i32) -> i32 {
      if (n <= 0) { return 0; }
      var x: f64 = f64(n);
      var g: f64 = x;
      var i: i32 = 0;
      while (i < 40) {
        g = (g + x / g) * 0.5;
        i = i + 1;
      }
      var r: i32 = i32(g);
      // Newton can land one off in either direction; fix up exactly.
      while (r * r > n) { r = r - 1; }
      while ((r + 1) * (r + 1) <= n) { r = r + 1; }
      return r;
    }
  )");
  ASSERT_NE(inst, nullptr);
  for (int32_t n : {0, 1, 2, 3, 4, 15, 16, 17, 99, 100, 10000, 999999, 46340}) {
    auto r = inst->call("isqrt", std::vector<TypedValue>{TypedValue::i32(n)});
    ASSERT_TRUE(r.ok());
    int32_t want = static_cast<int32_t>(std::sqrt(static_cast<double>(n)));
    while (want * want > n) --want;
    while ((want + 1) * (want + 1) <= n) ++want;
    EXPECT_EQ((*r)->value.as_i32(), want) << n;
  }
}

// --- In-memory insertion sort over the plugin ABI. ---

TEST(WProgram, InsertionSortBytes) {
  const char* kSrc = R"(
    export fn run() -> i32 {
      var n: i32 = input_len();
      input_read(0, 0, n);
      var i: i32 = 1;
      while (i < n) {
        var key: i32 = load8u(i);
        var j: i32 = i - 1;
        while (j >= 0 && load8u(j) > key) {
          store8(j + 1, load8u(j));
          j = j - 1;
        }
        store8(j + 1, key);
        i = i + 1;
      }
      output_write(0, n);
      return 0;
    }
  )";
  auto bytes = wcc::compile(kSrc);
  ASSERT_TRUE(bytes.ok());
  auto p = plugin::Plugin::load(*bytes);
  ASSERT_TRUE(p.ok());

  Xoshiro256 rng(99);
  for (int round = 0; round < 20; ++round) {
    std::vector<uint8_t> data(rng.below(200));
    for (auto& b : data) b = static_cast<uint8_t>(rng.next());
    std::vector<uint8_t> want = data;
    std::sort(want.begin(), want.end());
    std::vector<uint8_t> out;
    ASSERT_TRUE((*p)->call("run", data, out).ok());
    EXPECT_EQ(out, want);
  }
}

// --- 64-bit Collatz step counting (i64 throughout). ---

TEST(WProgram, CollatzStepsI64) {
  auto inst = instantiate(R"(
    export fn steps(n0: i64) -> i32 {
      var n: i64 = n0;
      var count: i32 = 0;
      while (n != i64(1)) {
        if (n % i64(2) == i64(0)) {
          n = n / i64(2);
        } else {
          n = n * i64(3) + i64(1);
        }
        count = count + 1;
      }
      return count;
    }
  )");
  ASSERT_NE(inst, nullptr);
  auto reference = [](int64_t n) {
    int c = 0;
    while (n != 1) {
      n = n % 2 == 0 ? n / 2 : 3 * n + 1;
      ++c;
    }
    return c;
  };
  for (int64_t n : {1LL, 2LL, 7LL, 27LL, 97LL, 871LL, 6171LL}) {
    auto r = inst->call("steps", std::vector<TypedValue>{TypedValue::i64(n)});
    ASSERT_TRUE(r.ok());
    EXPECT_EQ((*r)->value.as_i32(), reference(n)) << n;
  }
}

// --- Fixed-point EWMA filter (the building block of PF scheduling). ---

TEST(WProgram, EwmaFilterMatchesDouble) {
  const char* kSrc = R"(
    global avg: f64 = 0.0;
    export fn feed(sample: f64, inv_tc: f64) -> f64 {
      avg = avg + (sample - avg) * inv_tc;
      return avg;
    }
  )";
  auto inst = instantiate(kSrc);
  ASSERT_NE(inst, nullptr);
  double ref = 0.0;
  Xoshiro256 rng(3);
  for (int i = 0; i < 200; ++i) {
    double sample = rng.uniform() * 1e7;
    ref += (sample - ref) * 0.01;
    auto r = inst->call("feed", std::vector<TypedValue>{TypedValue::f64(sample),
                                                        TypedValue::f64(0.01)});
    ASSERT_TRUE(r.ok());
    EXPECT_DOUBLE_EQ((*r)->value.as_f64(), ref);
  }
}

}  // namespace
}  // namespace waran
