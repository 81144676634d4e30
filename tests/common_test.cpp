// Tests for the common substrate: byte IO, LEB128, stats, tracked heap, RNG.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "common/bytes.h"
#include "common/log.h"
#include "common/result.h"
#include "common/rng.h"
#include "common/stats.h"
#include "common/tracked_alloc.h"

namespace waran {
namespace {

TEST(Result, HoldsValueAndError) {
  Result<int> ok = 42;
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(*ok, 42);

  Result<int> bad = Error::decode("boom");
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.error().code, Error::Code::kDecode);
  EXPECT_EQ(bad.error().message, "boom");
  EXPECT_EQ(bad.value_or(7), 7);
}

TEST(Status, DefaultIsOk) {
  Status st;
  EXPECT_TRUE(st.ok());
  Status bad = Error::trap("t");
  EXPECT_FALSE(bad.ok());
  EXPECT_STREQ(to_string(bad.error().code), "trap");
}

TEST(Bytes, FixedWidthRoundTrip) {
  ByteWriter w;
  w.u8(0xab);
  w.u16le(0x1234);
  w.u32le(0xdeadbeef);
  w.u64le(0x0123456789abcdefULL);
  w.f32le(3.5f);
  w.f64le(-2.25);

  ByteReader r(w.data());
  EXPECT_EQ(*r.u8(), 0xab);
  EXPECT_EQ(*r.u16le(), 0x1234);
  EXPECT_EQ(*r.u32le(), 0xdeadbeefu);
  EXPECT_EQ(*r.u64le(), 0x0123456789abcdefULL);
  EXPECT_EQ(*r.f32le(), 3.5f);
  EXPECT_EQ(*r.f64le(), -2.25);
  EXPECT_TRUE(r.at_end());
}

TEST(Bytes, ReadPastEndFails) {
  std::vector<uint8_t> buf = {1, 2};
  ByteReader r(buf);
  EXPECT_TRUE(r.u32le().ok() == false);
  // Cursor did not advance on failure.
  EXPECT_EQ(r.pos(), 0u);
  EXPECT_EQ(*r.u16le(), 0x0201);
}

TEST(Leb128, UnsignedRoundTrip) {
  for (uint64_t v : {0ULL, 1ULL, 127ULL, 128ULL, 16384ULL, 0xffffffffULL,
                     0xffffffffffffffffULL}) {
    ByteWriter w;
    w.uleb(v);
    ByteReader r(w.data());
    auto got = r.uleb(64);
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(*got, v);
    EXPECT_TRUE(r.at_end());
  }
}

TEST(Leb128, SignedRoundTrip) {
  // -2^62 and -2^62 - 1 end on a ninth byte whose sign extension starts
  // at bit 63.
  const int64_t cases[] = {0,  1,    -1,   63,
                           64, -64,  -65,  8191,
                           -(int64_t{1} << 62), -(int64_t{1} << 62) - 1,
                           std::numeric_limits<int64_t>::min(),
                           std::numeric_limits<int64_t>::max()};
  for (int64_t v : cases) {
    ByteWriter w;
    w.sleb(v);
    ByteReader r(w.data());
    auto got = r.sleb(64);
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(*got, v);
  }
}

TEST(Leb128, U32Overflow) {
  // 5-byte encoding with bits beyond 32 set must fail for uleb32.
  std::vector<uint8_t> buf = {0xff, 0xff, 0xff, 0xff, 0x7f};  // 2^35-1
  ByteReader r(buf);
  EXPECT_FALSE(r.uleb(32).ok());
}

TEST(Leb128, TruncatedFails) {
  std::vector<uint8_t> buf = {0x80};
  ByteReader r(buf);
  EXPECT_FALSE(r.uleb(32).ok());
}

TEST(Leb128, PaddedZeroStillDecodes) {
  // Wasm allows redundant continuation bytes (used for back-patching).
  std::vector<uint8_t> out(5);
  write_uleb32_padded(out, 0, 300);
  ByteReader r(out);
  auto got = r.uleb(32);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(*got, 300u);
  EXPECT_TRUE(r.at_end());
}

TEST(Bytes, NameRoundTrip) {
  ByteWriter w;
  w.name("hello");
  ByteReader r(w.data());
  auto s = r.name();
  ASSERT_TRUE(s.ok());
  EXPECT_EQ(*s, "hello");
}

TEST(QuantileAcc, ExactQuantiles) {
  QuantileAcc acc;
  for (int i = 1; i <= 100; ++i) acc.add(static_cast<double>(i));
  EXPECT_DOUBLE_EQ(acc.quantile(0.5), 50.0);
  EXPECT_DOUBLE_EQ(acc.quantile(0.99), 99.0);
  EXPECT_DOUBLE_EQ(acc.quantile(1.0), 100.0);
  EXPECT_DOUBLE_EQ(acc.quantile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(acc.min(), 1.0);
  EXPECT_DOUBLE_EQ(acc.max(), 100.0);
  EXPECT_DOUBLE_EQ(acc.mean(), 50.5);
  EXPECT_EQ(acc.count(), 100u);
}

TEST(QuantileAcc, EmptyIsZero) {
  QuantileAcc acc;
  EXPECT_DOUBLE_EQ(acc.quantile(0.5), 0.0);
  EXPECT_DOUBLE_EQ(acc.mean(), 0.0);
  EXPECT_DOUBLE_EQ(acc.stddev(), 0.0);
}

TEST(QuantileAcc, BoundaryQuantilesClampToEndpoints) {
  QuantileAcc acc;
  acc.add(3.0);
  acc.add(1.0);
  acc.add(2.0);
  // Nearest-rank endpoints: q=0 is the minimum, q=1 the maximum, and
  // out-of-range q clamps rather than indexing out of the sample vector.
  EXPECT_DOUBLE_EQ(acc.quantile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(acc.quantile(1.0), 3.0);
  EXPECT_DOUBLE_EQ(acc.quantile(-0.5), 1.0);
  EXPECT_DOUBLE_EQ(acc.quantile(1.5), 3.0);
}

TEST(QuantileAcc, SingleSampleAllQuantilesEqual) {
  QuantileAcc acc;
  acc.add(7.0);
  EXPECT_DOUBLE_EQ(acc.quantile(0.0), 7.0);
  EXPECT_DOUBLE_EQ(acc.quantile(0.5), 7.0);
  EXPECT_DOUBLE_EQ(acc.quantile(1.0), 7.0);
  EXPECT_DOUBLE_EQ(acc.stddev(), 0.0);
}

TEST(QuantileAcc, StddevTwoSamples) {
  QuantileAcc acc;
  acc.add(2.0);
  acc.add(4.0);
  // Sample stddev (n-1 denominator): mean 3, squared deviations 1+1,
  // variance 2/1 = 2.
  EXPECT_DOUBLE_EQ(acc.mean(), 3.0);
  EXPECT_DOUBLE_EQ(acc.stddev(), std::sqrt(2.0));
}

TEST(QuantileAcc, AddAfterQueryResorts) {
  QuantileAcc acc;
  acc.add(10);
  EXPECT_DOUBLE_EQ(acc.quantile(0.5), 10.0);
  acc.add(1);
  EXPECT_DOUBLE_EQ(acc.quantile(0.0), 1.0);
}

TEST(CallCostAcc, CountsExactlyAndKeepsAWindowOfWallSamples) {
  // A slot that outlives its wall window: calls() and total_fuel() stay
  // exact, only the most recent kWallWindow wall samples are stored, and
  // the quantiles over them are exact — also after a query mid-run.
  constexpr uint64_t kCalls = 100'000;
  const uint64_t window = CallCostAcc::kWallWindow;
  auto wall = [](uint64_t i) { return (i * 2654435761ULL) % 1000003; };
  CallCostAcc acc;
  for (uint64_t i = 0; i < kCalls; ++i) {
    acc.add(/*fuel_used=*/i % 7, wall(i));
    if (i == kCalls / 2) {
      EXPECT_EQ(acc.wall_ns().count(), window);
    }
  }
  uint64_t fuel = 0;
  for (uint64_t i = 0; i < kCalls; ++i) fuel += i % 7;
  EXPECT_EQ(acc.calls(), kCalls);
  EXPECT_EQ(acc.total_fuel(), fuel);

  QuantileAcc expect;
  for (uint64_t i = kCalls - window; i < kCalls; ++i) {
    expect.add(static_cast<double>(wall(i)));
  }
  const QuantileAcc got = acc.wall_ns();
  ASSERT_EQ(got.count(), window);
  for (double q : {0.0, 0.5, 0.9, 0.99, 1.0}) {
    EXPECT_DOUBLE_EQ(got.quantile(q), expect.quantile(q)) << q;
  }
  EXPECT_DOUBLE_EQ(got.mean(), expect.mean());
}

TEST(RateMeter, WindowedRate) {
  RateMeter m(1.0);
  m.add(0.0, 1000);
  m.add(0.5, 1000);
  EXPECT_DOUBLE_EQ(m.rate_bps(0.5), 2000.0);
  // At t=1.4, the t=0 entry fell out of the window but t=0.5 remains.
  EXPECT_DOUBLE_EQ(m.rate_bps(1.4), 1000.0);
  // At t=3, everything expired.
  EXPECT_DOUBLE_EQ(m.rate_bps(3.0), 0.0);
  EXPECT_EQ(m.total_bits(), 2000u);
}

TEST(RateMeter, EmptyWindowReportsZero) {
  RateMeter m(1.0);
  EXPECT_DOUBLE_EQ(m.rate_bps(0.0), 0.0);
  EXPECT_DOUBLE_EQ(m.rate_bps(100.0), 0.0);
  EXPECT_EQ(m.total_bits(), 0u);
}

TEST(RateMeter, NonMonotoneAddClampsForward) {
  RateMeter m(1.0);
  m.add(1.0, 1000);
  // A regressed timestamp (clock skew) is clamped to the newest entry, so
  // the sample lands in the current window instead of corrupting eviction.
  m.add(0.2, 1000);
  EXPECT_DOUBLE_EQ(m.rate_bps(1.0), 2000.0);
  EXPECT_EQ(m.total_bits(), 2000u);
  // Both entries now sit at t=1.0 and expire together.
  EXPECT_DOUBLE_EQ(m.rate_bps(2.5), 0.0);
}

TEST(RateMeter, StaleQueryAnchorsToNewestEntry) {
  RateMeter m(1.0);
  m.add(0.0, 1000);
  m.add(2.0, 500);
  // Querying at a time before the newest arrival anchors the window to the
  // newest entry: the t=0 sample already expired, only the t=2 one counts.
  EXPECT_DOUBLE_EQ(m.rate_bps(0.5), 500.0);
}

TEST(RateMeter, RingWrapAndGrowthMatchBruteForceWindow) {
  // Steady arrivals wrap the ring; bursts at one timestamp then force it to
  // grow while wrapped. The windowed sum must equal a brute-force scan.
  RateMeter m(1.0);
  std::vector<std::pair<double, uint64_t>> all;
  double t = 0.0;
  for (int step = 0; step < 4000; ++step) {
    t += 0.01;
    const int arrivals = step % 997 == 500 ? 300 : 1;
    for (int a = 0; a < arrivals; ++a) {
      const uint64_t bits = 1000 + static_cast<uint64_t>(step * 7 + a) % 13;
      m.add(t, bits);
      all.emplace_back(t, bits);
    }
    uint64_t expected = 0;
    for (const auto& [at, b] : all) {
      if (!(at < t - 1.0)) expected += b;
    }
    ASSERT_EQ(m.rate_bps(t), static_cast<double>(expected)) << "step " << step;
  }
}

// The meter's contract evaluated directly: every sample is kept, zero-bit
// ones included; a regressed add and a stale query clamp to the newest kept
// sample; every add and query drops the samples that have left its window.
class ReferenceRateMeter {
 public:
  explicit ReferenceRateMeter(double window_s) : window_s_(window_s) {}

  void add(double t, uint64_t bits) {
    if (!kept_.empty() && t < kept_.back().first) t = kept_.back().first;
    kept_.emplace_back(t, bits);
    drop_before(t - window_s_);
  }

  double rate_bps(double t) {
    if (kept_.empty()) return 0.0;
    if (t < kept_.back().first) t = kept_.back().first;
    drop_before(t - window_s_);
    if (window_s_ <= 0) return 0.0;
    uint64_t bits = 0;
    for (const auto& [at, b] : kept_) bits += b;
    return static_cast<double>(bits) / window_s_;
  }

 private:
  void drop_before(double edge) {
    std::erase_if(kept_, [edge](const auto& e) { return e.first < edge; });
  }

  double window_s_;
  std::vector<std::pair<double, uint64_t>> kept_;
};

TEST(RateMeter, RandomizedOpsMatchReferenceModel) {
  // Mostly zero-bit samples (as an unscheduled UE adds every slot),
  // regressed adds, stale, current, near-future and far-future queries,
  // and reserve() calls, over windows of 1, 0.5 and 0 s: every answer must
  // equal the reference's exactly.
  for (const double window : {1.0, 0.5, 0.0}) {
    for (uint64_t seed = 1; seed <= 4; ++seed) {
      RateMeter m(window);
      ReferenceRateMeter ref(window);
      Xoshiro256 rng(seed * 7919 + static_cast<uint64_t>(window * 10));
      double t = 0.0;
      uint64_t total = 0;
      for (int op = 0; op < 20000; ++op) {
        const double u = rng.uniform();
        if (u < 0.55) {
          // A sample at the current slot, one slot ahead, or after a gap.
          const double v = rng.uniform();
          t += v < 0.4 ? 0.0 : v < 0.9 ? 0.001 * static_cast<double>(rng.range(1, 20))
                                       : rng.uniform() * 3.0 * (window + 0.1);
          const uint64_t bits =
              rng.uniform() < 0.6 ? 0 : static_cast<uint64_t>(rng.range(1, 1'000'000));
          m.add(t, bits);
          ref.add(t, bits);
          total += bits;
        } else if (u < 0.62) {
          // A regressed add (clock skew).
          const uint64_t bits =
              rng.uniform() < 0.5 ? 0 : static_cast<uint64_t>(rng.range(1, 1000));
          const double back = t - rng.uniform() * 2.0;
          m.add(back, bits);
          ref.add(back, bits);
          total += bits;
        } else if (u < 0.63) {
          m.reserve(static_cast<size_t>(rng.range(0, 3000)));
        } else {
          const double v = rng.uniform();
          const double q = v < 0.4   ? t
                           : v < 0.6 ? t - rng.uniform() * 2.0
                           : v < 0.9 ? t + rng.uniform() * 2.0 * (window + 0.1)
                                     : t + 100.0;
          ASSERT_EQ(m.rate_bps(q), ref.rate_bps(q))
              << "window " << window << " seed " << seed << " op " << op;
        }
      }
      EXPECT_EQ(m.total_bits(), total);
    }
  }
}

TEST(Log, PerComponentOverrides) {
  set_log_level(LogLevel::kWarn);
  EXPECT_FALSE(log_enabled(LogLevel::kDebug, "mac"));
  EXPECT_TRUE(log_enabled(LogLevel::kWarn, "mac"));

  set_log_level("mac", LogLevel::kDebug);
  EXPECT_TRUE(log_enabled(LogLevel::kDebug, "mac"));
  // Other components still follow the global level.
  EXPECT_FALSE(log_enabled(LogLevel::kDebug, "e2"));

  set_log_level("e2", LogLevel::kOff);
  EXPECT_FALSE(log_enabled(LogLevel::kError, "e2"));

  clear_log_level_overrides();
  EXPECT_FALSE(log_enabled(LogLevel::kDebug, "mac"));
  EXPECT_TRUE(log_enabled(LogLevel::kError, "e2"));
}

TEST(TrackedHeap, LeakAccounting) {
  TrackedHeap heap;
  auto h1 = heap.allocate(100);
  ASSERT_TRUE(h1.ok());
  auto h2 = heap.allocate(50);
  ASSERT_TRUE(h2.ok());
  EXPECT_EQ(heap.live_bytes(), 150u);
  EXPECT_TRUE(heap.free(*h1).ok());
  EXPECT_EQ(heap.live_bytes(), 50u);
  EXPECT_EQ(heap.live_allocations(), 1u);
}

TEST(TrackedHeap, DoubleFreeDetected) {
  TrackedHeap heap;
  auto h = heap.allocate(8);
  ASSERT_TRUE(h.ok());
  EXPECT_TRUE(heap.free(*h).ok());
  auto second = heap.free(*h);
  EXPECT_FALSE(second.ok());
  EXPECT_EQ(second.error().code, Error::Code::kState);
}

TEST(TrackedHeap, ZeroByteAllocationRejected) {
  TrackedHeap heap;
  EXPECT_FALSE(heap.allocate(0).ok());
}

TEST(Xoshiro, DeterministicForSeed) {
  Xoshiro256 a(123), b(123), c(124);
  EXPECT_EQ(a.next(), b.next());
  EXPECT_NE(a.next(), c.next());
}

TEST(Xoshiro, UniformInRange) {
  Xoshiro256 rng(7);
  for (int i = 0; i < 1000; ++i) {
    double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
    int64_t v = rng.range(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
  }
}

TEST(Xoshiro, NormalHasSaneMoments) {
  Xoshiro256 rng(42);
  double sum = 0, sq = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    double x = rng.normal();
    sum += x;
    sq += x * x;
  }
  double mean = sum / n;
  double var = sq / n - mean * mean;
  EXPECT_NEAR(mean, 0.0, 0.05);
  EXPECT_NEAR(var, 1.0, 0.1);
}

}  // namespace
}  // namespace waran
