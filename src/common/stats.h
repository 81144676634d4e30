// Statistics helpers for the evaluation harness: an exact quantile
// accumulator (the paper reports 50th/99th percentile execution times via
// Boost Accumulators; we keep all samples and compute exact order statistics),
// a windowed rate meter (bit/s over a sliding window, as iperf3 reports) and
// the per-plugin call-cost ledger.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace waran {

/// Collects double samples and answers exact quantile queries.
class QuantileAcc {
 public:
  void add(double v) {
    samples_.push_back(v);
    sorted_ = false;
  }

  size_t count() const { return samples_.size(); }
  bool empty() const { return samples_.empty(); }

  /// q in [0,1]. Nearest-rank on the sorted samples: quantile(0.0) is the
  /// minimum, quantile(1.0) the maximum, and out-of-range q clamps to those
  /// endpoints. Returns 0 when empty.
  double quantile(double q) const;
  double min() const;
  double max() const;
  double mean() const;
  /// Sample standard deviation (n-1 denominator); 0 for fewer than 2 samples.
  double stddev() const;

  void clear() {
    samples_.clear();
    sorted_ = false;
  }

 private:
  mutable std::vector<double> samples_;
  mutable bool sorted_ = false;
  void ensure_sorted() const;
};

/// Sliding-window throughput meter: record (time, bits) arrivals, query the
/// average rate over the trailing window. Times are in seconds and expected
/// monotone; a timestamp older than the newest recorded sample is clamped
/// forward so the window never un-sorts (clock skew between reporting paths
/// must not corrupt eviction).
///
/// Only samples that carry bits are stored, so a meter fed a zero every
/// slot keeps just its deliveries. A zero-bit sample still counts as the
/// window's newest sample for the clamps, and the window is empty only
/// once every sample, zero-bit ones included, has left it: every answer is
/// the one a meter storing all samples gives. The samples live in a ring
/// that doubles when full; reserve() sizes it up front.
class RateMeter {
 public:
  explicit RateMeter(double window_s = 1.0) : window_s_(window_s) {}

  void add(double t, uint64_t bits);
  /// Average bit/s over [t - window, t]. Query times earlier than the newest
  /// recorded sample are clamped to it; an empty window reports 0.
  double rate_bps(double t) const;
  uint64_t total_bits() const { return total_bits_; }

  /// Room for `samples` stored samples without growing; never shrinks.
  void reserve(size_t samples);
  /// Samples the ring holds before it grows.
  size_t capacity() const { return ring_.size(); }

 private:
  struct Entry {
    double t;
    uint64_t bits;
  };
  double window_s_;
  // Samples with bits, oldest first from head_; the capacity is zero or a
  // power of two.
  mutable std::vector<Entry> ring_;
  mutable size_t head_ = 0;
  mutable size_t count_ = 0;
  mutable uint64_t window_bits_ = 0;
  // Time of the newest sample, zero-bit ones included, and whether any
  // sample is still inside the window.
  double newest_t_ = 0.0;
  mutable bool live_ = false;
  uint64_t total_bits_ = 0;
  Entry& at(size_t i) const { return ring_[(head_ + i) & (ring_.size() - 1)]; }
  void regrow(size_t capacity);
  void evict(double t) const;
};

/// Aggregates per-call cost records — fuel used and wall time — as reported
/// by the engine's CallStats. One accumulator per plugin slot gives the
/// evaluation harness the slot's exact call count and fuel total, and exact
/// p50/p99 execution times over its most recent kWallWindow calls. The
/// window is reserved once, at the slot's first call, so no later call
/// allocates and a slot's memory stays flat however long a deployment runs.
/// (Reserving it at construction would put every slot's window into each
/// deployment's set-up, which a slot that never runs does not need.)
class CallCostAcc {
 public:
  static constexpr size_t kWallWindow = 4096;

  void add(uint64_t fuel_used, uint64_t wall_ns) {
    const double v = static_cast<double>(wall_ns);
    if (wall_window_.size() < kWallWindow) {
      if (calls_ == 0) wall_window_.reserve(kWallWindow);
      wall_window_.push_back(v);
    } else {
      wall_window_[calls_ % kWallWindow] = v;  // overwrite the oldest sample
    }
    ++calls_;
    total_fuel_ += fuel_used;
  }

  uint64_t calls() const { return calls_; }
  uint64_t total_fuel() const { return total_fuel_; }
  /// Wall-time distribution in nanoseconds over the window: the most recent
  /// min(calls(), kWallWindow) calls, as exact order statistics.
  QuantileAcc wall_ns() const {
    QuantileAcc acc;
    for (double v : wall_window_) acc.add(v);
    return acc;
  }

 private:
  uint64_t calls_ = 0;
  uint64_t total_fuel_ = 0;
  std::vector<double> wall_window_;  // ring; the oldest sample is at calls_ % size
};

}  // namespace waran
