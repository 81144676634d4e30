#include "common/stats.h"

#include <algorithm>
#include <cmath>

namespace waran {

void QuantileAcc::ensure_sorted() const {
  if (!sorted_) {
    std::sort(samples_.begin(), samples_.end());
    sorted_ = true;
  }
}

double QuantileAcc::quantile(double q) const {
  if (samples_.empty()) return 0.0;
  ensure_sorted();
  if (q <= 0.0) return samples_.front();
  if (q >= 1.0) return samples_.back();
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(samples_.size())));
  if (rank == 0) rank = 1;
  return samples_[rank - 1];
}

double QuantileAcc::min() const {
  if (samples_.empty()) return 0.0;
  ensure_sorted();
  return samples_.front();
}

double QuantileAcc::max() const {
  if (samples_.empty()) return 0.0;
  ensure_sorted();
  return samples_.back();
}

double QuantileAcc::mean() const {
  if (samples_.empty()) return 0.0;
  double sum = 0;
  for (double v : samples_) sum += v;
  return sum / static_cast<double>(samples_.size());
}

double QuantileAcc::stddev() const {
  if (samples_.size() < 2) return 0.0;
  double m = mean();
  double acc = 0;
  for (double v : samples_) acc += (v - m) * (v - m);
  return std::sqrt(acc / static_cast<double>(samples_.size() - 1));
}

void RateMeter::add(double t, uint64_t bits) {
  // Clamp regressions forward: the ring must stay sorted by time or evict()
  // would drop the wrong end of the window.
  if (live_ && t < newest_t_) t = newest_t_;
  newest_t_ = t;
  live_ = true;
  if (bits > 0) {
    if (count_ == ring_.size()) regrow(std::max<size_t>(16, ring_.size() * 2));
    at(count_) = {t, bits};
    ++count_;
    window_bits_ += bits;
    total_bits_ += bits;
  }
  evict(t);
}

void RateMeter::reserve(size_t samples) {
  if (samples <= ring_.size()) return;
  size_t capacity = std::max<size_t>(16, ring_.size());
  while (capacity < samples) capacity *= 2;
  regrow(capacity);
}

void RateMeter::regrow(size_t capacity) {
  std::vector<Entry> grown(capacity);
  for (size_t i = 0; i < count_; ++i) grown[i] = at(i);
  ring_ = std::move(grown);
  head_ = 0;
}

void RateMeter::evict(double t) const {
  const double edge = t - window_s_;
  while (count_ > 0 && at(0).t < edge) {
    window_bits_ -= at(0).bits;
    head_ = (head_ + 1) & (ring_.size() - 1);
    --count_;
  }
  // The newest sample leaves last: once it is out, so is every sample.
  if (newest_t_ < edge) live_ = false;
}

double RateMeter::rate_bps(double t) const {
  if (!live_) return 0.0;
  // A stale query (earlier than the newest arrival) would count bits that
  // arrive "after" the window's right edge; anchor it to the newest sample.
  if (t < newest_t_) t = newest_t_;
  evict(t);
  if (window_s_ <= 0) return 0.0;
  return static_cast<double>(window_bits_) / window_s_;
}

}  // namespace waran
