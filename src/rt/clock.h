// waran::rt clock — the stack's single time source.
//
// Every layer that used to read std::chrono::steady_clock::now() directly
// (obs trace/anomaly timestamps, engine call timing, MAC slot-budget
// accounting, bench timing) now goes through
// rt::Clock::global(). In real mode this is a thin wrapper over
// steady_clock against a process-fixed epoch — behavior is unchanged. In
// virtual mode the clock only moves when the driver advances it, so a whole
// campaign runs as fast as the CPU allows (no pacing, no clock syscalls in
// the hot loop) and two runs with the same seed read identical timestamps,
// making traces and metrics snapshots bit-reproducible.
//
// Threading: now_ns() is two relaxed atomic loads and advance_ns() one
// relaxed fetch_add. A barrier-stepped deployment (rt/deployment.h)
// advances the clock only while its cell workers are parked at the step
// barrier; the barrier's mutex handshake orders the store, so every read
// within one step observes the same virtual instant on every thread.
//
// The CI lint guard (scripts/check_clock_lint.sh) forbids raw
// *_clock::now() reads outside src/rt/ and src/common/ so this abstraction
// cannot silently erode.
#pragma once

#include <atomic>
#include <cstdint>

namespace waran::rt {

class Clock {
 public:
  static Clock& global();

  /// Monotonic nanoseconds since the process epoch (real mode) or the
  /// virtual origin (virtual mode).
  uint64_t now_ns() const {
    if (virtual_.load(std::memory_order_relaxed)) {
      return vnow_.load(std::memory_order_relaxed);
    }
    return real_ns();
  }

  bool is_virtual() const { return virtual_.load(std::memory_order_relaxed); }

  /// Wall-clock nanoseconds regardless of mode — for harnesses that must
  /// measure real elapsed time (e.g. the chaos tool's speedup report) while
  /// the rest of the stack runs on virtual time.
  uint64_t real_ns() const;

  /// Switches to virtual time starting at `start_ns`. Only the driver that
  /// owns the run should flip modes; layers just read.
  void enable_virtual(uint64_t start_ns = 0);
  void disable_virtual();

  /// Virtual mode only: moves time forward. A no-op worth avoiding in real
  /// mode (the value is ignored there).
  void advance_ns(uint64_t ns) { vnow_.fetch_add(ns, std::memory_order_relaxed); }

 private:
  std::atomic<bool> virtual_{false};
  std::atomic<uint64_t> vnow_{0};
};

/// Shorthand for Clock::global().now_ns().
inline uint64_t now_ns() { return Clock::global().now_ns(); }

/// RAII virtual-time scope: enables virtual mode at `start_ns`, restores
/// real mode on exit (unless an enclosing guard already made time virtual).
class VirtualClockGuard {
 public:
  explicit VirtualClockGuard(uint64_t start_ns = 0)
      : was_virtual_(Clock::global().is_virtual()) {
    Clock::global().enable_virtual(start_ns);
  }
  ~VirtualClockGuard() {
    if (!was_virtual_) Clock::global().disable_virtual();
  }
  VirtualClockGuard(const VirtualClockGuard&) = delete;
  VirtualClockGuard& operator=(const VirtualClockGuard&) = delete;

 private:
  bool was_virtual_;
};

}  // namespace waran::rt
