// waran::obs trace ring — slot-aligned span tracing for the whole stack.
//
// A lock-free, fixed-capacity ring of POD span events. Recording goes to
// the ring bound to the calling thread (bind_current), and nowhere when
// none is: a multi-cell deployment gives each cell its own ring and binds
// it per worker thread, so concurrent cells produce independent,
// deterministic per-cell streams that are merged at export.
// Layers record *complete* spans (begin timestamp + duration, Chrome phase
// 'X') through the RAII ObsSpan helper, or instant events (phase 'i') for
// anomalies. Every event carries the current MAC slot number
// (obs::set_current_slot, maintained by the slot loop), so a trace can be
// cut along slot boundaries — the unit the 5G deadline is defined over.
//
// Cost model: with no ring bound (the default) or the bound ring disabled,
// the only per-span work is a thread-local read and a branch or two — no
// clock read, no ring write, no heap allocation. bench/abl_obs asserts
// this on the metered dispatch loop. When enabled, recording is one
// fetch_add and a 56-byte store; the ring never allocates after enable()
// and wrap-around overwrites the oldest events (newest are always
// retained).
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace waran::obs {

/// Span/event categories, one per instrumented layer.
enum class TraceCat : uint8_t {
  kMac = 0,    ///< slot loop, inter-slice scheduling
  kSlice,      ///< per-slice intra scheduling (arg = slice id)
  kPlugin,     ///< PluginManager dispatch (sandbox crossing + codec)
  kWasm,       ///< Instance::call (interpreter execution)
  kHost,       ///< host-function trampolines (wasm -> host)
  kE2,         ///< E2-lite encode/decode
  kTransport,  ///< Duplex frame send/receive
  kRic,        ///< near-RT RIC dispatch
  kAgent,      ///< gNB agent indication/poll
  kAnomaly,    ///< trap/fuel journal entries
  kOther,
};

const char* to_string(TraceCat cat);

/// One ring entry. POD, fixed size, no ownership: `name` is a truncated
/// copy so callers may pass transient strings.
struct TraceEvent {
  uint64_t t_ns = 0;    ///< begin time, monotonic ns since process trace epoch
  uint64_t dur_ns = 0;  ///< span duration; 0 for instant events
  uint64_t slot = 0;    ///< MAC slot current at record time
  uint32_t arg = 0;     ///< category-specific (slice id, byte count, ...)
  uint8_t cat = 0;      ///< TraceCat
  char phase = 'X';     ///< Chrome trace_event phase: 'X' complete, 'i' instant
  char name[26] = {};   ///< NUL-terminated, truncated to 25 chars
};
static_assert(sizeof(TraceEvent) == 56, "keep ring entries compact");

/// Monotonic timestamp for trace events (ns since a fixed process epoch, or
/// virtual time when rt::Clock runs in virtual mode — see rt/clock.h).
uint64_t now_ns();

/// Slot alignment: the slot loop publishes the slot number it is executing;
/// every subsequent event on that thread records it. Thread-local, because
/// a multi-cell deployment runs one slot loop per worker thread and the
/// cells' slot counters are independent.
void set_current_slot(uint64_t slot);
uint64_t current_slot();

class TraceRing {
 public:
  /// Rings are plain objects; arm one with enable() and bind it to the
  /// recording thread with bind_current().
  TraceRing() = default;

  /// The calling thread's bound ring, or null when none is bound. All
  /// span/instant recording goes through this, so a multi-cell deployment
  /// gets one deterministic event stream per cell instead of a
  /// nondeterministic interleaving in a shared ring.
  static TraceRing* current();
  /// Binds `ring` as this thread's recording target (nullptr unbinds, and
  /// the thread records nothing). The deployment brackets every cell task
  /// with this.
  static void bind_current(TraceRing* ring);

  /// Arms the ring with `capacity` entries (rounded up to a power of two).
  /// Allocates once, here — never on the record path.
  void enable(size_t capacity = 1 << 16);
  void disable();
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Total events recorded since enable() (monotone; does not decrease on
  /// wrap). abl_obs asserts this stays flat across the disabled hot loop.
  uint64_t writes() const { return head_.load(std::memory_order_relaxed); }
  /// Events lost to wrap-around so far.
  uint64_t dropped() const;
  size_t capacity() const { return buf_.size(); }

  /// Records one event. No-op when disabled. Lock-free: slot reservation is
  /// a single fetch_add; concurrent writers never block each other.
  void record(TraceCat cat, std::string_view name, uint64_t t_ns, uint64_t dur_ns,
              uint32_t arg = 0, char phase = 'X');

  /// Convenience: instant event stamped now.
  void instant(TraceCat cat, std::string_view name, uint32_t arg = 0) {
    if (!enabled()) return;
    record(cat, name, now_ns(), 0, arg, 'i');
  }

  /// FNV-1a over the retained events (oldest first), covering every field.
  /// Under virtual time this is a deterministic fingerprint of the ring.
  uint64_t content_hash() const;

  /// Retained events, oldest first. Not synchronized with concurrent
  /// writers (snapshot from the thread that drives the scenario, or after
  /// quiescence). export_merged_chrome_trace (obs/fleet.h) writes one or
  /// more rings as Chrome trace JSON.
  std::vector<TraceEvent> snapshot() const;

  /// Drops all retained events (capacity and enabled state kept).
  void clear() { head_.store(0, std::memory_order_relaxed); }

 private:
  std::vector<TraceEvent> buf_;
  size_t mask_ = 0;
  std::atomic<uint64_t> head_{0};
  std::atomic<bool> enabled_{false};
};

/// RAII complete-span recorder. Construction with no enabled ring bound
/// costs a thread-local read and a branch or two; nothing else happens
/// until destruction, which is again a single branch. `name` must outlive
/// the span (all call sites pass literals or strings owned by the
/// instrumented object).
class ObsSpan {
 public:
  ObsSpan(TraceCat cat, std::string_view name, uint32_t arg = 0) {
    TraceRing* ring = TraceRing::current();
    if (ring != nullptr && ring->enabled()) {
      ring_ = ring;
      cat_ = cat;
      name_ = name;
      arg_ = arg;
      t0_ = now_ns();
    }
  }
  ~ObsSpan() {
    if (ring_ != nullptr) {
      ring_->record(cat_, name_, t0_, now_ns() - t0_, arg_, 'X');
    }
  }
  ObsSpan(const ObsSpan&) = delete;
  ObsSpan& operator=(const ObsSpan&) = delete;

 private:
  TraceRing* ring_ = nullptr;  // non-null iff armed
  TraceCat cat_ = TraceCat::kOther;
  std::string_view name_;
  uint32_t arg_ = 0;
  uint64_t t0_ = 0;
};

}  // namespace waran::obs
