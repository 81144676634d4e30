#include "obs/trace.h"

#include <bit>
#include <cstring>

#include "rt/clock.h"

namespace waran::obs {

namespace {

// Per-thread: every cell worker maintains its own slot counter and ring
// binding; a thread with no ring bound records nothing.
thread_local uint64_t t_current_slot = 0;
thread_local TraceRing* t_current_ring = nullptr;

}  // namespace

const char* to_string(TraceCat cat) {
  switch (cat) {
    case TraceCat::kMac: return "mac";
    case TraceCat::kSlice: return "slice";
    case TraceCat::kPlugin: return "plugin";
    case TraceCat::kWasm: return "wasm";
    case TraceCat::kHost: return "host";
    case TraceCat::kE2: return "e2";
    case TraceCat::kTransport: return "transport";
    case TraceCat::kRic: return "ric";
    case TraceCat::kAgent: return "agent";
    case TraceCat::kAnomaly: return "anomaly";
    case TraceCat::kOther: return "other";
  }
  return "other";
}

uint64_t now_ns() { return rt::now_ns(); }

void set_current_slot(uint64_t slot) { t_current_slot = slot; }

uint64_t current_slot() { return t_current_slot; }

TraceRing* TraceRing::current() { return t_current_ring; }

void TraceRing::bind_current(TraceRing* ring) { t_current_ring = ring; }

void TraceRing::enable(size_t capacity) {
  if (capacity < 2) capacity = 2;
  capacity = std::bit_ceil(capacity);
  buf_.assign(capacity, TraceEvent{});
  mask_ = capacity - 1;
  head_.store(0, std::memory_order_relaxed);
  rt::Clock::global();  // pin the real-time epoch no later than the first event
  enabled_.store(true, std::memory_order_release);
}

void TraceRing::disable() { enabled_.store(false, std::memory_order_release); }

uint64_t TraceRing::dropped() const {
  uint64_t h = head_.load(std::memory_order_relaxed);
  return h > buf_.size() ? h - buf_.size() : 0;
}

void TraceRing::record(TraceCat cat, std::string_view name, uint64_t t_ns,
                       uint64_t dur_ns, uint32_t arg, char phase) {
  if (!enabled()) return;
  const uint64_t i = head_.fetch_add(1, std::memory_order_relaxed);
  TraceEvent& ev = buf_[i & mask_];
  ev.t_ns = t_ns;
  ev.dur_ns = dur_ns;
  ev.slot = current_slot();
  ev.arg = arg;
  ev.cat = static_cast<uint8_t>(cat);
  ev.phase = phase;
  const size_t n = name.size() < sizeof(ev.name) - 1 ? name.size() : sizeof(ev.name) - 1;
  std::memcpy(ev.name, name.data(), n);
  ev.name[n] = '\0';
}

uint64_t TraceRing::content_hash() const {
  uint64_t h = 0xcbf29ce484222325ULL;
  auto mix = [&h](const void* data, size_t n) {
    const unsigned char* p = static_cast<const unsigned char*>(data);
    for (size_t i = 0; i < n; ++i) {
      h ^= p[i];
      h *= 0x100000001b3ULL;
    }
  };
  for (const TraceEvent& ev : snapshot()) {
    mix(&ev.t_ns, sizeof(ev.t_ns));
    mix(&ev.dur_ns, sizeof(ev.dur_ns));
    mix(&ev.slot, sizeof(ev.slot));
    mix(&ev.arg, sizeof(ev.arg));
    mix(&ev.cat, sizeof(ev.cat));
    mix(&ev.phase, sizeof(ev.phase));
    mix(ev.name, std::strlen(ev.name));
  }
  return h;
}

std::vector<TraceEvent> TraceRing::snapshot() const {
  std::vector<TraceEvent> out;
  if (buf_.empty()) return out;
  const uint64_t h = head_.load(std::memory_order_relaxed);
  const uint64_t n = h < buf_.size() ? h : buf_.size();
  out.reserve(n);
  for (uint64_t i = h - n; i < h; ++i) out.push_back(buf_[i & mask_]);
  return out;
}

}  // namespace waran::obs
