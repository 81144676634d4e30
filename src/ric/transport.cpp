#include "ric/transport.h"

#include "obs/metrics.h"
#include "obs/trace.h"

namespace waran::ric {

namespace {

struct TransportMetrics {
  obs::Counter& frames =
      obs::MetricsRegistry::global().counter("waran_transport_frames_total");
  obs::Counter& bytes =
      obs::MetricsRegistry::global().counter("waran_transport_bytes_total");
  obs::Counter& drops =
      obs::MetricsRegistry::global().counter("waran_transport_drops_total");
  obs::Counter& corrupted =
      obs::MetricsRegistry::global().counter("waran_transport_corrupted_total");
  obs::Counter& duplicated =
      obs::MetricsRegistry::global().counter("waran_transport_duplicated_total");
  obs::Counter& reordered =
      obs::MetricsRegistry::global().counter("waran_transport_reordered_total");
  obs::Counter& delivered =
      obs::MetricsRegistry::global().counter("waran_transport_delivered_total");
  obs::Counter& overflow =
      obs::MetricsRegistry::global().counter("waran_transport_overflow_total");
  static TransportMetrics& get() {
    static TransportMetrics m;
    return m;
  }
};

}  // namespace

void Duplex::enqueue(Side to, std::vector<uint8_t>& frame) {
  Queue& q = queue(to);
  if (q.count == kQueueCapacity) {
    ++frames_overflowed_;
    TransportMetrics::get().overflow.add();
    return;
  }
  ++frames_delivered_;
  TransportMetrics::get().delivered.add();
  std::vector<uint8_t>& slot = q.ring[(q.head + q.count) % kQueueCapacity];
  std::swap(slot, frame);
  // The buffer handed back is sized for a frame like this one, so every
  // buffer a link cycles reaches the frame size in its first round trip.
  frame.reserve(slot.size());
  ++q.count;
}

void Duplex::release_due(Side to) {
  std::deque<Held>& held = queue(to).held;
  while (!held.empty() && held.front().remaining == 0) {
    enqueue(to, held.front().frame);
    held.pop_front();
  }
}

void Duplex::send(Side from, std::span<const uint8_t> frame) {
  obs::ObsSpan span(obs::TraceCat::kTransport, "send",
                    static_cast<uint32_t>(frame.size()));
  std::lock_guard<std::mutex> lock(mu_);
  const Side to = from == Side::kA ? Side::kB : Side::kA;
  ++frames_sent_;
  TransportMetrics::get().frames.add();
  TransportMetrics::get().bytes.add(frame.size());

  // Every send toward `to` ages the frames held back for that side, so a
  // reordered frame overtakes exactly `delay` successors, then lands.
  Queue& q = queue(to);
  for (Held& h : q.held) {
    if (h.remaining > 0) --h.remaining;
  }

  std::vector<uint8_t>& staged = q.staging;
  staged.assign(frame.begin(), frame.end());
  Fault fault;  // kDeliver
  for (const FaultStage& stage : stages_) {
    if (!stage) continue;
    fault = stage(staged, to);
    if (fault.action == FaultAction::kCorrupt) {
      ++frames_corrupted_;
      TransportMetrics::get().corrupted.add();
      continue;  // corrupted frames still travel; later stages may act too
    }
    if (fault.action != FaultAction::kDeliver) break;  // terminal
  }

  switch (fault.action) {
    case FaultAction::kDrop:
      ++frames_dropped_;
      TransportMetrics::get().drops.add();
      break;
    case FaultAction::kDuplicate: {
      ++frames_duplicated_;
      TransportMetrics::get().duplicated.add();
      std::vector<uint8_t> copy = staged;
      enqueue(to, copy);
      enqueue(to, staged);
      break;
    }
    case FaultAction::kReorder:
      ++frames_reordered_;
      TransportMetrics::get().reordered.add();
      q.held.push_back(Held{std::move(staged), fault.delay == 0 ? 1 : fault.delay});
      break;
    case FaultAction::kDeliver:
    case FaultAction::kCorrupt:
      enqueue(to, staged);
      break;
  }
  release_due(to);
}

bool Duplex::receive(Side side, std::vector<uint8_t>& frame) {
  std::lock_guard<std::mutex> lock(mu_);
  Queue& q = queue(side);
  if (q.count == 0) return false;
  std::swap(q.ring[q.head], frame);
  q.ring[q.head].reserve(frame.size());  // as in enqueue
  q.head = (q.head + 1) % kQueueCapacity;
  // Drained: restart at slot 0, so a link with one frame in flight cycles
  // one ring buffer instead of walking all of them.
  if (--q.count == 0) q.head = 0;
  return true;
}

size_t Duplex::pending(Side side) const {
  std::lock_guard<std::mutex> lock(mu_);
  return side == Side::kA ? to_a_.count : to_b_.count;
}

void Duplex::flush_delayed() {
  std::lock_guard<std::mutex> lock(mu_);
  for (Side to : {Side::kA, Side::kB}) {
    std::deque<Held>& held = queue(to).held;
    while (!held.empty()) {
      enqueue(to, held.front().frame);
      held.pop_front();
    }
  }
}

}  // namespace waran::ric
