// In-process duplex transport standing in for the paper's operator-chosen
// message bus (ZeroMQ / Kafka / SCTP — §4B lets each deployment pick).
// Two endpoints, each with a bounded inbound queue; supports deterministic
// fault injection through a composable pipeline of fault stages
// (corruption, drops, duplication, reorder-with-delay) to exercise the
// communication plugins' sanitization path (§3B: "no malicious packets ...
// can be injected into the host RIC").
//
// Each direction's queue is a fixed ring of kQueueCapacity frame buffers
// that are recycled, never freed: send copies the frame into the
// direction's staging buffer, which then swaps places with a ring slot,
// and receive swaps the queued buffer with the caller's previous one. A
// buffer handed back by a swap is grown to the frame it replaced, so a
// link with one frame in flight keeps cycling the same three buffers and
// allocates nothing after its first round trip at a given frame size. A
// send toward a full queue (an endpoint that stopped polling) drops the
// frame and counts it as overflowed, so a stalled peer cannot grow memory.
//
// Thread safety: every public member takes an internal mutex, so a Duplex
// may bridge a cell worker thread (GnbAgent side) and the coordinator
// thread (NearRtRic side) of a multi-cell deployment without external
// locking. Fault stages run under that lock and must not call back into
// the same Duplex.
#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <span>
#include <vector>

namespace waran::ric {

class Duplex {
 public:
  enum class Side : uint8_t { kA, kB };

  /// Frames one direction's queue holds before sends toward it overflow.
  static constexpr size_t kQueueCapacity = 64;

  /// What one fault stage decided for one in-flight frame.
  enum class FaultAction : uint8_t {
    kDeliver,    ///< pass unchanged to the next stage (or the inbound queue)
    kCorrupt,    ///< stage mutated the frame in place; keep going
    kDrop,       ///< discard; later stages never see the frame
    kDuplicate,  ///< deliver two copies (terminal)
    kReorder,    ///< hold back; release after `delay` later sends (terminal)
  };

  struct Fault {
    FaultAction action = FaultAction::kDeliver;
    /// kReorder only: how many subsequent sends toward the same destination
    /// must pass before the held frame is released behind them.
    uint32_t delay = 1;
  };

  /// One stage of the fault pipeline. Sees every frame in flight (mutable,
  /// so kCorrupt can flip bits) and the destination side. Stages run in
  /// installation order; kDeliver/kCorrupt continue to the next stage, the
  /// first terminal action (drop/duplicate/reorder) ends the pipeline.
  using FaultStage = std::function<Fault(std::vector<uint8_t>& frame, Side to)>;

  /// Sends a copy of `frame` from `from` toward the opposite endpoint.
  void send(Side from, std::span<const uint8_t> frame);

  /// Pops the next inbound frame at `side` into `frame`, whose previous
  /// buffer takes the frame's place in the queue. Returns false, leaving
  /// `frame` untouched, when nothing is queued.
  bool receive(Side side, std::vector<uint8_t>& frame);

  /// Frames queued toward `side` (at most kQueueCapacity).
  size_t pending(Side side) const;

  void add_fault_stage(FaultStage stage) {
    std::lock_guard<std::mutex> lock(mu_);
    stages_.push_back(std::move(stage));
  }
  void clear_fault_stages() {
    std::lock_guard<std::mutex> lock(mu_);
    stages_.clear();
  }

  /// Releases every frame still held for reordering into its destination
  /// queue (in hold order). Call when draining a scenario, so a reordered
  /// frame near the end of an episode is not silently lost.
  void flush_delayed();

  /// Frames held back for reordering right now (not yet released).
  size_t delayed_in_flight() const {
    std::lock_guard<std::mutex> lock(mu_);
    return to_a_.held.size() + to_b_.held.size();
  }

  uint64_t frames_sent() const { return read_counter(frames_sent_); }
  uint64_t frames_dropped() const { return read_counter(frames_dropped_); }
  uint64_t frames_corrupted() const { return read_counter(frames_corrupted_); }
  uint64_t frames_duplicated() const { return read_counter(frames_duplicated_); }
  uint64_t frames_reordered() const { return read_counter(frames_reordered_); }
  uint64_t frames_delivered() const { return read_counter(frames_delivered_); }
  /// Frames lost because their destination queue was full. Apart from
  /// frames_dropped(), which counts only the fault stages' drops:
  /// sent + duplicated == delivered + dropped + overflowed + held.
  uint64_t frames_overflowed() const { return read_counter(frames_overflowed_); }

 private:
  struct Held {
    std::vector<uint8_t> frame;
    uint32_t remaining;  // sends toward the same side left before release
  };
  /// One direction: the ring of queued frames and the buffer a frame is
  /// staged in while the fault stages see it.
  struct Queue {
    std::array<std::vector<uint8_t>, kQueueCapacity> ring;
    size_t head = 0;  // the oldest queued frame
    size_t count = 0;
    std::vector<uint8_t> staging;
    std::deque<Held> held;  // frames held back for reordering
  };

  // All require mu_ held by the caller.
  Queue& queue(Side to) { return to == Side::kA ? to_a_ : to_b_; }
  /// Swaps `frame` into the tail of `to`'s ring (it gets the slot's old
  /// buffer back), or counts an overflow when the ring is full.
  void enqueue(Side to, std::vector<uint8_t>& frame);
  void release_due(Side to);

  uint64_t read_counter(const uint64_t& counter) const {
    std::lock_guard<std::mutex> lock(mu_);
    return counter;
  }

  mutable std::mutex mu_;

  Queue to_a_;
  Queue to_b_;
  std::vector<FaultStage> stages_;
  uint64_t frames_sent_ = 0;
  uint64_t frames_dropped_ = 0;
  uint64_t frames_corrupted_ = 0;
  uint64_t frames_duplicated_ = 0;
  uint64_t frames_reordered_ = 0;
  uint64_t frames_delivered_ = 0;
  uint64_t frames_overflowed_ = 0;
};

}  // namespace waran::ric
