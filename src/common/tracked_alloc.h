// Byte-accounting allocator used by the Fig. 5c memory-safety experiment.
// The paper measures gNB-host RSS while a leaky scheduler runs (a) inside a
// Wasm plugin (flat) and (b) natively on the host (linear growth). We cannot
// let a real leak run unbounded in-process, so the "native host" arm of the
// experiment routes its allocations through this tracker, which reports live
// bytes exactly as an RSS probe would see them.
#pragma once

#include <cstddef>
#include <cstdint>
#include <unordered_map>

#include "common/result.h"

namespace waran {

/// Models a process heap: allocate/free with double-free and invalid-free
/// detection, plus live-byte accounting. Not thread-safe (the gNB slot loop
/// is single-threaded, as in srsRAN's MAC scheduler context).
class TrackedHeap {
 public:
  /// Returns an opaque handle (never 0 on success).
  Result<uint64_t> allocate(size_t bytes);

  /// Frees a handle. Double free / unknown handle is a detected fault —
  /// this is exactly the class of bug the paper injects in §5D.
  Status free(uint64_t handle);

  size_t live_bytes() const { return live_bytes_; }
  size_t live_allocations() const { return blocks_.size(); }

  /// Drops everything, as process teardown would.
  void reset();

 private:
  std::unordered_map<uint64_t, size_t> blocks_;
  uint64_t next_handle_ = 1;
  size_t live_bytes_ = 0;
};

/// Process-wide *real*-heap probe for zero-allocation assertions (the
/// engine's warm-call guarantee). The counters only advance in binaries
/// whose main translation unit overrides the global operator new/delete to
/// call note_alloc/note_free — the engine bench and the ExecContext test do
/// this; everywhere else the probe reads zero. Counters are atomics so a
/// multi-threaded harness cannot corrupt them, but a zero-alloc assertion
/// is only meaningful over a single-threaded measured region.
namespace heap_probe {

void note_alloc(size_t bytes) noexcept;
void note_free() noexcept;
/// Number of operator-new calls observed so far.
uint64_t allocations() noexcept;
/// Total bytes requested from operator new so far.
uint64_t bytes() noexcept;

}  // namespace heap_probe

}  // namespace waran
