#include "common/tracked_alloc.h"

#include <atomic>

namespace waran {

namespace heap_probe {
namespace {
std::atomic<uint64_t> g_allocs{0};
std::atomic<uint64_t> g_bytes{0};
}  // namespace

void note_alloc(size_t bytes) noexcept {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  g_bytes.fetch_add(bytes, std::memory_order_relaxed);
}
void note_free() noexcept {}
uint64_t allocations() noexcept { return g_allocs.load(std::memory_order_relaxed); }
uint64_t bytes() noexcept { return g_bytes.load(std::memory_order_relaxed); }

}  // namespace heap_probe

Result<uint64_t> TrackedHeap::allocate(size_t bytes) {
  if (bytes == 0) return Error::invalid_argument("zero-byte allocation");
  uint64_t h = next_handle_++;
  blocks_.emplace(h, bytes);
  live_bytes_ += bytes;
  return h;
}

Status TrackedHeap::free(uint64_t handle) {
  auto it = blocks_.find(handle);
  if (it == blocks_.end()) {
    return Error::state("double free or invalid free of handle " + std::to_string(handle));
  }
  live_bytes_ -= it->second;
  blocks_.erase(it);
  return {};
}

void TrackedHeap::reset() {
  blocks_.clear();
  live_bytes_ = 0;
}

}  // namespace waran
