#include "wasm/memory.h"

#include <algorithm>

namespace waran::wasm {

Result<Memory> Memory::create(const Limits& limits) {
  uint32_t max_pages = std::min(limits.max.value_or(kMaxMemoryPages), kMaxMemoryPages);
  if (limits.min > max_pages) return Error::limit_exceeded("memory min exceeds cap");
  std::vector<uint8_t> bytes(static_cast<size_t>(limits.min) * kPageSize, 0);
  return Memory(std::move(bytes), max_pages);
}

uint32_t Memory::grow(uint32_t delta_pages) {
  uint32_t old_pages = pages();
  uint64_t new_pages = static_cast<uint64_t>(old_pages) + delta_pages;
  if (new_pages > max_pages_) return static_cast<uint32_t>(-1);
  if (delta_pages > 0 && deny_grow_after_.has_value()) {
    if (*deny_grow_after_ == 0) {
      ++denied_grows_;
      return static_cast<uint32_t>(-1);
    }
    --*deny_grow_after_;
  }
  bytes_.resize(static_cast<size_t>(new_pages) * kPageSize, 0);
  return old_pages;
}

Error Memory::oob_error(uint64_t addr, uint64_t len) {
  return Error::trap("out-of-bounds memory access at " + std::to_string(addr) +
                     " len " + std::to_string(len));
}

Status Memory::read_bytes(uint64_t addr, std::span<uint8_t> out) const {
  if (!in_bounds(addr, out.size())) return oob_error(addr, out.size());
  if (out.empty()) return {};  // an empty span's data() may be null
  std::memcpy(out.data(), bytes_.data() + addr, out.size());
  return {};
}

Status Memory::write_bytes(uint64_t addr, std::span<const uint8_t> in) {
  if (!in_bounds(addr, in.size())) return oob_error(addr, in.size());
  if (in.empty()) return {};
  std::memcpy(bytes_.data() + addr, in.data(), in.size());
  return {};
}

Status Memory::copy(uint64_t dst, uint64_t src, uint64_t len) {
  if (!in_bounds(dst, len) || !in_bounds(src, len)) return oob_error(std::max(dst, src), len);
  if (len > 0) std::memmove(bytes_.data() + dst, bytes_.data() + src, len);
  return {};
}

Status Memory::fill(uint64_t dst, uint8_t value, uint64_t len) {
  if (!in_bounds(dst, len)) return oob_error(dst, len);
  if (len > 0) std::memset(bytes_.data() + dst, value, len);
  return {};
}

}  // namespace waran::wasm
