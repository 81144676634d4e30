// Global allocation probe: routes this binary's heap traffic through
// common/tracked_alloc's heap_probe counters by replacing the global
// operator new/delete, so a test or benchmark can assert that a measured
// region performed zero heap allocations (the engine's warm-call
// guarantee).
//
// Include this header from exactly ONE translation unit per binary — the
// replacement functions are ordinary (non-inline) definitions, as the
// standard requires for replaceable allocation functions. The header is
// deliberately gtest-free so benchmarks and tools can use it too.
//
// GCC flags the malloc-backed operator delete as a new/free mismatch; the
// pairing is consistent (operator new is malloc-backed too), so the
// warning is silenced around the definitions.
#pragma once

#include <cstdlib>
#include <new>

#include "common/tracked_alloc.h"

#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif

void* operator new(std::size_t n) {
  waran::heap_probe::note_alloc(n);
  void* p = std::malloc(n);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
void* operator new[](std::size_t n) {
  waran::heap_probe::note_alloc(n);
  void* p = std::malloc(n);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
void operator delete(void* p) noexcept {
  waran::heap_probe::note_free();
  std::free(p);
}
void operator delete(void* p, std::size_t) noexcept {
  waran::heap_probe::note_free();
  std::free(p);
}
void operator delete[](void* p) noexcept {
  waran::heap_probe::note_free();
  std::free(p);
}
void operator delete[](void* p, std::size_t) noexcept {
  waran::heap_probe::note_free();
  std::free(p);
}
// The nothrow forms too (std::stable_sort's temporary buffer uses them):
// left to a sanitizer runtime's own definitions, their blocks would be
// released by the free() above.
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  waran::heap_probe::note_alloc(n);
  return std::malloc(n);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  waran::heap_probe::note_alloc(n);
  return std::malloc(n);
}
void operator delete(void* p, const std::nothrow_t&) noexcept {
  waran::heap_probe::note_free();
  std::free(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  waran::heap_probe::note_free();
  std::free(p);
}

#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif
