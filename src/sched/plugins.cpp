#include "sched/plugins.h"

#include "wcc/compiler.h"

namespace waran::sched::plugins {
namespace {

// Memory map shared by the scheduler plugins (addresses inside the plugin's
// own linear memory — the host never sees them):
//   0       decoded request (wire format, see codec/wire.h)
//   100000  per-UE "served" flags for the greedy-drain loop
//   200000  response under construction
// The wire layout constants (header 12, UE stride 40, field offsets) must
// match codec::wire.

constexpr char kRrSource[] = R"W(
// Round-robin intra-slice scheduler: equal shares, remainder rotated by
// slot index so leftovers spread evenly over time.
export fn schedule() -> i32 {
  var nb: i32 = input_len();
  input_read(0, 0, nb);
  var slot: i32 = load32(0);
  var quota: i32 = load32(4);
  var n: i32 = load32(8);
  var out: i32 = 200000;
  var count: i32 = 0;
  if (n > 0 && quota > 0) {
    var share: i32 = quota / n;
    var extra: i32 = quota % n;
    var start: i32 = slot % n;
    var i: i32 = 0;
    while (i < n) {
      var idx: i32 = (start + i) % n;
      var rec: i32 = 12 + idx * 40;
      var prbs: i32 = share;
      if (i < extra) { prbs = prbs + 1; }
      if (prbs > 0) {
        store32(out + 4 + count * 8, load32(rec));
        store32(out + 4 + count * 8 + 4, prbs);
        count = count + 1;
      }
      i = i + 1;
    }
  }
  store32(out, count);
  output_write(out, 4 + count * 8);
  return 0;
}
)W";


// Deficit Round Robin — stateful across calls: the rnti -> deficit table
// lives at 240000 in this plugin's own linear memory and persists between
// scheduler invocations for the life of the instance. Mirrors
// sched::DrrScheduler's arithmetic operation-for-operation.
constexpr char kDrrSource[] = R"W(
fn prbs_to_drain(buffer: i32, tbs: i32) -> i32 {
  return i32((i64(buffer) * i64(8) + i64(tbs) - i64(1)) / i64(tbs));
}

// Deficit table: u32 count @240000; entries @240004, stride 16:
// { u32 rnti, u32 pad, f64 deficit }, capacity 64.
fn tab_count() -> i32 { return load32(240000); }
fn tab_rnti(k: i32) -> i32 { return load32(240004 + k * 16); }
fn tab_deficit(k: i32) -> f64 { return loadf64(240004 + k * 16 + 8); }
fn tab_set_deficit(k: i32, d: f64) { storef64(240004 + k * 16 + 8, d); }

fn tab_find(rnti: i32) -> i32 {
  var k: i32 = 0;
  while (k < tab_count()) {
    if (tab_rnti(k) == rnti) { return k; }
    k = k + 1;
  }
  return -1;
}

fn tab_find_or_add(rnti: i32) -> i32 {
  var k: i32 = tab_find(rnti);
  if (k >= 0) { return k; }
  var n: i32 = tab_count();
  if (n < 64) {
    store32(240000, n + 1);
    store32(240004 + n * 16, rnti);
    storef64(240004 + n * 16 + 8, 0.0);
    return n;
  }
  // Table full: evict the smallest deficit (first on ties).
  var victim: i32 = 0;
  k = 1;
  while (k < n) {
    if (tab_deficit(k) < tab_deficit(victim)) { victim = k; }
    k = k + 1;
  }
  store32(240004 + victim * 16, rnti);
  storef64(240004 + victim * 16 + 8, 0.0);
  return victim;
}

export fn schedule() -> i32 {
  var nb: i32 = input_len();
  input_read(0, 0, nb);
  var quota: i32 = load32(4);
  var n: i32 = load32(8);
  var out: i32 = 200000;
  var flags: i32 = 100000;   // 0 inactive, 1 active, 2 served

  var n_active: i32 = 0;
  var i: i32 = 0;
  while (i < n) {
    var rec: i32 = 12 + i * 40;
    if (load32(rec + 12) > 0 && load32(rec + 16) > 0) {
      store8(flags + i, 1);
      n_active = n_active + 1;
    } else {
      store8(flags + i, 0);
    }
    i = i + 1;
  }

  var count: i32 = 0;
  if (n_active > 0 && quota > 0) {
    // Credit accrual, capped at 4x the quota.
    var quantum: f64 = f64(quota) / f64(n_active);
    var cap: f64 = 4.0 * f64(quota);
    i = 0;
    while (i < n) {
      if (load8u(flags + i) == 1) {
        var k: i32 = tab_find_or_add(load32(12 + i * 40));
        var d: f64 = tab_deficit(k) + quantum;
        if (d > cap) { d = cap; }
        tab_set_deficit(k, d);
      }
      i = i + 1;
    }
    // Serve by accumulated credit, max first.
    var remaining: i32 = quota;
    while (remaining > 0) {
      var best: f64 = -1.0;
      var best_i: i32 = -1;
      i = 0;
      while (i < n) {
        if (load8u(flags + i) == 1) {
          var kk: i32 = tab_find(load32(12 + i * 40));
          var dd: f64 = 0.0;
          if (kk >= 0) { dd = tab_deficit(kk); }
          if (dd > best) { best = dd; best_i = i; }
        }
        i = i + 1;
      }
      if (best_i < 0) { break; }
      store8(flags + best_i, 2);
      var rec2: i32 = 12 + best_i * 40;
      var grant: i32 = i32(best);
      var need: i32 = prbs_to_drain(load32(rec2 + 12), load32(rec2 + 16));
      if (need < grant) { grant = need; }
      if (remaining < grant) { grant = remaining; }
      if (grant > 0) {
        store32(out + 4 + count * 8, load32(rec2));
        store32(out + 4 + count * 8 + 4, grant);
        count = count + 1;
        remaining = remaining - grant;
        var k2: i32 = tab_find(load32(rec2));
        tab_set_deficit(k2, tab_deficit(k2) - f64(grant));
      }
    }
  }
  store32(out, count);
  output_write(out, 4 + count * 8);
  return 0;
}
)W";

// Greedy buffer-drain skeleton: the `metric` function is the only
// difference between MT and PF (exactly like the native greedy_drain
// template).
constexpr char kDrainSkeleton[] = R"W(
// PRBs needed to drain `buffer` bytes at `tbs` bits per PRB (ceil division
// in 64-bit to avoid overflow on full RLC queues).
fn prbs_to_drain(buffer: i32, tbs: i32) -> i32 {
  return i32((i64(buffer) * i64(8) + i64(tbs) - i64(1)) / i64(tbs));
}

export fn schedule() -> i32 {
  var nb: i32 = input_len();
  input_read(0, 0, nb);
  var quota: i32 = load32(4);
  var n: i32 = load32(8);
  var out: i32 = 200000;
  var flags: i32 = 100000;
  var i: i32 = 0;
  while (i < n) { store8(flags + i, 0); i = i + 1; }

  var count: i32 = 0;
  var remaining: i32 = quota;
  while (remaining > 0) {
    var best: f64 = -1.0;
    var best_i: i32 = -1;
    i = 0;
    while (i < n) {
      if (load8u(flags + i) == 0) {
        var rec: i32 = 12 + i * 40;
        if (load32(rec + 12) > 0 && load32(rec + 16) > 0) {
          var m: f64 = metric(rec);
          if (m > best) { best = m; best_i = i; }
        }
      }
      i = i + 1;
    }
    if (best_i < 0) { break; }
    store8(flags + best_i, 1);
    var rec2: i32 = 12 + best_i * 40;
    var grant: i32 = prbs_to_drain(load32(rec2 + 12), load32(rec2 + 16));
    if (grant > remaining) { grant = remaining; }
    if (grant > 0) {
      store32(out + 4 + count * 8, load32(rec2));
      store32(out + 4 + count * 8 + 4, grant);
      count = count + 1;
      remaining = remaining - grant;
    }
  }
  store32(out, count);
  output_write(out, 4 + count * 8);
  return 0;
}
)W";

constexpr char kMtMetric[] = R"W(
// Maximum Throughput: schedule the best channel first.
fn metric(rec: i32) -> f64 {
  return f64(load32(rec + 16));   // tbs_per_prb
}
)W";

constexpr char kPfMetric[] = R"W(
// Proportional Fair: achievable rate over long-term average.
fn metric(rec: i32) -> f64 {
  var denom: f64 = loadf64(rec + 24);   // avg_tput_bps
  if (denom < 1000.0) { denom = 1000.0; }
  return loadf64(rec + 32) / denom;     // achievable_bps / avg
}
)W";

// --- §5D fault corpus. ---

constexpr char kOobSource[] = R"W(
// Reads far past the end of linear memory: the classic buffer overrun.
export fn schedule() -> i32 {
  return load32(999999999);
}
)W";

constexpr char kNullSource[] = R"W(
// Wild-pointer dereference: in wasm, a garbage C pointer becomes a huge
// linear-memory offset, caught by the bounds check.
export fn schedule() -> i32 {
  var p: i32 = -4;            // 0xFFFFFFFC as an unsigned address
  store32(p, 42);
  return 0;
}
)W";

constexpr char kLoopSource[] = R"W(
// Never terminates; the fuel meter cuts it off with a fuel-exhaustion fault.
export fn schedule() -> i32 {
  var x: i32 = 0;
  while (1) { x = x + 1; }
  return x;
}
)W";

constexpr char kDoubleFreeSource[] = R"W(
// Minimal allocator with free-state tracking: freeing twice is detected
// inside the sandbox and converted to a trap — the host survives.
global next: i32 = 4096;

fn alloc(size: i32) -> i32 {
  var p: i32 = next;
  next = next + size + 4;
  store32(p, 1);              // live flag
  return p + 4;
}

fn free_block(p: i32) {
  var h: i32 = p - 4;
  if (load32(h) == 0) { trap(); }   // double free
  store32(h, 0);
}

export fn schedule() -> i32 {
  var p: i32 = alloc(64);
  free_block(p);
  free_block(p);              // bug under test
  return 0;
}
)W";

constexpr char kLeakSource[] = R"W(
// Allocates on every call without freeing (the Fig. 5c leak): the bump
// pointer only ever advances, growing the sandbox memory until its cap.
global brk: i32 = 65536;

export fn schedule() -> i32 {
  var size: i32 = 65536;      // leak 64 KiB per scheduler invocation
  var limit: i32 = memory_size() * 65536;
  if (brk + size > limit) {
    memory_grow(1);
  }
  // Touch the page so the allocation is real.
  if (brk + size <= memory_size() * 65536) {
    store32(brk, 12345);
    brk = brk + size;
  }
  var out: i32 = 32;
  store32(out, 0);
  output_write(out, 4);
  return 0;
}
)W";

constexpr char kBadAllocSource[] = R"W(
// Malicious-but-well-formed response: grants to an RNTI outside the slice
// and a grant far beyond the quota. Exercises host-side sanitization.
export fn schedule() -> i32 {
  var out: i32 = 200000;
  store32(out, 2);
  store32(out + 4, 399999999);   // foreign RNTI
  store32(out + 8, 52);
  var nb: i32 = input_len();
  input_read(0, 0, nb);
  var n: i32 = load32(8);
  if (n > 0) {
    store32(out + 12, load32(12));  // first UE's rnti...
    store32(out + 16, 1000000);     // ...with an absurd grant
  } else {
    store32(out + 12, 7);
    store32(out + 16, 1000000);
  }
  output_write(out, 20);
  return 0;
}
)W";

constexpr char kShortOutputSource[] = R"W(
// Returns a truncated payload the host-side decoder must reject.
export fn schedule() -> i32 {
  store8(0, 9);
  output_write(0, 2);
  return 0;
}
)W";

Result<std::vector<uint8_t>> compile_source(const std::string& src) {
  return wcc::compile(src);
}

}  // namespace

std::string scheduler_source(const std::string& kind) {
  if (kind == "rr") return kRrSource;
  if (kind == "drr") return kDrrSource;
  if (kind == "mt") return std::string(kMtMetric) + kDrainSkeleton;
  if (kind == "pf") return std::string(kPfMetric) + kDrainSkeleton;
  return {};
}

Result<std::vector<uint8_t>> scheduler(const std::string& kind) {
  std::string src = scheduler_source(kind);
  if (src.empty()) {
    return Error::invalid_argument("unknown scheduler plugin kind: " + kind);
  }
  return compile_source(src);
}

Result<std::vector<uint8_t>> faulty(const std::string& kind) {
  const char* src = nullptr;
  if (kind == "oob") src = kOobSource;
  else if (kind == "null") src = kNullSource;
  else if (kind == "loop") src = kLoopSource;
  else if (kind == "doublefree") src = kDoubleFreeSource;
  else if (kind == "leak") src = kLeakSource;
  else if (kind == "badalloc") src = kBadAllocSource;
  else if (kind == "shortoutput") src = kShortOutputSource;
  if (src == nullptr) {
    return Error::invalid_argument("unknown faulty plugin kind: " + kind);
  }
  return compile_source(src);
}

}  // namespace waran::sched::plugins
