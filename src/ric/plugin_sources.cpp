#include "ric/plugin_sources.h"

#include "wcc/compiler.h"

namespace waran::ric::plugin_sources {
namespace {

// Frame layout produced by `frame` and required by `unframe`:
//   0  u32 magic (0xE2A0B1C2)
//   4  u32 payload length
//   8  payload bytes
//   .. u32 checksum = sum of payload bytes (mod 2^32)
// `unframe` returns nonzero (rejecting the frame) on any mismatch — the
// sandbox sanitizes the wire before the host parses anything.
//
// `checksum` computes that byte sum eight bytes per step (SWAR: SIMD within
// a register). Each 64-bit word x adds its even bytes, x & M, and its odd
// bytes, (x >>> 8) & M with M = 0x00ff00ff00ff00ff, into the four 16-bit
// lanes of `lanes`. A lane gains at most 2 * 255 per word, so after the 128
// words (1,024 bytes) of one block it holds at most 65,280 < 2^16 and has
// never carried into its neighbour. The lanes then fold into `sum` through
// two 32-bit halves, and the len % 8 tail is added one byte at a time.
constexpr char kCommFramingSource[] = R"W(
fn checksum(ptr: i32, len: i32) -> i32 {
  var m: i64 = i64(71777214294589695);        // 0x00ff00ff00ff00ff
  var halves: i64 = i64(281470681808895);     // 0x0000ffff0000ffff
  var sum: i32 = 0;
  var p: i32 = ptr;
  var words_end: i32 = ptr + (len & -8);
  while (p < words_end) {
    var block_end: i32 = p + 1024;            // 128 words
    if (block_end > words_end) { block_end = words_end; }
    var lanes: i64 = i64(0);
    while (p < block_end) {
      var x: i64 = load64(p);
      lanes = lanes + (x & m) + ((x >>> i64(8)) & m);
      p = p + 8;
    }
    var pairs: i64 = (lanes & halves) + ((lanes >>> i64(16)) & halves);
    sum = sum + i32(pairs) + i32(pairs >>> i64(32));
  }
  var end: i32 = ptr + len;
  while (p < end) {
    sum = sum + load8u(p);
    p = p + 1;
  }
  return sum;
}

export fn frame() -> i32 {
  var len: i32 = input_len();
  input_read(8, 0, len);          // payload lands at offset 8
  store32(0, -492785214);         // 0xE2A0B1C2 as signed i32
  store32(4, len);
  store32(8 + len, checksum(8, len));
  output_write(0, 8 + len + 4);
  return 0;
}

export fn unframe() -> i32 {
  var total: i32 = input_len();
  if (total < 12) { return 1; }
  input_read(0, 0, total);
  if (load32(0) != -492785214) { return 1; }
  var len: i32 = load32(4);
  if (len < 0 || len + 12 != total) { return 1; }
  if (load32(8 + len) != checksum(8, len)) { return 1; }
  output_write(8, len);
  return 0;
}
)W";

// Control payload layout (see ric/e2lite.h): u32 msg_type(2), u32 n,
// records { u32 type, u32 a, u32 b }.
constexpr char kControlDispatchSource[] = R"W(
extern fn ran_set_quota(slice: i32, prbs: i32);
extern fn ran_set_cqi_table(index: i32);
extern fn ran_handover(rnti: i32, target_cell: i32);

export fn apply_control() -> i32 {
  var nb: i32 = input_len();
  input_read(0, 0, nb);
  if (nb < 8) { return 1; }
  if (load32(0) != 2) { return 1; }    // not a control message
  var n: i32 = load32(4);
  if (8 + n * 12 > nb) { return 1; }
  var applied: i32 = 0;
  var i: i32 = 0;
  while (i < n) {
    var rec: i32 = 8 + i * 12;
    var kind: i32 = load32(rec);
    if (kind == 1) {
      ran_set_quota(load32(rec + 4), load32(rec + 8));
      applied = applied + 1;
    } else if (kind == 2) {
      ran_set_cqi_table(load32(rec + 4));
      applied = applied + 1;
    } else if (kind == 3) {
      ran_handover(load32(rec + 4), load32(rec + 8));
      applied = applied + 1;
    }
    i = i + 1;
  }
  store32(200000, applied);
  output_write(200000, 4);
  return 0;
}
)W";

// v2 control plugin: same wire format, one more action — set_report_period
// (type 4). Vendors running v1 skip the unknown type silently; enabling the
// feature fleet-wide is a plugin hot-swap (paper §4B: "new features can be
// introduced by developing lightweight plugins").
constexpr char kControlDispatchV2Source[] = R"W(
extern fn ran_set_quota(slice: i32, prbs: i32);
extern fn ran_set_cqi_table(index: i32);
extern fn ran_handover(rnti: i32, target_cell: i32);
extern fn ran_set_report_period(slots: i32);

export fn apply_control() -> i32 {
  var nb: i32 = input_len();
  input_read(0, 0, nb);
  if (nb < 8) { return 1; }
  if (load32(0) != 2) { return 1; }
  var n: i32 = load32(4);
  if (8 + n * 12 > nb) { return 1; }
  var applied: i32 = 0;
  var i: i32 = 0;
  while (i < n) {
    var rec: i32 = 8 + i * 12;
    var kind: i32 = load32(rec);
    if (kind == 1) {
      ran_set_quota(load32(rec + 4), load32(rec + 8));
      applied = applied + 1;
    } else if (kind == 2) {
      ran_set_cqi_table(load32(rec + 4));
      applied = applied + 1;
    } else if (kind == 3) {
      ran_handover(load32(rec + 4), load32(rec + 8));
      applied = applied + 1;
    } else if (kind == 4) {
      ran_set_report_period(load32(rec + 4));
      applied = applied + 1;
    }
    i = i + 1;
  }
  store32(200000, applied);
  output_write(200000, 4);
  return 0;
}
)W";

// Vendor interop shim (the paper's 8-bit -> 12-bit example): vendor A packs
// CQI reports as  u32 n, then n x 3 bytes { u16 rnti, u8 cqi8 } ; vendor B
// wants u32 n, then n x 8 bytes { u32 rnti, u32 cqi12 } with the CQI
// left-shifted into a 12-bit scale.
constexpr char kVendorWidenSource[] = R"W(
export fn widen() -> i32 {
  var nb: i32 = input_len();
  input_read(0, 0, nb);
  if (nb < 4) { return 1; }
  var n: i32 = load32(0);
  if (4 + n * 3 > nb) { return 1; }
  var out: i32 = 200000;
  store32(out, n);
  var i: i32 = 0;
  while (i < n) {
    var src: i32 = 4 + i * 3;
    var dst: i32 = out + 4 + i * 8;
    store32(dst, load16u(src));
    store32(dst + 4, load8u(src + 2) * 16);   // 8-bit value on a 12-bit scale
    i = i + 1;
  }
  output_write(out, 4 + n * 8);
  return 0;
}
)W";

// Slice SLA assurance xApp: reads the indication's slice section and emits
// quota corrections toward each slice's target rate. The carrier width it
// assumes (52 PRBs) is a plugin constant — updating it is a plugin push,
// not a RIC release (the WA-RAN flexibility claim).
constexpr char kSlaXappSource[] = R"W(
global max_prbs: i32 = 52;

export fn on_indication() -> i32 {
  var nb: i32 = input_len();
  input_read(0, 0, nb);
  if (nb < 8 || load32(0) != 1) { return 1; }
  var n_slices: i32 = load32(4);
  if (8 + n_slices * 24 > nb) { return 1; }

  var out: i32 = 200000;
  store32(out, 2);        // msg_type control
  var count: i32 = 0;
  var i: i32 = 0;
  while (i < n_slices) {
    var rec: i32 = 8 + i * 24;
    var slice: i32 = load32(rec);
    var quota: i32 = load32(rec + 4);
    var target: f64 = loadf64(rec + 8);
    var rate: f64 = loadf64(rec + 16);
    var want: i32 = quota;
    if (target > 0.0) {
      if (rate < target * 0.92) {
        want = quota + 1;
        if (want > max_prbs) { want = max_prbs; }
      } else if (rate > target * 1.08 && quota > 2) {
        want = quota - 1;
      }
    }
    if (want != quota) {
      var a: i32 = out + 8 + count * 12;
      store32(a, 1);               // set_slice_quota
      store32(a + 4, slice);
      store32(a + 8, want);
      count = count + 1;
    }
    i = i + 1;
  }
  store32(out + 4, count);
  output_write(out, 8 + count * 12);
  return 0;
}
)W";

// Traffic-steering xApp: A3-style event — hand a UE over when the neighbor
// cell is `hysteresis_db` stronger than the serving cell.
constexpr char kSteerXappSource[] = R"W(
global hysteresis_db: i32 = 3;

export fn on_indication() -> i32 {
  var nb: i32 = input_len();
  input_read(0, 0, nb);
  if (nb < 8 || load32(0) != 1) { return 1; }
  var n_slices: i32 = load32(4);
  var ue_base: i32 = 8 + n_slices * 24;
  if (ue_base + 4 > nb) { return 1; }
  var n_ues: i32 = load32(ue_base);
  if (ue_base + 4 + n_ues * 24 > nb) { return 1; }

  var out: i32 = 200000;
  store32(out, 2);
  var count: i32 = 0;
  var i: i32 = 0;
  while (i < n_ues) {
    var rec: i32 = ue_base + 4 + i * 24;
    var rsrp_s: i32 = load32(rec + 8);
    var rsrp_n: i32 = load32(rec + 12);
    if (rsrp_n > rsrp_s + hysteresis_db) {
      var a: i32 = out + 8 + count * 12;
      store32(a, 3);               // handover
      store32(a + 4, load32(rec));       // rnti
      store32(a + 8, load32(rec + 20));  // neighbor cell
      count = count + 1;
    }
    i = i + 1;
  }
  store32(out + 4, count);
  output_write(out, 8 + count * 12);
  return 0;
}
)W";

// Messaging demo: forwards each indication as a one-byte note to xApp 0 via
// the RIC host's xapp_send, and counts notes it receives itself.
constexpr char kCounterXappSource[] = R"W(
extern fn xapp_send(dst: i32, ptr: i32, len: i32);

global received: i32 = 0;

export fn on_indication() -> i32 {
  store8(0, 42);
  xapp_send(0, 0, 1);
  store32(100, 2);     // empty control message
  store32(104, 0);
  output_write(100, 8);
  return 0;
}

export fn on_message() -> i32 {
  received = received + input_len();
  store32(100, received);
  output_write(100, 4);
  return 0;
}
)W";

}  // namespace

Result<std::vector<uint8_t>> comm_framing() { return wcc::compile(kCommFramingSource); }
Result<std::vector<uint8_t>> control_dispatch() { return wcc::compile(kControlDispatchSource); }
Result<std::vector<uint8_t>> control_dispatch_v2() {
  return wcc::compile(kControlDispatchV2Source);
}
Result<std::vector<uint8_t>> vendor_widen() { return wcc::compile(kVendorWidenSource); }
Result<std::vector<uint8_t>> sla_xapp() { return wcc::compile(kSlaXappSource); }
Result<std::vector<uint8_t>> steer_xapp() { return wcc::compile(kSteerXappSource); }
Result<std::vector<uint8_t>> counter_xapp() { return wcc::compile(kCounterXappSource); }

}  // namespace waran::ric::plugin_sources
