// Vendor interoperability adapter (the paper's introduction example): two
// vendors implement "the same" CQI reporting interface with different bit
// widths. Instead of either vendor changing closed-source firmware, the
// System Integrator ships a Wasm shim that converts between them — and can
// hot-swap a corrected shim when the conversion rule changes.
//
// Run: ./build/examples/interop_adapter
#include <cstdio>
#include <cstring>

#include "plugin/manager.h"
#include "ric/plugin_sources.h"
#include "wcc/compiler.h"

using namespace waran;

namespace {

// "Vendor A" equipment emits packed reports: u32 n, then n x 3 bytes
// { u16 rnti, u8 cqi }. (Closed source: we can only observe its output.)
std::vector<uint8_t> vendor_a_report() {
  std::vector<uint8_t> out = {3, 0, 0, 0};
  struct {
    uint16_t rnti;
    uint8_t cqi;
  } ues[] = {{0x4601, 255}, {0x4602, 128}, {0x4603, 7}};
  for (auto& ue : ues) {
    out.push_back(ue.rnti & 0xff);
    out.push_back(ue.rnti >> 8);
    out.push_back(ue.cqi);
  }
  return out;
}

// "Vendor B" RIC parses u32 n, then n x 8 bytes { u32 rnti, u32 cqi12 }.
void vendor_b_parse(const std::vector<uint8_t>& bytes) {
  uint32_t n;
  std::memcpy(&n, bytes.data(), 4);
  std::printf("  vendor-B RIC accepted %u report(s):\n", n);
  for (uint32_t i = 0; i < n; ++i) {
    uint32_t rnti, cqi;
    std::memcpy(&rnti, bytes.data() + 4 + i * 8, 4);
    std::memcpy(&cqi, bytes.data() + 8 + i * 8, 4);
    std::printf("    rnti 0x%04x  cqi12 %4u\n", rnti, cqi);
  }
}

}  // namespace

int main() {
  std::printf("== Vendor A (8-bit CQI) -> SI shim plugin -> Vendor B (12-bit) ==\n");
  plugin::PluginManager mgr;
  auto shim = ric::plugin_sources::vendor_widen();
  if (!shim.ok() || !mgr.install("shim", *shim).ok()) {
    std::printf("failed to load shim\n");
    return 1;
  }

  std::vector<uint8_t> a = vendor_a_report();
  std::printf("vendor-A emitted %zu bytes (3-byte packed records)\n", a.size());
  std::vector<uint8_t> b;
  if (Status st = mgr.call("shim", "widen", a, b); !st.ok()) {
    std::printf("shim error: %s\n", st.error().message.c_str());
    return 1;
  }
  vendor_b_parse(b);

  std::printf("\n== Spec clarification: vendor B wants saturation, not shift ==\n");
  // The SI ships shim v2 without touching either vendor's code: values at
  // the 8-bit ceiling map to the 12-bit ceiling (4095), others scale.
  const char* kShimV2 = R"(
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
        var cqi: i32 = load8u(src + 2);
        var wide: i32 = (cqi * 4095) / 255;   // scale with saturation at top
        store32(out + 4 + i * 8, load16u(src));
        store32(out + 8 + i * 8, wide);
        i = i + 1;
      }
      output_write(out, 4 + n * 8);
      return 0;
    }
  )";
  auto v2 = wcc::compile(kShimV2);
  if (!v2.ok() || !mgr.swap("shim", *v2).ok()) {
    std::printf("failed to hot-swap shim v2\n");
    return 1;
  }
  if (!mgr.call("shim", "widen", a, b).ok()) return 1;
  vendor_b_parse(b);

  std::printf("\n== Malformed vendor traffic cannot cross the shim ==\n");
  std::vector<uint8_t> truncated = {100, 0, 0, 0, 1, 2};  // claims 100 records
  const bool accepted = mgr.call("shim", "widen", truncated, b).ok();
  std::printf("truncated report -> %s\n",
              accepted ? "UNEXPECTED OK" : "rejected inside the sandbox");
  std::printf("\nneither vendor recompiled anything; the SI owned the whole fix.\n");
  return 0;
}
