// E2-lite: the message model between the gNB (E2 node) and the near-RT RIC
// in WA-RAN's Fig. 4 design. Deliberately *not* the 3GPP/O-RAN E2AP — the
// paper's whole point is that the wire protocol is an implementation detail
// wrapped by communication plugins, so WA-RAN defines a minimal report /
// control schema and lets plugins own framing, encoding and transport.
//
// Flat payload layout (little endian), shared with the W plugin sources in
// comm_plugins.cpp / xapps.cpp:
//
// Indication (msg_type 1):
//   0  u32 msg_type
//   4  u32 n_slices
//   8  slice records, 24 B: { u32 slice_id, u32 quota_prbs,
//                             f64 target_bps, f64 rate_bps }
//   .. u32 n_ues
//   .. UE records, 24 B: { u32 rnti, u32 serving_cell, i32 rsrp_serving_dbm,
//                          i32 rsrp_neighbor_dbm, u32 cqi, u32 neighbor_cell }
//   .. optional telemetry block (the fleet plane's per-cell summary riding
//      in-band — see obs/fleet.h):
//        u32 tag 'TEL2' (0x324c4554), u32 len (of the body that follows),
//        { u32 gnb, u32 cell, u32 cells_merged, 17 x u64 counters,
//          2 x histogram { u8 width, u64 count, u64 sum,
//                          65 buckets of `width` bytes } }
//      A histogram's width is 4 while its count and every bucket are below
//      2^32, and 8 after that: it follows sample counts, never durations,
//      so equal counts give equal lengths on the real clock and on virtual
//      time. The body is 702 bytes with both widths 4, 1,222 with both 8.
//      The W xApps bound their reads by n_slices/n_ues and skip the tail
//      untouched; the host decoder round-trips it exactly. A message may
//      end after the UE records; anything else after them (another tag, a
//      width other than 4 or 8, a len that disagrees with the widths or
//      with the bytes left) is a decode error.
//
// Control (msg_type 2):
//   0  u32 msg_type
//   4  u32 n_actions
//   8  action records, 12 B: { u32 type, u32 a, u32 b }
//      type 1 = set_slice_quota(slice_id=a, prbs=b)
//      type 2 = set_cqi_table(index=a)
//      type 3 = handover(rnti=a, target_cell=b)
//      type 4 = set_report_period(slots=a)   [v2 extension: older control
//               plugins skip it silently — the WA-RAN upgrade story]
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "common/result.h"
#include "obs/fleet.h"

namespace waran::ric {

inline constexpr uint32_t kMsgIndication = 1;
inline constexpr uint32_t kMsgControl = 2;

struct SliceReport {
  uint32_t slice_id = 0;
  uint32_t quota_prbs = 0;
  double target_bps = 0;
  double rate_bps = 0;

  bool operator==(const SliceReport&) const = default;
};

struct UeReport {
  uint32_t rnti = 0;
  uint32_t serving_cell = 0;
  int32_t rsrp_serving_dbm = -90;
  int32_t rsrp_neighbor_dbm = -140;
  uint32_t cqi = 0;
  uint32_t neighbor_cell = 0;

  bool operator==(const UeReport&) const = default;
};

struct IndicationReport {
  std::vector<SliceReport> slices;
  std::vector<UeReport> ues;
  /// Per-cell fleet telemetry summary (optional tagged tail on the wire).
  std::optional<obs::CellTelemetry> telemetry;

  bool operator==(const IndicationReport&) const = default;
};

/// Telemetry-block tag ("TEL2" little endian).
inline constexpr uint32_t kTelemetryTag = 0x324c4554;

enum class ActionType : uint32_t {
  kSetSliceQuota = 1,
  kSetCqiTable = 2,
  kHandover = 3,
  kSetReportPeriod = 4,
};

struct ControlAction {
  ActionType type = ActionType::kSetSliceQuota;
  uint32_t a = 0;
  uint32_t b = 0;

  bool operator==(const ControlAction&) const = default;
};

// The codecs write into the caller's buffer, report or action list,
// replacing its contents and reusing its capacity: the agent and the RIC
// keep one of each, so a warm E2 loop encodes and decodes without
// allocating. On a decode error `out` holds whatever was read before it.
void encode_indication(const IndicationReport& report, std::vector<uint8_t>& out);
Status decode_indication(std::span<const uint8_t> bytes, IndicationReport& out);

void encode_control(const std::vector<ControlAction>& actions, std::vector<uint8_t>& out);
Status decode_control(std::span<const uint8_t> bytes, std::vector<ControlAction>& out);

/// Reads the msg_type header field (kMsgIndication / kMsgControl).
Result<uint32_t> peek_msg_type(std::span<const uint8_t> bytes);

}  // namespace waran::ric
