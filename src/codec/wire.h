// Flat wire format: the layout plugins read directly from linear memory
// with plain i32/f64 loads. Offsets are part of the WA-RAN plugin ABI and
// must match the plugin sources in src/sched/plugins.cpp and the wcc
// standard prologue.
//
// SchedRequest layout (little endian):
//   0  u32 slot
//   4  u32 prb_quota
//   8  u32 n_ues
//   12 UE records, kUeRecordSize bytes each:
//        +0  u32 rnti
//        +4  u32 cqi
//        +8  u32 mcs
//        +12 u32 buffer_bytes
//        +16 u32 tbs_per_prb
//        +20 u32 (pad, keeps the f64 fields 8-aligned)
//        +24 f64 avg_tput_bps
//        +32 f64 achievable_bps
//
// SchedResponse layout:
//   0  u32 n_allocs
//   4  records, kAllocRecordSize bytes each: { u32 rnti, u32 prbs }
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "codec/messages.h"
#include "common/result.h"

namespace waran::codec::wire {

inline constexpr uint32_t kReqHeaderSize = 12;
inline constexpr uint32_t kUeRecordSize = 40;
inline constexpr uint32_t kRespHeaderSize = 4;
inline constexpr uint32_t kAllocRecordSize = 8;

// Field offsets within a UE record.
inline constexpr uint32_t kUeRnti = 0;
inline constexpr uint32_t kUeCqi = 4;
inline constexpr uint32_t kUeMcs = 8;
inline constexpr uint32_t kUeBufferBytes = 12;
inline constexpr uint32_t kUeTbsPerPrb = 16;
inline constexpr uint32_t kUeAvgTput = 24;
inline constexpr uint32_t kUeAchievable = 32;

// Each function writes into the caller's buffer or message, replacing its
// contents and reusing its capacity: the scheduler bridge keeps one of each
// per slice, so a warm slot encodes and decodes without allocating. On a
// decode error `out` holds whatever was read before the error.
void encode_request(const SchedRequest& req, std::vector<uint8_t>& out);
Status decode_request(std::span<const uint8_t> bytes, SchedRequest& out);

void encode_response(const SchedResponse& resp, std::vector<uint8_t>& out);
Status decode_response(std::span<const uint8_t> bytes, SchedResponse& out);

}  // namespace waran::codec::wire
