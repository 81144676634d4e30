#include "codec/wire.h"

#include "common/bytes.h"

namespace waran::codec::wire {

void encode_request(const SchedRequest& req, std::vector<uint8_t>& out) {
  // Sized once and written in place: the request is on the per-slot path
  // and a dense slice's is a few KiB. The assign zeroes the padding word
  // that keeps the f64 fields 8-aligned in plugin memory.
  const auto n = static_cast<uint32_t>(req.ues.size());
  out.assign(kReqHeaderSize + static_cast<size_t>(n) * kUeRecordSize, 0);
  uint8_t* p = out.data();
  store(p, req.slot);
  store(p + 4, req.prb_quota);
  store(p + 8, n);
  p += kReqHeaderSize;
  for (const UeInfo& ue : req.ues) {
    store(p + kUeRnti, ue.rnti);
    store(p + kUeCqi, ue.cqi);
    store(p + kUeMcs, ue.mcs);
    store(p + kUeBufferBytes, ue.buffer_bytes);
    store(p + kUeTbsPerPrb, ue.tbs_per_prb);
    store(p + kUeAvgTput, ue.avg_tput_bps);
    store(p + kUeAchievable, ue.achievable_bps);
    p += kUeRecordSize;
  }
}

Status decode_request(std::span<const uint8_t> bytes, SchedRequest& req) {
  ByteReader r(bytes);
  req.ues.clear();
  WARAN_TRY(slot, r.u32le());
  WARAN_TRY(quota, r.u32le());
  WARAN_TRY(n, r.u32le());
  req.slot = slot;
  req.prb_quota = quota;
  if (static_cast<uint64_t>(n) * kUeRecordSize > r.remaining()) {
    return Error::decode("wire request: UE count exceeds payload");
  }
  req.ues.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    UeInfo ue;
    WARAN_TRY(rnti, r.u32le());
    WARAN_TRY(cqi, r.u32le());
    WARAN_TRY(mcs, r.u32le());
    WARAN_TRY(buf, r.u32le());
    WARAN_TRY(tbs, r.u32le());
    WARAN_CHECK_OK(r.skip(4));  // padding
    WARAN_TRY(avg, r.f64le());
    WARAN_TRY(ach, r.f64le());
    ue.rnti = rnti;
    ue.cqi = cqi;
    ue.mcs = mcs;
    ue.buffer_bytes = buf;
    ue.tbs_per_prb = tbs;
    ue.avg_tput_bps = avg;
    ue.achievable_bps = ach;
    req.ues.push_back(ue);
  }
  if (!r.at_end()) return Error::decode("wire request: trailing bytes");
  return {};
}

void encode_response(const SchedResponse& resp, std::vector<uint8_t>& out) {
  const auto n = static_cast<uint32_t>(resp.allocs.size());
  out.resize(kRespHeaderSize + static_cast<size_t>(n) * kAllocRecordSize);
  uint8_t* p = out.data();
  store(p, n);
  p += kRespHeaderSize;
  for (const SchedAlloc& a : resp.allocs) {
    store(p, a.rnti);
    store(p + 4, a.prbs);
    p += kAllocRecordSize;
  }
}

Status decode_response(std::span<const uint8_t> bytes, SchedResponse& resp) {
  ByteReader r(bytes);
  resp.allocs.clear();
  WARAN_TRY(n, r.u32le());
  if (static_cast<uint64_t>(n) * kAllocRecordSize > r.remaining()) {
    return Error::decode("wire response: alloc count exceeds payload");
  }
  resp.allocs.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    WARAN_TRY(rnti, r.u32le());
    WARAN_TRY(prbs, r.u32le());
    resp.allocs.push_back({rnti, prbs});
  }
  // Trailing bytes are tolerated: the plugin output window may be larger
  // than the payload it wrote.
  return {};
}

}  // namespace waran::codec::wire
