#include "ric/e2lite.h"

#include <iterator>

#include "common/bytes.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace waran::ric {

namespace {

// E2 serialization accounting: message and byte counters per direction.
// Handles resolve once (thread-safe static init); adds are relaxed atomics.
struct E2Metrics {
  obs::Counter& enc_msgs = obs::MetricsRegistry::global().counter(
      "waran_e2_encoded_messages_total");
  obs::Counter& enc_bytes =
      obs::MetricsRegistry::global().counter("waran_e2_encoded_bytes_total");
  obs::Counter& dec_msgs = obs::MetricsRegistry::global().counter(
      "waran_e2_decoded_messages_total");
  obs::Counter& dec_bytes =
      obs::MetricsRegistry::global().counter("waran_e2_decoded_bytes_total");
  obs::Counter& dec_errors =
      obs::MetricsRegistry::global().counter("waran_e2_decode_errors_total");
  static E2Metrics& get() {
    static E2Metrics m;
    return m;
  }
};

// Every rejected message counts once, whatever section it fails in.
Status reject(const char* why) {
  E2Metrics::get().dec_errors.add();
  return Error::decode(why);
}

constexpr size_t kSliceRecord = 24;
constexpr size_t kUeRecord = 24;
constexpr size_t kActionRecord = 12;

// Telemetry block body: 3 u32 ids and the u64 counters of
// obs::kTelemetryCounters, then the two histograms (see e2lite.h).
constexpr size_t kHistAt = 12 + std::size(obs::kTelemetryCounters) * 8;

// A histogram's buckets cross the wire at 4 bytes while its count and
// every bucket fit in 32 bits, and at 8 after that. Sample counts only
// grow, so a deployment switches each histogram at most once; durations
// (the sum) never set the width, so an indication's length is the same on
// the real clock and on virtual time.
uint8_t bucket_width(const obs::HistState& h) {
  uint64_t high = h.count;
  for (uint64_t b : h.buckets) high |= b;
  return high >> 32 == 0 ? 4 : 8;
}

// Width byte, u64 count, u64 sum, then the buckets at `width` bytes each.
constexpr size_t hist_len(size_t width) { return 1 + 8 + 8 + obs::Histogram::kBuckets * width; }

uint8_t* store_hist(uint8_t* p, const obs::HistState& h, uint8_t width) {
  *p = width;
  store(p + 1, h.count);
  store(p + 9, h.sum);
  p += 17;
  if (width == 4) {
    for (uint64_t b : h.buckets) {
      store(p, static_cast<uint32_t>(b));
      p += 4;
    }
  } else {
    for (uint64_t b : h.buckets) {
      store(p, b);
      p += 8;
    }
  }
  return p;
}

// Reads one histogram whose width byte the caller has already checked.
const uint8_t* load_hist(const uint8_t* p, obs::HistState& h) {
  const uint8_t width = *p;
  h.count = load<uint64_t>(p + 1);
  h.sum = load<uint64_t>(p + 9);
  p += 17;
  if (width == 4) {
    for (uint64_t& b : h.buckets) {
      b = load<uint32_t>(p);
      p += 4;
    }
  } else {
    for (uint64_t& b : h.buckets) {
      b = load<uint64_t>(p);
      p += 8;
    }
  }
  return p;
}

void store_telemetry(uint8_t* p, const obs::CellTelemetry& t, uint8_t w_slot,
                     uint8_t w_sched) {
  store(p, kTelemetryTag);
  store(p + 4, static_cast<uint32_t>(kHistAt + hist_len(w_slot) + hist_len(w_sched)));
  store(p + 8, t.gnb);
  store(p + 12, t.cell);
  store(p + 16, t.cells_merged);
  p += 20;
  for (const obs::TelemetryCounter& c : obs::kTelemetryCounters) {
    store(p, t.*c.member);
    p += 8;
  }
  p = store_hist(p, t.slot_wall_ns, w_slot);
  store_hist(p, t.sched_wall_ns, w_sched);
}

// The block after the UE records, [p, end) non-empty. Its length field must
// equal both the bytes left and the length its two width bytes imply, so
// every field read below lies inside the span.
Status load_telemetry(const uint8_t* p, const uint8_t* end,
                      std::optional<obs::CellTelemetry>& out) {
  if (end - p < 8 || load<uint32_t>(p) != kTelemetryTag) {
    return reject("indication: trailing bytes");
  }
  const uint32_t len = load<uint32_t>(p + 4);
  const uint8_t* body = p + 8;
  const auto avail = static_cast<size_t>(end - body);
  if (len != avail || avail <= kHistAt) {
    return reject("indication: bad telemetry block length");
  }
  auto valid = [](uint8_t w) { return w == 4 || w == 8; };
  const uint8_t w_slot = body[kHistAt];
  if (!valid(w_slot)) return reject("indication: bad histogram width");
  const size_t sched_at = kHistAt + hist_len(w_slot);
  if (avail <= sched_at) return reject("indication: bad telemetry block length");
  const uint8_t w_sched = body[sched_at];
  if (!valid(w_sched)) return reject("indication: bad histogram width");
  if (avail != sched_at + hist_len(w_sched)) {
    return reject("indication: bad telemetry block length");
  }

  obs::CellTelemetry& t = out.emplace();
  t.gnb = load<uint32_t>(body);
  t.cell = load<uint32_t>(body + 4);
  t.cells_merged = load<uint32_t>(body + 8);
  p = body + 12;
  for (const obs::TelemetryCounter& c : obs::kTelemetryCounters) {
    t.*c.member = load<uint64_t>(p);
    p += 8;
  }
  p = load_hist(p, t.slot_wall_ns);
  load_hist(p, t.sched_wall_ns);
  return {};
}

}  // namespace

void encode_indication(const IndicationReport& report, std::vector<uint8_t>& out) {
  obs::ObsSpan span(obs::TraceCat::kE2, "encode_indication",
                    static_cast<uint32_t>(report.ues.size()));
  const obs::CellTelemetry* t = report.telemetry ? &*report.telemetry : nullptr;
  const uint8_t w_slot = t != nullptr ? bucket_width(t->slot_wall_ns) : 0;
  const uint8_t w_sched = t != nullptr ? bucket_width(t->sched_wall_ns) : 0;
  const size_t tail = t != nullptr ? 8 + kHistAt + hist_len(w_slot) + hist_len(w_sched) : 0;
  // Sized once and written in place; a buffer of the same size is reused
  // untouched.
  out.resize(8 + kSliceRecord * report.slices.size() + 4 + kUeRecord * report.ues.size() +
             tail);
  uint8_t* p = out.data();
  store(p, kMsgIndication);
  store(p + 4, static_cast<uint32_t>(report.slices.size()));
  p += 8;
  for (const SliceReport& s : report.slices) {
    store(p, s.slice_id);
    store(p + 4, s.quota_prbs);
    store(p + 8, s.target_bps);
    store(p + 16, s.rate_bps);
    p += kSliceRecord;
  }
  store(p, static_cast<uint32_t>(report.ues.size()));
  p += 4;
  for (const UeReport& u : report.ues) {
    store(p, u.rnti);
    store(p + 4, u.serving_cell);
    store(p + 8, u.rsrp_serving_dbm);
    store(p + 12, u.rsrp_neighbor_dbm);
    store(p + 16, u.cqi);
    store(p + 20, u.neighbor_cell);
    p += kUeRecord;
  }
  if (t != nullptr) store_telemetry(p, *t, w_slot, w_sched);
  E2Metrics::get().enc_msgs.add();
  E2Metrics::get().enc_bytes.add(out.size());
}

Status decode_indication(std::span<const uint8_t> bytes, IndicationReport& report) {
  obs::ObsSpan span(obs::TraceCat::kE2, "decode_indication",
                    static_cast<uint32_t>(bytes.size()));
  E2Metrics::get().dec_msgs.add();
  E2Metrics::get().dec_bytes.add(bytes.size());
  const uint8_t* p = bytes.data();
  const uint8_t* const end = p + bytes.size();
  auto left = [&] { return static_cast<uint64_t>(end - p); };
  if (left() < 4) return reject("unexpected end of input");
  if (load<uint32_t>(p) != kMsgIndication) return reject("not an indication message");
  report.slices.clear();
  report.ues.clear();
  report.telemetry.reset();
  if (left() < 8) return reject("unexpected end of input");
  const uint32_t n_slices = load<uint32_t>(p + 4);
  p += 8;
  // The slice records and the UE count that follows them.
  if (n_slices * kSliceRecord + 4 > left()) {
    return reject("indication: slice count exceeds payload");
  }
  report.slices.resize(n_slices);
  for (SliceReport& s : report.slices) {
    s.slice_id = load<uint32_t>(p);
    s.quota_prbs = load<uint32_t>(p + 4);
    s.target_bps = load<double>(p + 8);
    s.rate_bps = load<double>(p + 16);
    p += kSliceRecord;
  }
  const uint32_t n_ues = load<uint32_t>(p);
  p += 4;
  if (n_ues * kUeRecord > left()) return reject("indication: UE count exceeds payload");
  report.ues.resize(n_ues);
  for (UeReport& u : report.ues) {
    u.rnti = load<uint32_t>(p);
    u.serving_cell = load<uint32_t>(p + 4);
    u.rsrp_serving_dbm = load<int32_t>(p + 8);
    u.rsrp_neighbor_dbm = load<int32_t>(p + 12);
    u.cqi = load<uint32_t>(p + 16);
    u.neighbor_cell = load<uint32_t>(p + 20);
    p += kUeRecord;
  }
  // Only the tagged telemetry block may follow the UE records.
  if (p == end) return {};
  return load_telemetry(p, end, report.telemetry);
}

void encode_control(const std::vector<ControlAction>& actions, std::vector<uint8_t>& out) {
  obs::ObsSpan span(obs::TraceCat::kE2, "encode_control",
                    static_cast<uint32_t>(actions.size()));
  out.resize(8 + kActionRecord * actions.size());
  uint8_t* p = out.data();
  store(p, kMsgControl);
  store(p + 4, static_cast<uint32_t>(actions.size()));
  p += 8;
  for (const ControlAction& a : actions) {
    store(p, static_cast<uint32_t>(a.type));
    store(p + 4, a.a);
    store(p + 8, a.b);
    p += kActionRecord;
  }
  E2Metrics::get().enc_msgs.add();
  E2Metrics::get().enc_bytes.add(out.size());
}

Status decode_control(std::span<const uint8_t> bytes, std::vector<ControlAction>& actions) {
  obs::ObsSpan span(obs::TraceCat::kE2, "decode_control",
                    static_cast<uint32_t>(bytes.size()));
  E2Metrics::get().dec_msgs.add();
  E2Metrics::get().dec_bytes.add(bytes.size());
  const uint8_t* p = bytes.data();
  if (bytes.size() < 4) return reject("unexpected end of input");
  if (load<uint32_t>(p) != kMsgControl) return reject("not a control message");
  actions.clear();
  if (bytes.size() < 8) return reject("unexpected end of input");
  const uint32_t n = load<uint32_t>(p + 4);
  p += 8;
  // Bytes after the last action are ignored.
  if (n * kActionRecord > bytes.size() - 8) {
    return reject("control: action count exceeds payload");
  }
  actions.resize(n);
  for (ControlAction& a : actions) {
    const uint32_t type = load<uint32_t>(p);
    if (type < 1 || type > 4) return reject("control: unknown action type");
    a.type = static_cast<ActionType>(type);
    a.a = load<uint32_t>(p + 4);
    a.b = load<uint32_t>(p + 8);
    p += kActionRecord;
  }
  return {};
}

Result<uint32_t> peek_msg_type(std::span<const uint8_t> bytes) {
  ByteReader r(bytes);
  return r.u32le();
}

}  // namespace waran::ric
