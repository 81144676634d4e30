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

// Telemetry block body: 3 u32 ids + the u64 counters of
// obs::kTelemetryCounters + 2 histogram states of (65 buckets + sum +
// count) u64s each. Field order matches the CellTelemetry declaration;
// both sides are fixed-width little endian so the summary round-trips
// exactly (histogram buckets included).
constexpr uint32_t kTelemetryLen =
    12 + std::size(obs::kTelemetryCounters) * 8 + 2 * (obs::Histogram::kBuckets + 2) * 8;

// Encoded size of an indication, so it is written into one exact-size buffer.
size_t indication_size(const IndicationReport& report) {
  size_t n = 4 + 4 + 24 * report.slices.size() + 4 + 24 * report.ues.size();
  if (report.telemetry.has_value()) n += 4 + 4 + kTelemetryLen;  // tag, len, body
  return n;
}

void write_hist(ByteWriter& w, const obs::HistState& h) {
  for (uint64_t b : h.buckets) w.u64le(b);
  w.u64le(h.sum);
  w.u64le(h.count);
}

Status read_hist(ByteReader& r, obs::HistState& h) {
  for (uint64_t& b : h.buckets) {
    WARAN_TRY(v, r.u64le());
    b = v;
  }
  WARAN_TRY(sum, r.u64le());
  WARAN_TRY(count, r.u64le());
  h.sum = sum;
  h.count = count;
  return {};
}

void write_telemetry(ByteWriter& w, const obs::CellTelemetry& t) {
  w.u32le(kTelemetryTag);
  w.u32le(kTelemetryLen);
  w.u32le(t.gnb);
  w.u32le(t.cell);
  w.u32le(t.cells_merged);
  for (const obs::TelemetryCounter& c : obs::kTelemetryCounters) w.u64le(t.*c.member);
  write_hist(w, t.slot_wall_ns);
  write_hist(w, t.sched_wall_ns);
}

Result<obs::CellTelemetry> read_telemetry(ByteReader& r) {
  WARAN_TRY(len, r.u32le());
  if (len != kTelemetryLen || r.remaining() < len) {
    return Error::decode("indication: bad telemetry block length");
  }
  obs::CellTelemetry t;
  WARAN_TRY(gnb, r.u32le());
  WARAN_TRY(cell, r.u32le());
  WARAN_TRY(merged, r.u32le());
  t.gnb = gnb;
  t.cell = cell;
  t.cells_merged = merged;
  for (const obs::TelemetryCounter& c : obs::kTelemetryCounters) {
    WARAN_TRY(v, r.u64le());
    t.*c.member = v;
  }
  WARAN_CHECK_OK(read_hist(r, t.slot_wall_ns));
  WARAN_CHECK_OK(read_hist(r, t.sched_wall_ns));
  return t;
}

}  // namespace

void encode_indication(const IndicationReport& report, std::vector<uint8_t>& out) {
  obs::ObsSpan span(obs::TraceCat::kE2, "encode_indication",
                    static_cast<uint32_t>(report.ues.size()));
  E2Metrics::get().enc_msgs.add();
  ByteWriter w(std::move(out));
  w.reserve(indication_size(report));
  w.u32le(kMsgIndication);
  w.u32le(static_cast<uint32_t>(report.slices.size()));
  for (const SliceReport& s : report.slices) {
    w.u32le(s.slice_id);
    w.u32le(s.quota_prbs);
    w.f64le(s.target_bps);
    w.f64le(s.rate_bps);
  }
  w.u32le(static_cast<uint32_t>(report.ues.size()));
  for (const UeReport& u : report.ues) {
    w.u32le(u.rnti);
    w.u32le(u.serving_cell);
    w.u32le(static_cast<uint32_t>(u.rsrp_serving_dbm));
    w.u32le(static_cast<uint32_t>(u.rsrp_neighbor_dbm));
    w.u32le(u.cqi);
    w.u32le(u.neighbor_cell);
  }
  if (report.telemetry.has_value()) write_telemetry(w, *report.telemetry);
  out = w.take();
  E2Metrics::get().enc_bytes.add(out.size());
}

Status decode_indication(std::span<const uint8_t> bytes, IndicationReport& report) {
  obs::ObsSpan span(obs::TraceCat::kE2, "decode_indication",
                    static_cast<uint32_t>(bytes.size()));
  E2Metrics::get().dec_msgs.add();
  E2Metrics::get().dec_bytes.add(bytes.size());
  ByteReader r(bytes);
  WARAN_TRY(type, r.u32le());
  if (type != kMsgIndication) {
    E2Metrics::get().dec_errors.add();
    return Error::decode("not an indication message");
  }
  report.slices.clear();
  report.ues.clear();
  report.telemetry.reset();
  WARAN_TRY(n_slices, r.u32le());
  if (static_cast<uint64_t>(n_slices) * 24 > r.remaining()) {
    return Error::decode("indication: slice count exceeds payload");
  }
  report.slices.reserve(n_slices);
  for (uint32_t i = 0; i < n_slices; ++i) {
    SliceReport s;
    WARAN_TRY(id, r.u32le());
    WARAN_TRY(quota, r.u32le());
    WARAN_TRY(target, r.f64le());
    WARAN_TRY(rate, r.f64le());
    s.slice_id = id;
    s.quota_prbs = quota;
    s.target_bps = target;
    s.rate_bps = rate;
    report.slices.push_back(s);
  }
  WARAN_TRY(n_ues, r.u32le());
  if (static_cast<uint64_t>(n_ues) * 24 > r.remaining()) {
    return Error::decode("indication: UE count exceeds payload");
  }
  report.ues.reserve(n_ues);
  for (uint32_t i = 0; i < n_ues; ++i) {
    UeReport u;
    WARAN_TRY(rnti, r.u32le());
    WARAN_TRY(cell, r.u32le());
    WARAN_TRY(rsrp_s, r.u32le());
    WARAN_TRY(rsrp_n, r.u32le());
    WARAN_TRY(cqi, r.u32le());
    WARAN_TRY(ncell, r.u32le());
    u.rnti = rnti;
    u.serving_cell = cell;
    u.rsrp_serving_dbm = static_cast<int32_t>(rsrp_s);
    u.rsrp_neighbor_dbm = static_cast<int32_t>(rsrp_n);
    u.cqi = cqi;
    u.neighbor_cell = ncell;
    report.ues.push_back(u);
  }
  if (!r.at_end()) {
    // Only the tagged telemetry block may follow the UE records; anything
    // else keeps the strict trailing-bytes rejection.
    WARAN_TRY(tag, r.u32le());
    if (tag != kTelemetryTag) {
      E2Metrics::get().dec_errors.add();
      return Error::decode("indication: trailing bytes");
    }
    auto telemetry = read_telemetry(r);
    if (!telemetry.ok()) {
      E2Metrics::get().dec_errors.add();
      return telemetry.error();
    }
    report.telemetry = *telemetry;
    if (!r.at_end()) {
      E2Metrics::get().dec_errors.add();
      return Error::decode("indication: trailing bytes");
    }
  }
  return {};
}

void encode_control(const std::vector<ControlAction>& actions, std::vector<uint8_t>& out) {
  obs::ObsSpan span(obs::TraceCat::kE2, "encode_control",
                    static_cast<uint32_t>(actions.size()));
  E2Metrics::get().enc_msgs.add();
  ByteWriter w(std::move(out));
  w.reserve(4 + 4 + 12 * actions.size());  // type, count, 12 B per action
  w.u32le(kMsgControl);
  w.u32le(static_cast<uint32_t>(actions.size()));
  for (const ControlAction& a : actions) {
    w.u32le(static_cast<uint32_t>(a.type));
    w.u32le(a.a);
    w.u32le(a.b);
  }
  out = w.take();
  E2Metrics::get().enc_bytes.add(out.size());
}

Status decode_control(std::span<const uint8_t> bytes, std::vector<ControlAction>& actions) {
  obs::ObsSpan span(obs::TraceCat::kE2, "decode_control",
                    static_cast<uint32_t>(bytes.size()));
  E2Metrics::get().dec_msgs.add();
  E2Metrics::get().dec_bytes.add(bytes.size());
  ByteReader r(bytes);
  WARAN_TRY(type, r.u32le());
  if (type != kMsgControl) {
    E2Metrics::get().dec_errors.add();
    return Error::decode("not a control message");
  }
  actions.clear();
  WARAN_TRY(n, r.u32le());
  if (static_cast<uint64_t>(n) * 12 > r.remaining()) {
    return Error::decode("control: action count exceeds payload");
  }
  actions.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    ControlAction a;
    WARAN_TRY(t, r.u32le());
    WARAN_TRY(av, r.u32le());
    WARAN_TRY(bv, r.u32le());
    if (t < 1 || t > 4) return Error::decode("control: unknown action type");
    a.type = static_cast<ActionType>(t);
    a.a = av;
    a.b = bv;
    actions.push_back(a);
  }
  return {};
}

Result<uint32_t> peek_msg_type(std::span<const uint8_t> bytes) {
  ByteReader r(bytes);
  return r.u32le();
}

}  // namespace waran::ric
