#include "obs/anomaly.h"

#include "obs/metrics.h"
#include "obs/trace.h"

namespace waran::obs {

const char* to_string(AnomalyKind kind) {
  switch (kind) {
    case AnomalyKind::kTrap: return "trap";
    case AnomalyKind::kFuelExhausted: return "fuel_exhausted";
    case AnomalyKind::kDecline: return "decline";
    case AnomalyKind::kQuarantine: return "quarantine";
    case AnomalyKind::kSanitized: return "sanitized";
    case AnomalyKind::kFrameRejected: return "frame_rejected";
    case AnomalyKind::kSlotOverrun: return "slot_overrun";
    case AnomalyKind::kLoadFailed: return "load_failed";
    case AnomalyKind::kSloBreach: return "slo_breach";
    case AnomalyKind::kAdmissionReject: return "admission_reject";
    case AnomalyKind::kOther: return "other";
  }
  return "other";
}

AnomalyJournal& AnomalyJournal::global() {
  static AnomalyJournal journal;
  return journal;
}

void AnomalyJournal::record(AnomalyKind kind, std::string_view domain,
                            std::string_view source, std::string_view detail) {
  MetricsRegistry::global().counter(
      "waran_anomaly_total", {{"domain", domain}, {"kind", to_string(kind)}})
      .add();
  if (TraceRing* ring = TraceRing::current()) {
    ring->instant(TraceCat::kAnomaly, source.empty() ? to_string(kind) : source);
  }
  AnomalyRecord rec;
  rec.t_ns = now_ns();
  rec.slot = current_slot();
  rec.kind = kind;
  rec.domain = std::string(domain);
  rec.source = std::string(source);
  rec.detail = std::string(detail);
  std::lock_guard<std::mutex> lock(mu_);
  rec.seq = next_seq_++;
  records_.push_back(std::move(rec));
  while (records_.size() > capacity_) records_.pop_front();
}

std::vector<AnomalyRecord> AnomalyJournal::snapshot(std::string_view domain) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<AnomalyRecord> out;
  out.reserve(records_.size());
  for (const AnomalyRecord& rec : records_) {
    if (domain.empty() || rec.domain == domain) out.push_back(rec);
  }
  return out;
}

uint64_t AnomalyJournal::total() const {
  std::lock_guard<std::mutex> lock(mu_);
  return next_seq_;
}

void AnomalyJournal::set_capacity(size_t capacity) {
  std::lock_guard<std::mutex> lock(mu_);
  capacity_ = capacity < 1 ? 1 : capacity;
  while (records_.size() > capacity_) records_.pop_front();
}

void AnomalyJournal::clear() {
  std::lock_guard<std::mutex> lock(mu_);
  records_.clear();
  next_seq_ = 0;
}

}  // namespace waran::obs
