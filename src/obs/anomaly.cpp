#include "obs/anomaly.h"

#include <algorithm>

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
  rec.seq = total_.fetch_add(1, std::memory_order_relaxed);
  counts_[static_cast<size_t>(kind)].fetch_add(1, std::memory_order_relaxed);
  records_.push_back(std::move(rec));
  while (records_.size() > capacity_) records_.pop_front();
}

std::vector<AnomalyRecord> AnomalyJournal::snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return {records_.begin(), records_.end()};
}

void AnomalyJournal::set_capacity(size_t capacity) {
  std::lock_guard<std::mutex> lock(mu_);
  capacity_ = capacity < 1 ? 1 : capacity;
  while (records_.size() > capacity_) records_.pop_front();
}

std::vector<AnomalyRecord> merge_journals(std::span<const AnomalyJournal* const> journals) {
  std::vector<AnomalyRecord> out;
  for (const AnomalyJournal* j : journals) {
    std::vector<AnomalyRecord> records = j->snapshot();
    out.insert(out.end(), std::make_move_iterator(records.begin()),
               std::make_move_iterator(records.end()));
  }
  // Stable: ties keep journal order, then record order.
  std::stable_sort(out.begin(), out.end(),
                   [](const AnomalyRecord& a, const AnomalyRecord& b) {
                     if (a.slot != b.slot) return a.slot < b.slot;
                     return a.domain < b.domain;
                   });
  return out;
}

}  // namespace waran::obs
