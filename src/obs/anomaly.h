// waran::obs anomaly journal — one canonical record of every containment
// event in the system: plugin traps, fuel exhaustion, quarantines,
// sanitized allocations, rejected frames, slot-deadline overruns.
//
// The paper's reliability story (§6A) is that faults are *contained*, not
// absent — so the host must be able to answer "what misbehaved, when, and
// what did it cost" after the fact. Each record carries the MAC slot that
// was executing (obs::current_slot), the domain that observed it ("mac",
// "gnb0", "ric"), the source (plugin slot, slice id) and the error detail.
//
// Recording also bumps `waran_anomaly_total{domain,kind}` in the metrics
// registry and drops an instant event into the trace ring, so all three
// telemetry surfaces agree. Anomalies are rare by definition; this path
// takes a mutex and allocates — it is not the hot path.
#pragma once

#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace waran::obs {

enum class AnomalyKind : uint8_t {
  kTrap = 0,        ///< wasm trap (OOB, unreachable, stack exhaustion, ...)
  kFuelExhausted,   ///< fuel budget exceeded
  kDecline,         ///< plugin-declared rejection (no quarantine)
  kQuarantine,      ///< slot quarantined after repeated faults
  kSanitized,       ///< invalid plugin output dropped/clamped by the host
  kFrameRejected,   ///< comm-plugin sanitization rejected a wire frame
  kSlotOverrun,     ///< MAC slot processing exceeded the slot duration
  kLoadFailed,      ///< plugin install/swap refused (broken or injected)
  kSloBreach,       ///< declarative service-level objective violated (slo.h)
  kAdmissionReject, ///< static bounds exceed the slot budget (analysis)
  kOther,
};

const char* to_string(AnomalyKind kind);

struct AnomalyRecord {
  uint64_t seq = 0;       ///< monotone sequence number (never reused)
  uint64_t slot = 0;      ///< MAC slot current at record time
  uint64_t t_ns = 0;      ///< obs::now_ns() timestamp
  AnomalyKind kind = AnomalyKind::kOther;
  std::string domain;     ///< observing subsystem ("mac", "gnb0", "ric")
  std::string source;     ///< offending entity (plugin slot, "slice 2", ...)
  std::string detail;     ///< error message
};

class AnomalyJournal {
 public:
  static AnomalyJournal& global();

  void record(AnomalyKind kind, std::string_view domain, std::string_view source,
              std::string_view detail);

  /// Newest-last snapshot; `domain` filters when non-empty.
  std::vector<AnomalyRecord> snapshot(std::string_view domain = {}) const;

  /// Total records ever written (monotone across capacity eviction).
  uint64_t total() const;
  /// Oldest records are evicted beyond this bound (default 1024).
  void set_capacity(size_t capacity);
  /// Drops all records and restarts the sequence counter (full reset, for
  /// tests and scenario runners).
  void clear();

 private:
  AnomalyJournal() = default;
  mutable std::mutex mu_;
  std::deque<AnomalyRecord> records_;
  size_t capacity_ = 1024;
  uint64_t next_seq_ = 0;
};

}  // namespace waran::obs
