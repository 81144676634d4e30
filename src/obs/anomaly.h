// waran::obs anomaly journal — the record of a component's containment
// events: plugin traps, fuel exhaustion, quarantines, sanitized
// allocations, rejected frames, slot-deadline overruns.
//
// The paper's reliability story (§6A) is that faults are *contained*, not
// absent — so the host must be able to answer "what misbehaved, when, and
// what did it cost" after the fact. Every component that contains faults
// owns one journal (GnbMac, PluginManager, SloEngine); a deployment merges
// its components' journals into one view (merge_journals). Each record
// carries the MAC slot that was executing (obs::current_slot), the domain
// that observed it ("mac0", "gnb0", "ric"), the source (plugin slot, slice
// id) and the error detail.
//
// Recording also bumps `waran_anomaly_total{domain,kind}` in the metrics
// registry and drops an instant event into the trace ring, so all three
// telemetry surfaces agree. Anomalies are rare by definition; recording
// takes a mutex and allocates — it is not the hot path. Reading the counts
// (total, count) takes neither, so the fleet plane reads them every report.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <deque>
#include <mutex>
#include <span>
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
  kOther,           ///< must stay last: it sizes kAnomalyKinds
};

/// Number of kinds, kTrap..kOther.
inline constexpr size_t kAnomalyKinds = static_cast<size_t>(AnomalyKind::kOther) + 1;

const char* to_string(AnomalyKind kind);

struct AnomalyRecord {
  uint64_t seq = 0;       ///< index in its journal (never reused)
  uint64_t slot = 0;      ///< MAC slot current at record time
  uint64_t t_ns = 0;      ///< obs::now_ns() timestamp
  AnomalyKind kind = AnomalyKind::kOther;
  std::string domain;     ///< observing subsystem ("mac0", "gnb0", "ric")
  std::string source;     ///< offending entity (plugin slot, "slice 2", ...)
  std::string detail;     ///< error message
};

class AnomalyJournal {
 public:
  AnomalyJournal() = default;
  AnomalyJournal(const AnomalyJournal&) = delete;
  AnomalyJournal& operator=(const AnomalyJournal&) = delete;

  void record(AnomalyKind kind, std::string_view domain, std::string_view source,
              std::string_view detail);

  /// The retained records, oldest first.
  std::vector<AnomalyRecord> snapshot() const;

  /// Records ever written, in all and of one kind (monotone across
  /// capacity eviction). Lock-free and allocation-free.
  uint64_t total() const { return total_.load(std::memory_order_relaxed); }
  uint64_t count(AnomalyKind kind) const {
    return counts_[static_cast<size_t>(kind)].load(std::memory_order_relaxed);
  }

  /// Oldest records are evicted beyond this bound (default 1024).
  void set_capacity(size_t capacity);

 private:
  mutable std::mutex mu_;
  std::deque<AnomalyRecord> records_;
  size_t capacity_ = 1024;
  std::atomic<uint64_t> total_{0};
  std::array<std::atomic<uint64_t>, kAnomalyKinds> counts_{};
};

/// Every retained record of `journals`, in canonical order: by (slot,
/// domain), then by the position of its journal in `journals`, then in
/// record order. Each journal has one writer at a time, so the result does
/// not depend on how writers of different journals interleaved.
std::vector<AnomalyRecord> merge_journals(std::span<const AnomalyJournal* const> journals);

}  // namespace waran::obs
