// Scheduler interfaces the MAC calls into. Implementations live in
// src/sched: native baselines (RR/PF/MT) and the Wasm-plugin bridge —
// swapping between them is exactly the WA-RAN experiment.
#pragma once

#include <cstdint>
#include <span>
#include <utility>

#include "codec/messages.h"
#include "common/result.h"
#include "ran/slice.h"

namespace waran::ran {

/// Intra-slice scheduler: distributes a slice's PRB quota across its UEs.
/// The returned allocations are in priority order; the MAC clamps them to
/// the quota. Called once per slice per slot — the 1 ms deadline applies.
class IntraSliceScheduler {
 public:
  virtual ~IntraSliceScheduler() = default;

  virtual Result<codec::SchedResponse> schedule(const codec::SchedRequest& req) = 0;

  /// The same decision written into `out`, replacing its grants and
  /// reusing their capacity: the MAC keeps one response per slice and calls
  /// this, so a scheduler that overrides it allocates nothing per slot. The
  /// default forwards to schedule().
  virtual Status schedule_into(const codec::SchedRequest& req, codec::SchedResponse& out) {
    WARAN_TRY(resp, schedule(req));
    out = std::move(resp);
    return {};
  }

  /// Human-readable identity for logs/plots (e.g. "pf", "wasm:pf").
  virtual const char* name() const = 0;
};

/// Inter-slice scheduler: divides the carrier's PRBs among slices.
///
/// The MAC always fills `config` and `active_ues`. The slice load
/// (`backlog_bytes`, `current_rate_bps`, `est_bits_per_prb`) costs a pass
/// over every UE's rate window and link adaptation, so the MAC fills it only
/// for a scheduler whose reads_slice_load() is true, and leaves it zero
/// otherwise.
struct SliceDemand {
  const SliceConfig* config = nullptr;
  uint32_t backlog_bytes = 0;    ///< summed UE buffers in the slice
  double current_rate_bps = 0;   ///< slice throughput over the last second
  uint32_t active_ues = 0;       ///< UEs with a non-empty buffer
  /// Mean bits one PRB carries per slot across the slice's active UEs
  /// (0 when idle) — lets target-rate scheduling convert bit/s to PRBs.
  double est_bits_per_prb = 0;
};

class InterSliceScheduler {
 public:
  virtual ~InterSliceScheduler() = default;

  /// Writes every entry of `quotas` (sized by the caller, one per entry of
  /// `demands`) with PRB quotas summing to <= n_prbs.
  virtual void allocate(uint32_t n_prbs, std::span<const SliceDemand> demands,
                        std::span<uint32_t> quotas) = 0;

  /// Whether allocate() reads the slice load fields of its demands. A
  /// scheduler that decides from `config` and `active_ues` alone returns
  /// false, and the MAC skips computing the load.
  virtual bool reads_slice_load() const { return true; }

  virtual const char* name() const = 0;
};

}  // namespace waran::ran
