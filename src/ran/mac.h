// The gNB MAC downlink slot loop with two-level slice scheduling — the
// srsRAN-equivalent substrate the paper retrofits (§5A). Each slot:
//
//   1. traffic arrivals + channel evolution per UE,
//   2. inter-slice scheduler divides the carrier's PRBs among slices,
//   3. each slice's intra-slice scheduler (native or Wasm plugin) orders
//      its UEs and sizes their grants,
//   4. the resource allocator applies the grants, clamping to the quota and
//      sanitizing invalid plugin output (§6A), and delivers transport
//      blocks into the UEs' throughput accounting.
//
// Scheduler faults never abort the slot: the MAC falls back to a host-side
// round-robin for that slice and counts the event.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/rng.h"
#include "obs/anomaly.h"
#include "obs/metrics.h"
#include "ran/phy_tables.h"
#include "ran/scheduler_iface.h"
#include "ran/ue.h"

namespace waran::obs {
struct CellTelemetry;
}

namespace waran::ran {

struct MacConfig {
  uint32_t n_prbs = 52;      ///< 10 MHz @ 15 kHz SCS, the paper's testbed
  uint32_t slot_us = 1000;   ///< 1 ms slots (numerology 0)
  double pf_time_constant_slots = 100.0;

  /// Transport-block errors drawn from the channel's BLER. Off by default
  /// (the paper's experiments assume the link-adaptation operating point).
  bool channel_errors = false;
  /// With channel_errors: stop-and-wait HARQ with chase combining, dropping
  /// a TB after 4 retransmissions; without it a failed TB is simply lost.
  bool enable_harq = true;
  uint64_t error_seed = 0x5eed;

  /// Cell identity in a multi-cell gNB deployment (rt::GnbDeployment).
  /// Stamped as a "cell" label on the per-slice metric series so cells
  /// sharing one MetricsRegistry stay distinguishable; the unlabeled slot
  /// aggregates (waran_mac_slots_total etc.) are shared across cells by
  /// design.
  uint32_t cell = 0;
  /// Domain of the anomaly records this MAC journals, and the `domain`
  /// label of their waran_anomaly_total series. The deployment uses
  /// "mac<cell>", which its cell's scheduler manager reports under too.
  std::string domain = "mac";
};

/// Per-slice counters the evaluation reads.
struct SliceStats {
  uint64_t slots_scheduled = 0;   ///< slots with a nonzero quota and demand
  uint64_t scheduler_faults = 0;  ///< plugin errors answered with fallback
  uint64_t sanitized_allocs = 0;  ///< invalid grant entries dropped/clamped
  uint64_t harq_retx = 0;         ///< transport blocks that needed retransmission
  uint64_t tb_drops = 0;          ///< TBs lost (HARQ exhausted / HARQ disabled)
  uint32_t last_quota = 0;
  std::string last_error;
};

class GnbMac {
 public:
  explicit GnbMac(MacConfig config);

  // --- Topology ------------------------------------------------------------

  /// Registers a slice with its intra-slice scheduler. slice_id must be new
  /// (std::invalid_argument otherwise).
  void add_slice(const SliceConfig& config,
                 std::unique_ptr<IntraSliceScheduler> scheduler);

  void set_inter_scheduler(std::unique_ptr<InterSliceScheduler> scheduler);

  /// Switches link adaptation between the 64QAM and 256QAM CQI/MCS tables
  /// on every UE (the RIC's set_cqi_table control action made real).
  void set_mcs_table(McsTable table);
  McsTable mcs_table() const { return mcs_table_; }

  /// Adds a UE to a slice; returns its RNTI. slice_id must name a registered
  /// slice (std::out_of_range otherwise).
  uint32_t add_ue(uint32_t slice_id, Channel channel, TrafficSource traffic);

  /// Removes a UE (detach).
  Status remove_ue(uint32_t rnti);

  // --- Execution -----------------------------------------------------------

  /// Runs one slot. Never fails from plugin faults (those are contained);
  /// fails only on host misconfiguration.
  Status run_slot();
  Status run_slots(uint32_t n);

  // --- Introspection -------------------------------------------------------

  uint64_t slot() const { return slot_; }
  double now_s() const { return static_cast<double>(slot_) * config_.slot_us * 1e-6; }
  const MacConfig& config() const { return config_; }

  const UeContext* ue(uint32_t rnti) const;
  UeContext* ue(uint32_t rnti);
  /// Snapshot of the RNTIs in ascending order (safe to remove UEs while
  /// iterating it). The E2 agent walks for_each_ue() instead.
  std::vector<uint32_t> ue_rntis() const;
  size_t ue_count() const { return ues_.size(); }
  /// Calls fn(const UeContext&) for every UE in ascending RNTI order,
  /// without building an id vector. fn must not add or remove UEs.
  template <class Fn>
  void for_each_ue(Fn&& fn) const {
    for (const auto& ue : ues_) fn(*ue);
  }

  /// Slice throughput over the trailing second (sum of member UE rates).
  double slice_rate_bps(uint32_t slice_id) const;
  const SliceStats* slice_stats(uint32_t slice_id) const;
  const SliceConfig* slice_config(uint32_t slice_id) const;
  std::vector<uint32_t> slice_ids() const;
  /// Calls fn(const SliceConfig&, const SliceStats&) for every slice in
  /// ascending id order, without building an id vector.
  template <class Fn>
  void for_each_slice(Fn&& fn) const {
    for (const auto& [id, slice] : slices_) fn(slice.config, slice.stats);
  }

  /// Sanitized responses and slot overruns, recorded under config().domain.
  const obs::AnomalyJournal& journal() const { return journal_; }

  /// Adds this MAC's counts to `t`: slots, overruns, PRBs granted and the
  /// PRB capacity of those slots, the per-slice scheduler outcomes and the
  /// slot wall-time histogram, read through the per-cell registry handles
  /// the MAC writes. Allocation-free.
  void add_telemetry(obs::CellTelemetry& t) const;

  /// Fault injection (waran::chaos): extra nanoseconds charged to the slot
  /// wall-clock before the overrun check, standing in for a host-side stall
  /// (page fault, preemption). The callback runs once per slot; return 0
  /// for no padding. Clears with nullptr.
  void set_slot_time_padding(std::function<uint64_t()> fn) {
    slot_padding_ = std::move(fn);
  }

 private:
  struct SlotDelivery {
    uint32_t fresh_bits = 0;  // first transmissions (drain the RLC buffer)
    uint32_t harq_bits = 0;   // HARQ recoveries (buffer already drained)
  };
  struct SliceState {
    SliceConfig config;
    std::unique_ptr<IntraSliceScheduler> scheduler;
    SliceStats stats;
    // The slice's UEs in ascending RNTI order (add_ue/remove_ue keep it), so
    // the slot loop walks a slice's members instead of the whole cell.
    std::vector<UeContext*> ues;
    // This slot's deliveries, parallel to `ues`; drained by the delivery
    // loop, so it is all zero between slots.
    std::vector<SlotDelivery> delivered;
    // Rebuilt every slot the slice is scheduled; kept for their capacity.
    codec::SchedRequest request;
    codec::SchedResponse response;
    // Registry handles, bound at add_slice (label: slice id).
    obs::Counter* m_prb_granted = nullptr;
    obs::Counter* m_sched_faults = nullptr;
    obs::Counter* m_sanitized = nullptr;
    obs::Counter* m_slots_scheduled = nullptr;
  };

  /// Fills `slice.request` with the slice's backlogged UEs.
  void build_request(SliceState& slice, uint32_t quota);
  /// Host-side round-robin used when a slice's scheduler faults (§6A).
  static void fallback_round_robin(const codec::SchedRequest& req,
                                   codec::SchedResponse& resp);
  void apply_response(SliceState& slice, const codec::SchedResponse& resp);

  MacConfig config_;
  uint64_t slot_ = 0;
  // Registry handles for slot-level accounting (bound in the constructor;
  // cells share the unlabeled aggregates and additionally feed per-cell
  // `waran_cell_*{cell=}` families, which add_telemetry reads for the
  // fleet telemetry plane's cell -> deployment rollup, obs/fleet.h).
  obs::Counter* m_slots_ = nullptr;
  obs::Counter* m_slot_overruns_ = nullptr;
  obs::Histogram* m_slot_wall_ns_ = nullptr;
  obs::Counter* m_cell_slots_ = nullptr;
  obs::Counter* m_cell_slot_overruns_ = nullptr;
  obs::Histogram* m_cell_slot_wall_ns_ = nullptr;
  uint32_t next_rnti_ = 0x4601;  // srsRAN's first C-RNTI
  std::map<uint32_t, SliceState> slices_;
  // Every UE, in ascending RNTI order. The slot loop walks the slices'
  // member vectors instead.
  std::vector<std::unique_ptr<UeContext>> ues_;
  std::unique_ptr<InterSliceScheduler> inter_;
  // Inter-slice inputs and output, rebuilt every slot; kept for their
  // capacity.
  std::vector<SliceDemand> demands_;
  std::vector<SliceState*> order_;
  std::vector<uint32_t> quotas_;
  McsTable mcs_table_ = McsTable::kQam64;
  Xoshiro256 error_rng_{0x5eed};
  std::function<uint64_t()> slot_padding_;
  obs::AnomalyJournal journal_;
};

}  // namespace waran::ran
