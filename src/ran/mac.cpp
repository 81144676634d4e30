#include "ran/mac.h"

#include <algorithm>
#include <stdexcept>

#include "common/log.h"
#include "obs/fleet.h"
#include "obs/trace.h"
#include "ran/phy_tables.h"

namespace waran::ran {

namespace {
// HARQ retransmissions of one transport block before it is dropped.
constexpr uint32_t kMaxHarqAttempts = 4;
}  // namespace

GnbMac::GnbMac(MacConfig config) : config_(config), error_rng_(config.error_seed) {
  auto& reg = obs::MetricsRegistry::global();
  m_slots_ = &reg.counter("waran_mac_slots_total");
  m_slot_overruns_ = &reg.counter("waran_mac_slot_overrun_total");
  m_slot_wall_ns_ = &reg.histogram("waran_mac_slot_wall_ns");
  const std::string cell = std::to_string(config_.cell);
  m_cell_slots_ = &reg.counter("waran_cell_slots_total", {{"cell", cell}});
  m_cell_slot_overruns_ =
      &reg.counter("waran_cell_slot_overrun_total", {{"cell", cell}});
  m_cell_slot_wall_ns_ = &reg.histogram("waran_cell_slot_wall_ns", {{"cell", cell}});
}

void GnbMac::add_slice(const SliceConfig& config,
                       std::unique_ptr<IntraSliceScheduler> scheduler) {
  // A second slice under a taken id would otherwise be dropped while its
  // UEs joined the first one: refuse it in every build.
  if (slices_.contains(config.slice_id)) {
    throw std::invalid_argument("duplicate slice id " + std::to_string(config.slice_id));
  }
  SliceState state;
  state.config = config;
  state.scheduler = std::move(scheduler);
  auto& reg = obs::MetricsRegistry::global();
  // obs::Labels holds string_views: name the strings so they outlive it.
  const std::string cell = std::to_string(config_.cell);
  const std::string id = std::to_string(config.slice_id);
  obs::Labels labels = {{"cell", cell}, {"slice", id}};
  state.m_prb_granted = &reg.counter("waran_mac_prb_granted_total", labels);
  state.m_sched_faults = &reg.counter("waran_mac_sched_faults_total", labels);
  state.m_sanitized = &reg.counter("waran_mac_sanitized_allocs_total", labels);
  state.m_slots_scheduled = &reg.counter("waran_mac_slots_scheduled_total", labels);
  slices_.emplace(config.slice_id, std::move(state));
}

void GnbMac::set_inter_scheduler(std::unique_ptr<InterSliceScheduler> scheduler) {
  inter_ = std::move(scheduler);
}

void GnbMac::set_mcs_table(McsTable table) {
  mcs_table_ = table;
  for (auto& ue : ues_) ue->channel().set_mcs_table(table);
}

namespace {

/// Position of `rnti` in an RNTI-ordered vector of UE pointers (or where it
/// would go).
template <class Ues>
auto find_rnti(Ues& ues, uint32_t rnti) {
  return std::lower_bound(ues.begin(), ues.end(), rnti,
                          [](const auto& ue, uint32_t r) { return ue->rnti() < r; });
}

}  // namespace

uint32_t GnbMac::add_ue(uint32_t slice_id, Channel channel, TrafficSource traffic) {
  // The slice index needs the slice: an unknown id throws in every build.
  SliceState& slice = slices_.at(slice_id);
  channel.set_mcs_table(mcs_table_);
  uint32_t rnti = next_rnti_++;
  auto ue = std::make_unique<UeContext>(rnti, slice_id, std::move(channel),
                                        std::move(traffic), config_.pf_time_constant_slots);
  const auto pos = find_rnti(slice.ues, rnti) - slice.ues.begin();
  slice.ues.insert(slice.ues.begin() + pos, ue.get());
  slice.delivered.insert(slice.delivered.begin() + pos, SlotDelivery{});
  ues_.insert(find_rnti(ues_, rnti), std::move(ue));
  return rnti;
}

Status GnbMac::remove_ue(uint32_t rnti) {
  auto it = find_rnti(ues_, rnti);
  if (it == ues_.end() || (*it)->rnti() != rnti) return Error::not_found("no such UE");
  SliceState& slice = slices_.at((*it)->slice_id());
  const auto pos = find_rnti(slice.ues, rnti) - slice.ues.begin();
  slice.ues.erase(slice.ues.begin() + pos);
  slice.delivered.erase(slice.delivered.begin() + pos);
  ues_.erase(it);
  return {};
}

void GnbMac::build_request(SliceState& slice, uint32_t quota) {
  codec::SchedRequest& req = slice.request;
  req.slot = static_cast<uint32_t>(slot_);
  req.prb_quota = quota;
  req.ues.clear();
  double slots_per_s = 1e6 / config_.slot_us;
  for (const UeContext* ue : slice.ues) {
    if (ue->buffer_bytes() == 0) continue;
    codec::UeInfo info;
    info.rnti = ue->rnti();
    info.cqi = ue->channel().cqi();
    info.mcs = ue->channel().mcs();
    info.buffer_bytes = ue->buffer_bytes();
    info.tbs_per_prb = transport_block_bits(info.mcs, 1, mcs_table_);
    info.avg_tput_bps = ue->avg_tput_bps();
    info.achievable_bps = transport_block_bits(info.mcs, quota, mcs_table_) * slots_per_s;
    req.ues.push_back(info);
  }
}

void GnbMac::fallback_round_robin(const codec::SchedRequest& req,
                                  codec::SchedResponse& resp) {
  resp.allocs.clear();
  if (req.ues.empty() || req.prb_quota == 0) return;
  uint32_t n = static_cast<uint32_t>(req.ues.size());
  uint32_t share = req.prb_quota / n;
  uint32_t extra = req.prb_quota % n;
  // Rotate the starting UE by slot so leftovers distribute evenly.
  uint32_t start = req.slot % n;
  for (uint32_t i = 0; i < n; ++i) {
    const codec::UeInfo& ue = req.ues[(start + i) % n];
    uint32_t prbs = share + (i < extra ? 1 : 0);
    if (prbs > 0) resp.allocs.push_back({ue.rnti, prbs});
  }
}

void GnbMac::apply_response(SliceState& slice, const codec::SchedResponse& resp) {
  const uint32_t quota = slice.request.prb_quota;
  uint32_t remaining = quota;
  uint64_t sanitized_here = 0;
  for (const codec::SchedAlloc& alloc : resp.allocs) {
    if (remaining == 0) break;
    if (alloc.prbs == 0) continue;
    auto it = find_rnti(slice.ues, alloc.rnti);
    if (it == slice.ues.end() || (*it)->rnti() != alloc.rnti ||
        ((*it)->buffer_bytes() == 0 && !(*it)->harq_pending())) {
      // Plugin referenced a UE it does not own / that asked for nothing:
      // sanitize by dropping the grant (§6A).
      ++sanitized_here;
      continue;
    }
    uint32_t prbs = alloc.prbs;
    if (prbs > remaining) {
      // Over-allocation: clamp rather than fault.
      ++sanitized_here;
      prbs = remaining;
    }
    remaining -= prbs;
    UeContext& ue = **it;
    SlotDelivery& delivered = slice.delivered[it - slice.ues.begin()];

    if (config_.channel_errors && ue.harq_pending()) {
      // The grant retransmits the pending TB. Chase combining: every
      // retransmission lowers the residual error multiplicatively.
      double p_fail = ue.channel().bler();
      for (uint32_t a = 0; a < ue.harq_attempts(); ++a) p_fail *= ue.channel().bler();
      if (error_rng_.uniform() < p_fail) {
        ue.harq_retry();
        ++slice.stats.harq_retx;
        if (ue.harq_attempts() > kMaxHarqAttempts) {
          ue.harq_finish();  // give up; upper layers would recover
          ++slice.stats.tb_drops;
        }
      } else {
        delivered.harq_bits += ue.harq_finish();
      }
      continue;
    }

    uint32_t tbs = transport_block_bits(ue.channel().mcs(), prbs, mcs_table_);
    uint32_t deliverable = std::min<uint64_t>(tbs, static_cast<uint64_t>(ue.buffer_bytes()) * 8);
    if (config_.channel_errors && error_rng_.uniform() < ue.channel().bler()) {
      // The TB leaves the RLC queue either way (it was transmitted); with
      // HARQ it parks in the retransmission buffer, without it it is lost.
      ue.harq_start(deliverable);
      if (config_.enable_harq) {
        ++slice.stats.harq_retx;
      } else {
        ue.harq_finish();
        ++slice.stats.tb_drops;
      }
    } else {
      delivered.fresh_bits += deliverable;
    }
  }
  if (sanitized_here > 0) {
    slice.stats.sanitized_allocs += sanitized_here;
    slice.m_sanitized->add(sanitized_here);
    // One journal entry per sanitized response (not per grant): the journal
    // answers "which slice misbehaved in which slot", the counter above
    // carries the magnitude.
    journal_.record(obs::AnomalyKind::kSanitized, config_.domain,
                    "slice " + std::to_string(slice.config.slice_id),
                    std::to_string(sanitized_here) + " grant(s) dropped or clamped");
  }
  if (remaining < quota) slice.m_prb_granted->add(quota - remaining);
}

Status GnbMac::run_slot() {
  if (inter_ == nullptr) return Error::state("no inter-slice scheduler configured");
  // Slot alignment for every span/anomaly recorded below this frame, and
  // the outermost span of the slot trace hierarchy.
  obs::set_current_slot(slot_);
  obs::ObsSpan slot_span(obs::TraceCat::kMac, "slot",
                         static_cast<uint32_t>(slot_));
  const uint64_t slot_t0 = obs::now_ns();

  // Phases 1 and 2 walk each slice's members in RNTI order. A UE's
  // arrivals and channel step touch only that UE, so the walk order cannot
  // change a result.
  demands_.clear();
  order_.clear();
  // The slice load (rate windows, link adaptation) only for a scheduler
  // that reads it.
  const bool load = inter_->reads_slice_load();
  const double now = now_s();
  for (auto& [id, slice] : slices_) {
    SliceDemand d;
    d.config = &slice.config;
    double tbs_sum = 0;
    for (UeContext* ue : slice.ues) {
      // Phase 1: arrivals + channel.
      ue->begin_slot(config_.slot_us);
      // Phase 2: the slice's demand.
      const uint32_t backlog = ue->buffer_bytes();
      if (backlog > 0) ++d.active_ues;
      if (!load) continue;
      d.backlog_bytes += backlog;
      d.current_rate_bps += ue->rate_bps(now);
      if (backlog > 0) tbs_sum += transport_block_bits(ue->channel().mcs(), 1, mcs_table_);
    }
    if (load && d.active_ues > 0) d.est_bits_per_prb = tbs_sum / d.active_ues;
    demands_.push_back(d);
    order_.push_back(&slice);
  }
  // Phase 3: inter-slice quotas.
  quotas_.resize(order_.size());
  {
    obs::ObsSpan inter_span(obs::TraceCat::kMac, "inter_slice");
    inter_->allocate(config_.n_prbs, demands_, quotas_);
  }

  // Phase 4 per slice: request, schedule, apply.
  for (size_t i = 0; i < order_.size(); ++i) {
    SliceState& slice = *order_[i];
    slice.stats.last_quota = quotas_[i];
    if (quotas_[i] == 0 || demands_[i].active_ues == 0) continue;
    build_request(slice, quotas_[i]);
    const codec::SchedRequest& req = slice.request;
    if (req.ues.empty()) continue;
    ++slice.stats.slots_scheduled;
    slice.m_slots_scheduled->add();

    obs::ObsSpan slice_span(
        obs::TraceCat::kSlice,
        slice.config.name.empty() ? std::string_view("slice") : slice.config.name,
        slice.config.slice_id);
    Status st = slice.scheduler->schedule_into(req, slice.response);
    if (!st.ok()) {
      // Contained fault: host-side default scheduler takes this slot (§6A).
      ++slice.stats.scheduler_faults;
      slice.m_sched_faults->add();
      slice.stats.last_error = st.error().message;
      WARAN_LOG(kDebug, "mac",
                "slice " << slice.config.slice_id
                         << " scheduler fault: " << st.error().message);
      fallback_round_robin(req, slice.response);
    }
    apply_response(slice, slice.response);
  }

  // Phase 5: deliver (every UE ticks its EWMA, scheduled or not). Each UE
  // belongs to exactly one slice, and complete_slot touches only its own UE.
  double slots_per_s = 1e6 / config_.slot_us;
  double deliver_time = now_s();
  for (auto& [id, slice] : slices_) {
    for (size_t i = 0; i < slice.ues.size(); ++i) {
      SlotDelivery& d = slice.delivered[i];
      slice.ues[i]->complete_slot(d.fresh_bits, d.harq_bits, deliver_time, slots_per_s);
      d = {};
    }
  }

  // Slot-deadline accounting: in a real-time deployment the slot budget is
  // config_.slot_us of wall time; an overrun is the anomaly the paper's
  // per-call fuel budgets exist to prevent.
  uint64_t slot_wall_ns = obs::now_ns() - slot_t0;
  if (slot_padding_) slot_wall_ns += slot_padding_();
  m_slots_->add();
  m_slot_wall_ns_->add(slot_wall_ns);
  m_cell_slots_->add();
  m_cell_slot_wall_ns_->add(slot_wall_ns);
  if (slot_wall_ns > static_cast<uint64_t>(config_.slot_us) * 1000) {
    m_slot_overruns_->add();
    m_cell_slot_overruns_->add();
    journal_.record(
        obs::AnomalyKind::kSlotOverrun, config_.domain, "slot",
        "slot processing took " + std::to_string(slot_wall_ns) + " ns (budget " +
            std::to_string(static_cast<uint64_t>(config_.slot_us) * 1000) + " ns)");
  }

  ++slot_;
  return {};
}

Status GnbMac::run_slots(uint32_t n) {
  for (uint32_t i = 0; i < n; ++i) {
    WARAN_CHECK_OK(run_slot());
  }
  return {};
}

void GnbMac::add_telemetry(obs::CellTelemetry& t) const {
  const uint64_t slots = m_cell_slots_->value();
  t.slots += slots;
  t.slot_overruns += m_cell_slot_overruns_->value();
  t.prb_capacity += slots * config_.n_prbs;
  t.slot_wall_ns.merge(*m_cell_slot_wall_ns_);
  for (const auto& [id, slice] : slices_) {
    t.prb_granted += slice.m_prb_granted->value();
    t.sched_faults += slice.m_sched_faults->value();
    t.sanitized_allocs += slice.m_sanitized->value();
    t.slots_scheduled += slice.m_slots_scheduled->value();
  }
}

const UeContext* GnbMac::ue(uint32_t rnti) const {
  auto it = find_rnti(ues_, rnti);
  return it == ues_.end() || (*it)->rnti() != rnti ? nullptr : it->get();
}

UeContext* GnbMac::ue(uint32_t rnti) {
  auto it = find_rnti(ues_, rnti);
  return it == ues_.end() || (*it)->rnti() != rnti ? nullptr : it->get();
}

std::vector<uint32_t> GnbMac::ue_rntis() const {
  std::vector<uint32_t> rntis;
  rntis.reserve(ues_.size());
  for (const auto& ue : ues_) rntis.push_back(ue->rnti());
  return rntis;
}

double GnbMac::slice_rate_bps(uint32_t slice_id) const {
  auto it = slices_.find(slice_id);
  if (it == slices_.end()) return 0.0;
  double sum = 0;
  double now = now_s();
  for (const UeContext* ue : it->second.ues) sum += ue->rate_bps(now);
  return sum;
}

const SliceStats* GnbMac::slice_stats(uint32_t slice_id) const {
  auto it = slices_.find(slice_id);
  return it == slices_.end() ? nullptr : &it->second.stats;
}

const SliceConfig* GnbMac::slice_config(uint32_t slice_id) const {
  auto it = slices_.find(slice_id);
  return it == slices_.end() ? nullptr : &it->second.config;
}

std::vector<uint32_t> GnbMac::slice_ids() const {
  std::vector<uint32_t> ids;
  ids.reserve(slices_.size());
  for (const auto& [id, _] : slices_) ids.push_back(id);
  return ids;
}

}  // namespace waran::ran
