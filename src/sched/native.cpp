#include "sched/native.h"

#include <algorithm>
#include <cmath>
#include <numeric>

namespace waran::sched {

using codec::SchedRequest;
using codec::SchedResponse;

namespace {

/// PRBs needed to drain `buffer_bytes` at `tbs_per_prb` bits/PRB.
uint32_t prbs_to_drain(uint32_t buffer_bytes, uint32_t tbs_per_prb) {
  if (tbs_per_prb == 0) return 0;
  uint64_t bits = static_cast<uint64_t>(buffer_bytes) * 8;
  return static_cast<uint32_t>((bits + tbs_per_prb - 1) / tbs_per_prb);
}

/// Greedy buffer-drain: repeatedly grant the not-yet-served UE with the
/// highest metric as many PRBs as it needs, until the quota runs out.
/// Ties break toward the lower request index (deterministic; the W plugin
/// implementations replicate this exactly).
template <typename MetricFn>
SchedResponse greedy_drain(const SchedRequest& req, MetricFn metric) {
  SchedResponse resp;
  std::vector<bool> served(req.ues.size(), false);
  uint32_t remaining = req.prb_quota;
  while (remaining > 0) {
    double best = -1.0;
    size_t best_i = req.ues.size();
    for (size_t i = 0; i < req.ues.size(); ++i) {
      if (served[i]) continue;
      const codec::UeInfo& ue = req.ues[i];
      if (ue.buffer_bytes == 0 || ue.tbs_per_prb == 0) continue;
      double m = metric(ue);
      if (m > best) {
        best = m;
        best_i = i;
      }
    }
    if (best_i == req.ues.size()) break;
    served[best_i] = true;
    const codec::UeInfo& ue = req.ues[best_i];
    uint32_t grant = std::min(remaining, prbs_to_drain(ue.buffer_bytes, ue.tbs_per_prb));
    if (grant > 0) {
      resp.allocs.push_back({ue.rnti, grant});
      remaining -= grant;
    }
  }
  return resp;
}

}  // namespace

Result<SchedResponse> RrScheduler::schedule(const SchedRequest& req) {
  SchedResponse resp;
  uint32_t n = static_cast<uint32_t>(req.ues.size());
  if (n == 0 || req.prb_quota == 0) return resp;
  uint32_t share = req.prb_quota / n;
  uint32_t extra = req.prb_quota % n;
  uint32_t start = req.slot % n;
  for (uint32_t i = 0; i < n; ++i) {
    const codec::UeInfo& ue = req.ues[(start + i) % n];
    uint32_t prbs = share + (i < extra ? 1 : 0);
    if (prbs > 0) resp.allocs.push_back({ue.rnti, prbs});
  }
  return resp;
}

Result<SchedResponse> MtScheduler::schedule(const SchedRequest& req) {
  return greedy_drain(req, [](const codec::UeInfo& ue) {
    return static_cast<double>(ue.tbs_per_prb);
  });
}

Result<SchedResponse> PfScheduler::schedule(const SchedRequest& req) {
  return greedy_drain(req, [](const codec::UeInfo& ue) {
    // Floor on the average avoids divide-by-zero for newly attached UEs and
    // bounds the cold-start boost.
    double denom = std::max(ue.avg_tput_bps, 1000.0);
    return ue.achievable_bps / denom;
  });
}

Result<SchedResponse> DrrScheduler::schedule(const SchedRequest& req) {
  SchedResponse resp;
  // Active UEs this slot (backlogged, usable channel).
  std::vector<size_t> active;
  for (size_t i = 0; i < req.ues.size(); ++i) {
    if (req.ues[i].buffer_bytes > 0 && req.ues[i].tbs_per_prb > 0) active.push_back(i);
  }
  if (active.empty() || req.prb_quota == 0) return resp;

  // Credit accrual: quota / n_active PRBs per active UE, capped at 4x quota.
  // The arithmetic order below is mirrored exactly by the W plugin.
  double quantum = static_cast<double>(req.prb_quota) / static_cast<double>(active.size());
  double cap = 4.0 * static_cast<double>(req.prb_quota);
  for (size_t i : active) {
    uint32_t rnti = req.ues[i].rnti;
    Entry* entry = nullptr;
    for (Entry& e : table_) {
      if (e.rnti == rnti) {
        entry = &e;
        break;
      }
    }
    if (entry == nullptr) {
      if (table_.size() < kMaxTable) {
        table_.push_back({rnti, 0.0});
        entry = &table_.back();
      } else {
        // Evict the entry with the smallest deficit (first on ties).
        size_t victim = 0;
        for (size_t k = 1; k < table_.size(); ++k) {
          if (table_[k].deficit < table_[victim].deficit) victim = k;
        }
        table_[victim] = {rnti, 0.0};
        entry = &table_[victim];
      }
    }
    entry->deficit = entry->deficit + quantum;
    if (entry->deficit > cap) entry->deficit = cap;
  }

  // Serve in order of accumulated credit (max first; ties -> earlier
  // request index). Grants are bounded by credit, need, and the quota.
  std::vector<bool> served(req.ues.size(), false);
  uint32_t remaining = req.prb_quota;
  while (remaining > 0) {
    double best = -1.0;
    size_t best_i = req.ues.size();
    for (size_t i : active) {
      if (served[i]) continue;
      double d = deficit(req.ues[i].rnti);
      if (d > best) {
        best = d;
        best_i = i;
      }
    }
    if (best_i == req.ues.size()) break;
    served[best_i] = true;
    const codec::UeInfo& ue = req.ues[best_i];
    uint32_t credit_prbs = static_cast<uint32_t>(best);  // trunc, matches i32()
    uint32_t grant = std::min({remaining, credit_prbs,
                               prbs_to_drain(ue.buffer_bytes, ue.tbs_per_prb)});
    if (grant > 0) {
      resp.allocs.push_back({ue.rnti, grant});
      remaining -= grant;
      for (Entry& e : table_) {
        if (e.rnti == ue.rnti) {
          e.deficit = e.deficit - static_cast<double>(grant);
          break;
        }
      }
    }
  }
  return resp;
}

double DrrScheduler::deficit(uint32_t rnti) const {
  for (const Entry& e : table_) {
    if (e.rnti == rnti) return e.deficit;
  }
  return 0.0;
}

void WeightedShareInterScheduler::allocate(uint32_t n_prbs,
                                           std::span<const ran::SliceDemand> demands,
                                           std::span<uint32_t> quotas) {
  std::fill(quotas.begin(), quotas.end(), 0);
  double weight_sum = 0;
  for (const ran::SliceDemand& d : demands) {
    if (d.active_ues > 0) weight_sum += d.config->weight;
  }
  if (weight_sum <= 0) return;
  uint32_t assigned = 0;
  for (size_t i = 0; i < demands.size(); ++i) {
    if (demands[i].active_ues == 0) continue;
    quotas[i] = static_cast<uint32_t>(n_prbs * demands[i].config->weight / weight_sum);
    assigned += quotas[i];
  }
  // Distribute rounding leftovers to demanding slices in index order.
  for (size_t i = 0; assigned < n_prbs && i < demands.size(); ++i) {
    if (demands[i].active_ues == 0) continue;
    ++quotas[i];
    ++assigned;
  }
}

void TargetRateInterScheduler::allocate(uint32_t n_prbs,
                                        std::span<const ran::SliceDemand> demands,
                                        std::span<uint32_t> quotas) {
  needed_.assign(demands.size(), 0.0);
  double total_needed = 0;
  for (size_t i = 0; i < demands.size(); ++i) {
    const ran::SliceDemand& d = demands[i];
    if (d.active_ues == 0 || d.est_bits_per_prb <= 0 || d.config->target_rate_bps <= 0) {
      continue;
    }
    SliceState& st = state_[d.config->slice_id];
    // Integral feedback on the measured trailing-second rate, with a small
    // deadband so PRB dithering doesn't chase noise.
    if (d.current_rate_bps > d.config->target_rate_bps * 1.02) {
      st.correction_prbs -= gain_;
    } else if (d.current_rate_bps > 0 &&
               d.current_rate_bps < d.config->target_rate_bps * 0.98) {
      st.correction_prbs += gain_;
    }
    st.correction_prbs = std::clamp(st.correction_prbs, -static_cast<double>(n_prbs),
                                    static_cast<double>(n_prbs));

    double base = d.config->target_rate_bps / (d.est_bits_per_prb * slots_per_s_);
    needed_[i] = std::clamp(base + st.correction_prbs, 0.0, 16.0 * n_prbs);
    total_needed += needed_[i];
  }
  // Oversubscribed: scale every need down proportionally.
  double scale = total_needed > n_prbs ? n_prbs / total_needed : 1.0;

  std::fill(quotas.begin(), quotas.end(), 0);
  uint32_t assigned = 0;
  for (size_t i = 0; i < demands.size(); ++i) {
    if (needed_[i] <= 0) continue;
    // Fractional provisioning: carry the remainder across slots so the
    // long-run average equals the (scaled) need exactly.
    SliceState& st = state_[demands[i].config->slice_id];
    st.credit += needed_[i] * scale;
    uint32_t q = static_cast<uint32_t>(st.credit);
    q = std::min(q, n_prbs - assigned);
    st.credit -= q;
    quotas[i] = q;
    assigned += q;
  }
}

void PriorityInterScheduler::allocate(uint32_t n_prbs,
                                      std::span<const ran::SliceDemand> demands,
                                      std::span<uint32_t> quotas) {
  std::fill(quotas.begin(), quotas.end(), 0);
  // Stable insertion sort by descending weight: equal weights keep index
  // order, and the few slices of a cell sort in place.
  order_.resize(demands.size());
  std::iota(order_.begin(), order_.end(), 0);
  for (size_t i = 1; i < order_.size(); ++i) {
    const size_t idx = order_[i];
    const double w = demands[idx].config->weight;
    size_t j = i;
    for (; j > 0 && w > demands[order_[j - 1]].config->weight; --j) order_[j] = order_[j - 1];
    order_[j] = idx;
  }
  uint32_t remaining = n_prbs;
  for (size_t i : order_) {
    if (remaining == 0) break;
    const ran::SliceDemand& d = demands[i];
    if (d.active_ues == 0 || d.est_bits_per_prb <= 0) continue;
    uint64_t bits = static_cast<uint64_t>(d.backlog_bytes) * 8;
    uint32_t want = static_cast<uint32_t>(
        std::ceil(static_cast<double>(bits) / d.est_bits_per_prb));
    quotas[i] = std::min(remaining, want);
    remaining -= quotas[i];
  }
}

std::unique_ptr<ran::IntraSliceScheduler> make_native_scheduler(const std::string& name) {
  if (name == "rr") return std::make_unique<RrScheduler>();
  if (name == "pf") return std::make_unique<PfScheduler>();
  if (name == "mt") return std::make_unique<MtScheduler>();
  if (name == "drr") return std::make_unique<DrrScheduler>();
  return nullptr;
}

}  // namespace waran::sched
