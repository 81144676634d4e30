// Inter-slice scheduler driven by RIC control: quotas come from a table the
// gNB agent updates when the SLA xApp issues set_slice_quota actions. Until
// the RIC says otherwise, active slices split the carrier evenly.
#pragma once

#include <algorithm>
#include <map>

#include "ran/scheduler_iface.h"

namespace waran::ric {

class QuotaTableInterScheduler final : public ran::InterSliceScheduler {
 public:
  void set_quota(uint32_t slice_id, uint32_t prbs) { table_[slice_id] = prbs; }

  void allocate(uint32_t n_prbs, std::span<const ran::SliceDemand> demands,
                std::span<uint32_t> quotas) override {
    std::fill(quotas.begin(), quotas.end(), 0);
    uint32_t active = 0;
    for (const auto& d : demands) {
      if (d.active_ues > 0) ++active;
    }
    uint32_t remaining = n_prbs;
    for (size_t i = 0; i < demands.size(); ++i) {
      if (demands[i].active_ues == 0) continue;
      auto it = table_.find(demands[i].config->slice_id);
      uint32_t want = it != table_.end() ? it->second : n_prbs / std::max(1u, active);
      quotas[i] = std::min(want, remaining);
      remaining -= quotas[i];
    }
  }

  bool reads_slice_load() const override { return false; }
  const char* name() const override { return "ric-quota-table"; }

 private:
  std::map<uint32_t, uint32_t> table_;
};

}  // namespace waran::ric
