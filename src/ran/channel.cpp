#include "ran/channel.h"

#include <algorithm>
#include <cmath>

namespace waran::ran {

Channel Channel::fading(FadingParams params, uint64_t seed) {
  Channel c;
  c.pinned_ = false;
  c.params_ = params;
  c.rng_ = Xoshiro256(seed);
  c.snr_db_ = params.mean_snr_db;
  c.cqi_ = cqi_from_snr_db(c.snr_db_);
  c.mcs_ = mcs_from_cqi(c.cqi_);
  return c;
}

Channel Channel::pinned_mcs(uint32_t mcs) {
  Channel c;
  c.pinned_ = true;
  c.mcs_ = mcs > kMaxMcs ? kMaxMcs : mcs;
  c.cqi_ = cqi_from_mcs(c.mcs_);
  c.snr_db_ = 0.0;
  return c;
}

void Channel::step() {
  if (pinned_) return;
  // AR(1): x' = mean + rho (x - mean) + sqrt(1 - rho^2) sigma n
  constexpr double rho = 0.98;
  double innovation = std::sqrt(1.0 - rho * rho) * params_.sigma_db * rng_.normal();
  snr_db_ = params_.mean_snr_db + rho * (snr_db_ - params_.mean_snr_db) + innovation;
  cqi_ = cqi_from_snr_db(snr_db_);
  mcs_ = mcs_from_cqi(cqi_, table_);
}

void Channel::set_mcs_table(McsTable table) {
  table_ = table;
  if (pinned_) {
    mcs_ = std::min(mcs_, max_mcs(table));
    cqi_ = cqi_from_mcs(mcs_, table);
  } else {
    mcs_ = mcs_from_cqi(cqi_, table);
  }
}

double Channel::bler() const {
  if (fixed_bler_ >= 0.0) return fixed_bler_;
  if (pinned_) return 0.0;
  // SNR threshold at which link adaptation would pick this MCS: invert the
  // cqi_from_snr_db ramp (CQI 1 at -6 dB, 2 dB per step).
  double thr_db = -6.0 + 2.0 * (cqi_from_mcs(mcs_, table_) - 1.0);
  double margin = snr_db_ - thr_db;
  return 1.0 / (1.0 + std::exp(2.0 * (margin + 2.0)));
}

}  // namespace waran::ran
