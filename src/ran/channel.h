// Per-UE downlink channel model. Two modes:
//   - Fading: first-order Gauss–Markov SNR process around a mean (block
//     fading), quantized to CQI via the PHY tables. This replaces the
//     paper's over-the-air channel between the gNB SDR and the UEs.
//   - Pinned: fixed MCS, as the paper does in Fig. 5b ("3 UEs ... with
//     different MCSs", 20/24/28).
#pragma once

#include <cstdint>

#include "common/rng.h"
#include "ran/phy_tables.h"

namespace waran::ran {

class Channel {
 public:
  /// The SNR process moves with a per-slot AR(1) coefficient of 0.98.
  struct FadingParams {
    double mean_snr_db = 18.0;
    double sigma_db = 3.0;  ///< stationary std-dev of the SNR process
  };

  /// Fading channel with the given seed (deterministic).
  static Channel fading(FadingParams params, uint64_t seed);

  /// Channel pinned to a fixed MCS (never varies).
  static Channel pinned_mcs(uint32_t mcs);

  /// Advances one slot; updates cqi()/mcs().
  void step();

  /// Switches the CQI/MCS table used for link adaptation (RIC-controlled
  /// via set_cqi_table). Pinned channels keep their pinned MCS.
  void set_mcs_table(McsTable table);
  McsTable mcs_table() const { return table_; }

  uint32_t cqi() const { return cqi_; }
  uint32_t mcs() const { return mcs_; }
  double snr_db() const { return snr_db_; }

  /// Block error probability of a transport block sent at the current MCS
  /// under the current SNR (logistic around the MCS's switching threshold;
  /// ~2% at the link-adaptation operating point, 50% two dB below it).
  /// Pinned channels report 0 unless a fixed BLER was set.
  double bler() const;
  /// Forces a fixed BLER (useful with pinned-MCS channels in tests).
  void set_fixed_bler(double bler) { fixed_bler_ = bler; }

 private:
  Channel() : rng_(0) {}

  bool pinned_ = false;
  FadingParams params_{};
  Xoshiro256 rng_;
  double snr_db_ = 0.0;
  uint32_t cqi_ = 0;
  uint32_t mcs_ = 0;
  McsTable table_ = McsTable::kQam64;
  double fixed_bler_ = -1.0;  // <0: derive from SNR
};

}  // namespace waran::ran
