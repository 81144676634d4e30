// PHY-layer lookup tables, shaped after 3GPP TS 38.214: CQI -> spectral
// efficiency (Table 5.2.2.1-2, 64QAM), MCS -> modulation/code-rate
// (Table 5.1.3.1-1), and a simplified transport-block-size model
//   TBS(mcs, n_prb) = floor(se(mcs) * kDataResPerPrb * n_prb) bits/slot,
// which at MCS 28 over 52 PRBs (10 MHz, 15 kHz SCS — the paper's testbed
// configuration) yields ~45 Mb/s, matching srsRAN's reported DL rates.
#pragma once

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>

namespace waran::ran {

inline constexpr uint32_t kMaxCqi = 15;
inline constexpr uint32_t kMaxMcs = 28;

/// Usable resource elements per PRB per slot after DMRS/PDCCH overhead
/// (12 subcarriers x 14 symbols = 168 REs, ~94% for data).
inline constexpr uint32_t kDataResPerPrb = 158;

/// Which 38.214 CQI/MCS table pair link adaptation uses. kQam256 is the
/// high-end table (MCS 0..27, up to ~7.4 bits/RE) that the RIC can switch a
/// cell to through the set_cqi_table control action (paper §4B names
/// "changing the configuration of the CQI table" as a host function).
enum class McsTable : uint8_t { kQam64 = 0, kQam256 = 1 };

/// Highest valid MCS index in `table` (28 for QAM64, 27 for QAM256).
constexpr uint32_t max_mcs(McsTable table) { return table == McsTable::kQam256 ? 27 : 28; }

/// Spectral efficiency (bits per resource element) for a CQI index, 0 for
/// CQI 0 (out of range). CQI is clamped to [0, 15].
double cqi_spectral_efficiency(uint32_t cqi, McsTable table = McsTable::kQam64);

/// Spectral efficiency for an MCS index; MCS clamped to the table maximum.
double mcs_spectral_efficiency(uint32_t mcs, McsTable table = McsTable::kQam64);

/// Modulation order (bits/symbol: 2, 4, 6 or 8) for an MCS index.
uint32_t mcs_modulation_order(uint32_t mcs, McsTable table = McsTable::kQam64);

/// Highest MCS whose spectral efficiency does not exceed the CQI's
/// (the link adaptation the gNB applies to CQI reports). CQI 0 -> MCS 0.
uint32_t mcs_from_cqi(uint32_t cqi, McsTable table = McsTable::kQam64);

/// Lowest CQI able to carry the given MCS (inverse mapping, for tests and
/// for pinning MCS in the Fig. 5b experiment).
uint32_t cqi_from_mcs(uint32_t mcs, McsTable table = McsTable::kQam64);

namespace detail {
/// Row of `table` in the per-table lookup arrays.
constexpr size_t table_index(McsTable table) { return table == McsTable::kQam256 ? 1 : 0; }

/// se(mcs) * kDataResPerPrb for every MCS of each table: the TBS model's
/// one factor per MCS, evaluated at compile time in phy_tables.cpp.
extern const std::array<std::array<double, kMaxMcs + 1>, 2> kSeRes;
}  // namespace detail

/// Transport block size in BITS for one slot over `n_prb` PRBs at `mcs`
/// (MCS clamped to the table maximum). The product is non-negative, so the
/// truncating cast is the model's floor.
inline uint32_t transport_block_bits(uint32_t mcs, uint32_t n_prb,
                                     McsTable table = McsTable::kQam64) {
  return static_cast<uint32_t>(
      detail::kSeRes[detail::table_index(table)][std::min(mcs, max_mcs(table))] * n_prb);
}

/// SNR (dB) -> CQI mapping used by the channel model. Piecewise-linear
/// thresholds: CQI 1 at ~-6 dB up to CQI 15 at ~22 dB.
uint32_t cqi_from_snr_db(double snr_db);

}  // namespace waran::ran
