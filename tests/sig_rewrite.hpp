// Re-encode the L-SIG and HT-SIG symbols of a transmitted PPDU, for tests
// that plant SIG fields the transmitter would never send (a false sync's
// lucky CRC-8 made deliberate). The symbols are built exactly as
// Transmitter builds them: BPSK / QBPSK carriers on the legacy plan, pilot
// polarities 0-2, each chain's legacy cyclic shift, the 52-tone gain and
// the 1/sqrt(chains) power normalization.
#pragma once

#include <array>
#include <cmath>
#include <cstdint>
#include <span>
#include <vector>

#include "core/phy_config.hpp"
#include "dsp/fft.hpp"
#include "ofdm/pilots.hpp"
#include "ofdm/subcarriers.hpp"
#include "ofdm/symbol.hpp"
#include "wifi/preamble.hpp"
#include "wifi/signal_field.hpp"

namespace mimonet::testutil {

/// Overwrite the SIG symbols of the PPDU `chains` (one per transmit chain,
/// as Transmitter::transmit returns them, starting at the L-STF) with the
/// encodings of `lsig` and `htsig`. encode_lsig / encode_htsig give the
/// fields valid parity and CRC-8 whatever their contents.
inline void rewrite_sig_symbols(std::vector<std::vector<dsp::cf32>>& chains,
                                const wifi::LSig& lsig, const wifi::HtSig& htsig) {
  static const ofdm::SubcarrierMap legacy_map(ofdm::CarrierPlan::kLegacy);
  static const dsp::FftPlan plan(ofdm::kFftSize);
  const auto lsig_carriers = wifi::map_sig_field(wifi::encode_lsig(lsig), false);
  const auto htsig_carriers = wifi::map_sig_field(wifi::encode_htsig(htsig), true);
  const std::array<std::span<const dsp::cf32>, 3> symbols{
      std::span<const dsp::cf32>(lsig_carriers),
      std::span<const dsp::cf32>(htsig_carriers).first(48),
      std::span<const dsp::cf32>(htsig_carriers).subspan(48, 48)};
  const core::FrameLayout fl;
  const float gain = wifi::tone_gain(52);
  const float norm = 1.0F / std::sqrt(static_cast<float>(chains.size()));
  std::vector<dsp::cf32> out;
  std::vector<dsp::cf32> scratch;
  for (std::size_t chain = 0; chain < chains.size(); ++chain) {
    const int csd = wifi::legacy_csd_samples(chain, chains.size());
    for (std::size_t s = 0; s < symbols.size(); ++s) {
      std::array<dsp::cf32, ofdm::kFftSize> grid{};
      for (std::size_t i = 0; i < symbols[s].size(); ++i) {
        grid[legacy_map.data_bins()[i]] = symbols[s][i];
      }
      const auto pilots = ofdm::legacy_pilot_values(s);
      for (std::size_t p = 0; p < 4; ++p) grid[legacy_map.pilot_bins()[p]] = pilots[p];
      wifi::apply_cyclic_shift(grid, csd);
      out.clear();
      ofdm::SymbolModulator::modulate_grid(plan, grid, ofdm::kCpLen, out, scratch);
      const std::size_t at = fl.lsig_offset() + s * ofdm::kSymLen;
      for (std::size_t i = 0; i < out.size(); ++i) {
        chains[chain][at + i] = (out[i] * gain) * norm;
      }
    }
  }
}

}  // namespace mimonet::testutil
