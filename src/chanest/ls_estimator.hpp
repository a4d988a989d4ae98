// Least-squares MIMO channel estimation from the HT-LTF symbols, using the
// orthogonal P-matrix despreading, plus optional frequency smoothing.
#pragma once

#include <cstddef>
#include <vector>

#include "dsp/sample_grid.hpp"
#include "dsp/types.hpp"
#include "eq/matrix.hpp"
#include "ofdm/subcarriers.hpp"

namespace mimonet::chanest {

using dsp::cf32;

/// Per-subcarrier MIMO channel estimate. h[rx][ss][bin] spans all 64 FFT
/// bins; only occupied bins carry meaningful values. The estimate is the
/// first nrx x nss rows of h: a reused estimate keeps the rows of larger
/// earlier ones, so read nrx and nss, never h's sizes.
struct MimoChannelEstimate {
  std::size_t nrx = 0;
  std::size_t nss = 0;
  std::vector<std::vector<std::vector<cf32>>> h;

  /// Set nrx x nss and zero those rows' 64 bins, reusing existing nested
  /// storage and never shrinking it (so a warm workspace stays
  /// allocation-free when the stream count changes).
  void resize_zeroed(std::size_t nrx_in, std::size_t nss_in);

  /// Channel matrix (nrx x nss) at one FFT bin, for the equalizer.
  [[nodiscard]] eq::CMatrix at_bin(std::size_t bin) const;

  /// at_bin without the return-value copy.
  void at_bin_into(std::size_t bin, eq::CMatrix& m) const;

  /// Mean squared error against a reference channel over the given bins.
  [[nodiscard]] double mse_against(
      const std::vector<std::vector<std::vector<cf32>>>& reference,
      const std::vector<std::size_t>& bins) const;
};

/// LS estimator: given the FFT grids of the received HT-LTF symbols, invert
/// the known LTF sequence and the P-matrix spreading.
class LsChannelEstimator {
 public:
  LsChannelEstimator(std::size_t nrx, std::size_t nss);

  /// @param ltf_grids [rx][ltf_symbol][bin]: 64-bin FFTs of each received
  ///        HT-LTF symbol (CP stripped). ltf_symbol count must equal
  ///        wifi::num_ht_ltfs(nss).
  [[nodiscard]] MimoChannelEstimate estimate(
      const std::vector<std::vector<std::vector<cf32>>>& ltf_grids) const;

  /// estimate into caller storage (nested vectors reused, capacity kept).
  void estimate_into(const std::vector<std::vector<std::vector<cf32>>>& ltf_grids,
                     MimoChannelEstimate& est) const;

  /// estimate from a contiguous [rx][ltf_symbol][bin] tensor (the hot path:
  /// the receiver FFTs HT-LTF symbols straight into tensor rows).
  void estimate_into(const dsp::IqTensor& ltf_grids, MimoChannelEstimate& est) const;

  /// Legacy (combined) channel estimate per RX antenna from the two L-LTF
  /// periods: grids[rx][rep][bin] with rep in {0, 1}. Returns h[rx][bin].
  /// This combined response includes the CSD of all TX chains and is what
  /// the L-SIG/HT-SIG decoder equalizes with.
  [[nodiscard]] static std::vector<std::vector<cf32>> estimate_legacy(
      const std::vector<std::vector<std::vector<cf32>>>& grids);

  /// estimate_legacy into caller storage (rows reused, capacity kept).
  static void estimate_legacy_into(
      const std::vector<std::vector<std::vector<cf32>>>& grids,
      std::vector<std::vector<cf32>>& h);

  /// estimate_legacy from a contiguous [rx][rep][bin] tensor.
  static void estimate_legacy_into(const dsp::IqTensor& grids,
                                   std::vector<std::vector<cf32>>& h);

 private:
  std::size_t nrx_;
  std::size_t nss_;
};

/// 3-tap frequency smoothing across adjacent occupied subcarriers (reduces
/// estimation noise at the cost of bias under long delay spread). Operates
/// in place on the given bins, which must be sorted by logical index.
///
/// `csd_per_stream` (one entry per spatial stream, samples) lets the
/// smoother compensate the known cyclic-shift-diversity phase ramp before
/// averaging: without it, a CSD of -8 samples rotates the channel 45
/// degrees per bin and the smoother would systematically attenuate that
/// stream's estimate. Pass empty to skip compensation (no-CSD channels).
void smooth_frequency(MimoChannelEstimate& est, const std::vector<std::size_t>& bins,
                      std::span<const int> csd_per_stream = {});

}  // namespace mimonet::chanest
