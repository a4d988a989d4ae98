#include "chanest/ls_estimator.hpp"

#include <array>
#include <stdexcept>

#include "wifi/preamble.hpp"

namespace mimonet::chanest {

void MimoChannelEstimate::resize_zeroed(std::size_t nrx_in, std::size_t nss_in) {
  nrx = nrx_in;
  nss = nss_in;
  // Grow only: shrinking would free the rows a later, larger estimate
  // needs again.
  if (h.size() < nrx) h.resize(nrx);
  for (std::size_t r = 0; r < nrx; ++r) {
    if (h[r].size() < nss) h[r].resize(nss);
    for (std::size_t s = 0; s < nss; ++s) {
      h[r][s].assign(ofdm::kFftSize, cf32{0.0F, 0.0F});
    }
  }
}

eq::CMatrix MimoChannelEstimate::at_bin(std::size_t bin) const {
  eq::CMatrix m(nrx, nss);
  for (std::size_t r = 0; r < nrx; ++r) {
    for (std::size_t s = 0; s < nss; ++s) {
      m(r, s) = dsp::cf64(h[r][s][bin]);
    }
  }
  return m;
}

void MimoChannelEstimate::at_bin_into(std::size_t bin, eq::CMatrix& m) const {
  m = eq::CMatrix(nrx, nss);
  for (std::size_t r = 0; r < nrx; ++r) {
    for (std::size_t s = 0; s < nss; ++s) {
      m(r, s) = dsp::cf64(h[r][s][bin]);
    }
  }
}

double MimoChannelEstimate::mse_against(
    const std::vector<std::vector<std::vector<cf32>>>& reference,
    const std::vector<std::size_t>& bins) const {
  double acc = 0.0;
  std::size_t count = 0;
  for (std::size_t r = 0; r < nrx; ++r) {
    for (std::size_t s = 0; s < nss; ++s) {
      for (const std::size_t b : bins) {
        acc += static_cast<double>(dsp::mag_sqr(h[r][s][b] - reference[r][s][b]));
        ++count;
      }
    }
  }
  return (count > 0) ? acc / static_cast<double>(count) : 0.0;
}

LsChannelEstimator::LsChannelEstimator(std::size_t nrx, std::size_t nss)
    : nrx_(nrx), nss_(nss) {
  if (nrx == 0 || nss == 0 || nss > 4) {
    throw std::invalid_argument("LsChannelEstimator: bad dimensions");
  }
}

void LsChannelEstimator::estimate_into(
    const std::vector<std::vector<std::vector<cf32>>>& ltf_grids,
    MimoChannelEstimate& est) const {
  const std::size_t n_ltf = wifi::num_ht_ltfs(nss_);
  if (ltf_grids.size() != nrx_) {
    throw std::invalid_argument("LsChannelEstimator: wrong antenna count");
  }
  for (const auto& per_rx : ltf_grids) {
    if (per_rx.size() != n_ltf) {
      throw std::invalid_argument("LsChannelEstimator: wrong LTF symbol count");
    }
    for (const auto& grid : per_rx) {
      if (grid.size() != ofdm::kFftSize) {
        throw std::invalid_argument("LsChannelEstimator: grid must be 64 bins");
      }
    }
  }

  const auto seq = wifi::htltf_sequence();  // logical -28..28
  est.resize_zeroed(nrx_, nss_);

  for (int k = -28; k <= 28; ++k) {
    const float ltf_val = seq[static_cast<std::size_t>(k + 28)];
    if (ltf_val == 0.0F) continue;  // DC
    const std::size_t bin = ofdm::SubcarrierMap::logical_to_bin(k);
    for (std::size_t r = 0; r < nrx_; ++r) {
      for (std::size_t s = 0; s < nss_; ++s) {
        dsp::cf64 acc{0.0, 0.0};
        for (std::size_t n = 0; n < n_ltf; ++n) {
          acc += dsp::cf64(ltf_grids[r][n][bin]) *
                 static_cast<double>(wifi::p_matrix(s, n));
        }
        acc /= static_cast<double>(n_ltf) * static_cast<double>(ltf_val);
        est.h[r][s][bin] =
            cf32(static_cast<float>(acc.real()), static_cast<float>(acc.imag()));
      }
    }
  }
}

void LsChannelEstimator::estimate_into(const dsp::IqTensor& ltf_grids,
                                       MimoChannelEstimate& est) const {
  const std::size_t n_ltf = wifi::num_ht_ltfs(nss_);
  if (ltf_grids.streams() != nrx_ || ltf_grids.symbols() != n_ltf ||
      ltf_grids.bins() != ofdm::kFftSize) {
    throw std::invalid_argument("LsChannelEstimator: bad tensor shape");
  }

  const auto seq = wifi::htltf_sequence();  // logical -28..28
  est.resize_zeroed(nrx_, nss_);

  for (int k = -28; k <= 28; ++k) {
    const float ltf_val = seq[static_cast<std::size_t>(k + 28)];
    if (ltf_val == 0.0F) continue;  // DC
    const std::size_t bin = ofdm::SubcarrierMap::logical_to_bin(k);
    for (std::size_t r = 0; r < nrx_; ++r) {
      for (std::size_t s = 0; s < nss_; ++s) {
        dsp::cf64 acc{0.0, 0.0};
        for (std::size_t n = 0; n < n_ltf; ++n) {
          acc += dsp::cf64(ltf_grids(r, n, bin)) *
                 static_cast<double>(wifi::p_matrix(s, n));
        }
        acc /= static_cast<double>(n_ltf) * static_cast<double>(ltf_val);
        est.h[r][s][bin] =
            cf32(static_cast<float>(acc.real()), static_cast<float>(acc.imag()));
      }
    }
  }
}

MimoChannelEstimate LsChannelEstimator::estimate(
    const std::vector<std::vector<std::vector<cf32>>>& ltf_grids) const {
  MimoChannelEstimate est;
  estimate_into(ltf_grids, est);
  return est;
}

void LsChannelEstimator::estimate_legacy_into(
    const std::vector<std::vector<std::vector<cf32>>>& grids,
    std::vector<std::vector<cf32>>& h) {
  const auto seq = wifi::lltf_sequence();  // logical -26..26
  h.resize(grids.size());
  for (auto& row : h) row.assign(ofdm::kFftSize, cf32{0.0F, 0.0F});
  for (std::size_t r = 0; r < grids.size(); ++r) {
    if (grids[r].size() != 2) {
      throw std::invalid_argument("estimate_legacy: need exactly 2 LTF periods");
    }
    for (int k = -26; k <= 26; ++k) {
      const float val = seq[static_cast<std::size_t>(k + 26)];
      if (val == 0.0F) continue;
      const std::size_t bin = ofdm::SubcarrierMap::logical_to_bin(k);
      const dsp::cf64 avg =
          (dsp::cf64(grids[r][0][bin]) + dsp::cf64(grids[r][1][bin])) /
          (2.0 * static_cast<double>(val));
      h[r][bin] = cf32(static_cast<float>(avg.real()), static_cast<float>(avg.imag()));
    }
  }
}

void LsChannelEstimator::estimate_legacy_into(const dsp::IqTensor& grids,
                                              std::vector<std::vector<cf32>>& h) {
  if (grids.symbols() != 2 || grids.bins() != ofdm::kFftSize) {
    throw std::invalid_argument("estimate_legacy: need [rx][2][64] tensor");
  }
  const auto seq = wifi::lltf_sequence();  // logical -26..26
  h.resize(grids.streams());
  for (auto& row : h) row.assign(ofdm::kFftSize, cf32{0.0F, 0.0F});
  for (std::size_t r = 0; r < grids.streams(); ++r) {
    for (int k = -26; k <= 26; ++k) {
      const float val = seq[static_cast<std::size_t>(k + 26)];
      if (val == 0.0F) continue;
      const std::size_t bin = ofdm::SubcarrierMap::logical_to_bin(k);
      const dsp::cf64 avg =
          (dsp::cf64(grids(r, 0, bin)) + dsp::cf64(grids(r, 1, bin))) /
          (2.0 * static_cast<double>(val));
      h[r][bin] = cf32(static_cast<float>(avg.real()), static_cast<float>(avg.imag()));
    }
  }
}

std::vector<std::vector<cf32>> LsChannelEstimator::estimate_legacy(
    const std::vector<std::vector<std::vector<cf32>>>& grids) {
  std::vector<std::vector<cf32>> h;
  estimate_legacy_into(grids, h);
  return h;
}

void smooth_frequency(MimoChannelEstimate& est, const std::vector<std::size_t>& bins,
                      std::span<const int> csd_per_stream) {
  if (bins.size() < 3) return;
  for (std::size_t r = 0; r < est.nrx; ++r) {
    for (std::size_t s = 0; s < est.nss; ++s) {
      auto& h = est.h[r][s];
      const int csd = (s < csd_per_stream.size()) ? csd_per_stream[s] : 0;

      // Remove the known CSD phase ramp so the underlying channel is
      // smooth across bins, average, then restore the ramp.
      const auto ramp = [&](std::size_t bin) {
        const double theta = -dsp::two_pi_d * static_cast<double>(bin) *
                             static_cast<double>(csd) /
                             static_cast<double>(ofdm::kFftSize);
        return dsp::phasor_d(theta);
      };
      const auto deramped = [&](std::size_t bin) {
        return dsp::cf64(h[bin]) * std::conj(ramp(bin));
      };

      std::array<cf32, ofdm::kFftSize> smoothed;  // bins.size() <= 64 always
      for (std::size_t i = 0; i < bins.size(); ++i) {
        const dsp::cf64 prev = deramped(bins[(i == 0) ? 0 : i - 1]);
        const dsp::cf64 cur = deramped(bins[i]);
        const dsp::cf64 next = deramped(bins[(i + 1 == bins.size()) ? i : i + 1]);
        const dsp::cf64 avg = (0.25 * prev + 0.5 * cur + 0.25 * next) * ramp(bins[i]);
        smoothed[i] = cf32(static_cast<float>(avg.real()),
                           static_cast<float>(avg.imag()));
      }
      for (std::size_t i = 0; i < bins.size(); ++i) h[bins[i]] = smoothed[i];
    }
  }
}

}  // namespace mimonet::chanest
