#include "channel/fading.hpp"

#include <cmath>
#include <stdexcept>

#include "dsp/fft.hpp"

namespace mimonet::channel {

namespace {

// Cholesky factor (lower triangular) of the exponential correlation matrix
// R[i][j] = rho^|i-j|, n <= 4. Used to color i.i.d. Gaussians per the
// Kronecker model.
FadingGenerator::Factor corr_cholesky(std::size_t n, double rho) {
  FadingGenerator::Factor r{};
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      r[i][j] = std::pow(rho, std::abs(static_cast<double>(i) - static_cast<double>(j)));
    }
  }
  FadingGenerator::Factor l{};
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j <= i; ++j) {
      double sum = r[i][j];
      for (std::size_t k = 0; k < j; ++k) sum -= l[i][k] * l[j][k];
      if (i == j) {
        if (sum <= 0.0) throw std::runtime_error("corr_cholesky: not positive definite");
        l[i][j] = std::sqrt(sum);
      } else {
        l[i][j] = sum / l[j][j];
      }
    }
  }
  return l;
}

}  // namespace

std::size_t profile_taps(DelayProfile p) noexcept {
  switch (p) {
    case DelayProfile::kFlat: return 1;
    case DelayProfile::kShort: return 3;
    case DelayProfile::kTypical: return 6;
    case DelayProfile::kLong: return 12;
  }
  return 1;
}

std::vector<double> profile_powers(DelayProfile p) {
  const std::size_t n = profile_taps(p);
  std::vector<double> powers(n);
  if (n == 1) {
    powers[0] = 1.0;
    return powers;
  }
  // Exponential decay with per-tap ratio chosen so the tail is ~-15 dB.
  const double decay = std::pow(10.0, -15.0 / 10.0 / static_cast<double>(n - 1));
  double total = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    powers[i] = std::pow(decay, static_cast<double>(i));
    total += powers[i];
  }
  for (auto& pw : powers) pw /= total;
  return powers;
}

std::vector<std::vector<std::vector<cf32>>> ChannelRealization::frequency_response(
    std::size_t nfft) const {
  const dsp::FftPlan plan(nfft);
  std::vector<std::vector<std::vector<cf32>>> h(
      nrx, std::vector<std::vector<cf32>>(ntx));
  for (std::size_t r = 0; r < nrx; ++r) {
    for (std::size_t t = 0; t < ntx; ++t) {
      std::vector<cf32> padded(nfft, cf32{0.0F, 0.0F});
      const auto& tap = taps[r][t];
      if (tap.size() > nfft) throw std::invalid_argument("frequency_response: nfft too small");
      std::copy(tap.begin(), tap.end(), padded.begin());
      plan.forward(padded);
      h[r][t] = std::move(padded);
    }
  }
  return h;
}

FadingGenerator::FadingGenerator(std::size_t ntx, std::size_t nrx, DelayProfile profile,
                                 std::uint64_t seed, double rho_tx, double rho_rx)
    : ntx_(ntx), nrx_(nrx), powers_(profile_powers(profile)), gauss_(seed, 1.0) {
  if (ntx == 0 || nrx == 0 || ntx > 4 || nrx > 4) {
    throw std::invalid_argument("FadingGenerator: antenna counts must be 1..4");
  }
  if (rho_tx < 0.0 || rho_tx >= 1.0 || rho_rx < 0.0 || rho_rx >= 1.0) {
    throw std::invalid_argument("FadingGenerator: correlation must be in [0, 1)");
  }
  l_rx_ = corr_cholesky(nrx, rho_rx);
  l_tx_ = corr_cholesky(ntx, rho_tx);
}

ChannelRealization FadingGenerator::next() {
  ChannelRealization out;
  next_into(out);
  return out;
}

void FadingGenerator::next_into(ChannelRealization& out) {
  out.ntx = ntx_;
  out.nrx = nrx_;
  out.taps.resize(nrx_);
  for (auto& row : out.taps) {
    row.resize(ntx_);
    for (auto& taps : row) taps.resize(powers_.size());
  }

  for (std::size_t tap = 0; tap < powers_.size(); ++tap) {
    // i.i.d. CN(0, p_tap) matrix G, then H = L_rx * G * L_tx^T.
    std::array<std::array<dsp::cf64, 4>, 4> g;
    const double sigma = std::sqrt(powers_[tap]);
    for (std::size_t a = 0; a < nrx_; ++a) {
      for (std::size_t b = 0; b < ntx_; ++b) {
        const cf32 s = gauss_.sample();
        g[a][b] = dsp::cf64(s.real() * sigma, s.imag() * sigma);
      }
    }
    for (std::size_t r = 0; r < nrx_; ++r) {
      for (std::size_t t = 0; t < ntx_; ++t) {
        dsp::cf64 acc{0.0, 0.0};
        for (std::size_t a = 0; a < nrx_; ++a) {
          for (std::size_t b = 0; b < ntx_; ++b) {
            acc += l_rx_[r][a] * g[a][b] * l_tx_[t][b];
          }
        }
        out.taps[r][t][tap] =
            cf32(static_cast<float>(acc.real()), static_cast<float>(acc.imag()));
      }
    }
  }
}

ChannelRealization identity_channel(std::size_t n) {
  ChannelRealization out;
  out.ntx = n;
  out.nrx = n;
  out.taps.assign(n, std::vector<std::vector<cf32>>(n, std::vector<cf32>(1)));
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t t = 0; t < n; ++t) {
      out.taps[r][t][0] = (r == t) ? cf32{1.0F, 0.0F} : cf32{0.0F, 0.0F};
    }
  }
  return out;
}

}  // namespace mimonet::channel
