#include "sync/fine_sync.hpp"

#include <cmath>
#include <stdexcept>

#include "dsp/vector_ops.hpp"
#include "wifi/preamble.hpp"

namespace mimonet::sync {

namespace {
constexpr std::size_t kPeriod = 64;
constexpr std::size_t kGuard = 32;
}  // namespace

FineSynchronizer::FineSynchronizer() {
  // One clean LTF period: take samples [32, 96) of the chain-0 L-LTF.
  const auto lltf = wifi::make_lltf(0, 1);
  reference_.assign(lltf.begin() + kGuard, lltf.begin() + kGuard + kPeriod);
}

std::optional<FineSyncResult> FineSynchronizer::locate(
    std::span<const std::span<const cf32>> rx_antennas) const {
  FineSyncScratch scratch;
  return locate(rx_antennas, scratch);
}

std::optional<FineSyncResult> FineSynchronizer::locate(
    std::span<const std::span<const cf32>> rx_antennas,
    FineSyncScratch& scratch) const {
  if (rx_antennas.empty()) throw std::invalid_argument("locate: no antennas");
  const std::size_t len = rx_antennas[0].size();
  for (const auto& a : rx_antennas) {
    if (a.size() != len) throw std::invalid_argument("locate: ragged spans");
  }
  if (len < kGuard + 2 * kPeriod) return std::nullopt;

  // Cross-correlate each antenna against the LTF period; combine the two
  // repetition peaks non-coherently: m(k) = sum_ant |c(k)| + |c(k + 64)|.
  // Each |c(k)| is taken once per antenna and read twice, as c(k) and as
  // c(k + 64) of lag k - 64.
  const std::size_t n_ant = rx_antennas.size();
  auto& xc = scratch.xcorr;
  xc.resize(n_ant);
  for (std::size_t a = 0; a < n_ant; ++a) {
    dsp::cross_correlate_into(rx_antennas[a], reference_, xc[a]);
  }
  const std::size_t n_xc = xc[0].size();
  if (n_xc < kPeriod + 1) return std::nullopt;
  auto& mag = scratch.mag;
  if (mag.size() < n_ant * n_xc) mag.resize(n_ant * n_xc);
  for (std::size_t a = 0; a < n_ant; ++a) {
    for (std::size_t k = 0; k < n_xc; ++k) {
      mag[a * n_xc + k] = std::abs(dsp::cf64(xc[a][k]));
    }
  }

  const double ref_energy = dsp::energy(reference_);

  double best = -1.0;
  std::size_t best_k = 0;
  for (std::size_t k = 0; k + kPeriod < n_xc; ++k) {
    double m = 0.0;
    for (std::size_t a = 0; a < n_ant; ++a) {
      const double* ma = mag.data() + a * n_xc;
      m += ma[k] + ma[k + kPeriod];
    }
    if (m > best) {
      best = m;
      best_k = k;
    }
  }

  // Normalize the peak by the reference and local signal energy so a
  // threshold is meaningful regardless of gain.
  double sig_energy = 0.0;
  for (const auto& a : rx_antennas) {
    sig_energy += dsp::energy(a.subspan(best_k, 2 * kPeriod));
  }
  const double denom =
      2.0 * static_cast<double>(rx_antennas.size()) * std::sqrt(ref_energy) *
      std::sqrt(std::max(sig_energy / 2.0, 1e-30));

  FineSyncResult res;
  if (best_k < kGuard) return std::nullopt;  // LTF cannot start before the span
  res.lltf_start = best_k - kGuard;
  res.peak = best / std::max(denom, 1e-30);
  // Poisoned samples inside the normalization window (but outside every
  // correlation peak) can turn the energy sum non-finite: that is not a
  // usable lock, not a crash.
  if (!std::isfinite(res.peak)) return std::nullopt;
  res.cfo_norm = estimate_cfo(rx_antennas, best_k);
  return res;
}

double FineSynchronizer::estimate_cfo(
    std::span<const std::span<const cf32>> rx_antennas,
    std::size_t ltf_payload_start) const {
  dsp::cf64 acc{0.0, 0.0};
  for (const auto& a : rx_antennas) {
    if (a.size() < ltf_payload_start + 2 * kPeriod) {
      throw std::invalid_argument("estimate_cfo: span too short");
    }
    const auto first = a.subspan(ltf_payload_start, kPeriod);
    const auto second = a.subspan(ltf_payload_start + kPeriod, kPeriod);
    acc += dsp::dot_conj(first, second);
  }
  // first * conj(second) rotates by +2*pi*cfo*64, so cfo = +angle/(2*pi*64)
  // with the conjugation order used by dot_conj(a, b) = sum a*conj(b):
  // x(k) conj(x(k+64)) = |s|^2 e^{-j 2 pi cfo 64}.
  // A non-finite accumulator (NaN/Inf samples in the LTF window) carries no
  // phase information; report zero offset rather than NaN.
  if (!std::isfinite(acc.real()) || !std::isfinite(acc.imag())) return 0.0;
  return -std::arg(acc) / (dsp::two_pi_d * static_cast<double>(kPeriod));
}

}  // namespace mimonet::sync
