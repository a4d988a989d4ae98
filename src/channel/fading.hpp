// MIMO fading-tap generation: flat Rayleigh, exponential tapped-delay-line
// power-delay profiles (TGn-like), and Kronecker antenna correlation.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "dsp/rng.hpp"
#include "dsp/types.hpp"

namespace mimonet::channel {

using dsp::cf32;

/// Power-delay profile presets loosely following the IEEE TGn channel
/// models at 20 Msps (sample-spaced taps, exponentially decaying power).
enum class DelayProfile : std::uint8_t {
  kFlat,      // single tap (TGn model A)
  kShort,     // ~15 ns rms delay spread (TGn model B-like), 3 taps
  kTypical,   // ~50 ns rms (TGn model D-like), 6 taps
  kLong,      // ~150 ns rms (TGn model E/F-like), 12 taps
};

/// Number of sample-spaced taps for a profile.
[[nodiscard]] std::size_t profile_taps(DelayProfile p) noexcept;

/// Per-tap average powers (sum = 1) for a profile.
[[nodiscard]] std::vector<double> profile_powers(DelayProfile p);

/// One realization of a MIMO channel: taps[rx][tx] is the impulse response
/// from TX antenna `tx` to RX antenna `rx`.
struct ChannelRealization {
  std::size_t ntx = 1;
  std::size_t nrx = 1;
  std::vector<std::vector<std::vector<cf32>>> taps;  // [rx][tx][tap]

  /// Frequency response at `nfft` uniformly spaced bins: out[rx][tx][bin].
  [[nodiscard]] std::vector<std::vector<std::vector<cf32>>> frequency_response(
      std::size_t nfft) const;
};

/// Generates independent (or spatially correlated) Rayleigh realizations.
class FadingGenerator {
 public:
  /// @param rho_tx / rho_rx Kronecker correlation magnitude in [0, 1) between
  ///        adjacent antennas at each end (0 = i.i.d.).
  FadingGenerator(std::size_t ntx, std::size_t nrx, DelayProfile profile,
                  std::uint64_t seed, double rho_tx = 0.0, double rho_rx = 0.0);

  /// Draw a fresh block-fading realization (each tap CN(0, power), unit total
  /// power per rx-tx pair, correlated across antennas per the Kronecker
  /// model).
  [[nodiscard]] ChannelRealization next();
  /// next() drawn into `out` in place: its tap vectors keep their storage.
  void next_into(ChannelRealization& out);

  /// Restart the draws from `seed`, as constructing with it would.
  void reseed(std::uint64_t seed) noexcept { gauss_.reseed(seed); }

  [[nodiscard]] std::size_t ntx() const noexcept { return ntx_; }
  [[nodiscard]] std::size_t nrx() const noexcept { return nrx_; }
  /// Per-tap average powers of the profile (profile_powers()).
  [[nodiscard]] const std::vector<double>& powers() const noexcept { return powers_; }

  /// Lower Cholesky factor of an n x n exponential correlation matrix,
  /// n <= 4; entries outside it are zero.
  using Factor = std::array<std::array<double, 4>, 4>;

 private:
  std::size_t ntx_;
  std::size_t nrx_;
  std::vector<double> powers_;
  Factor l_rx_{};
  Factor l_tx_{};
  dsp::ComplexGaussian gauss_;
};

/// A fixed line-of-sight-like identity channel (H = I), for AWGN-only tests:
/// each RX antenna hears only its same-index TX antenna.
[[nodiscard]] ChannelRealization identity_channel(std::size_t n);

}  // namespace mimonet::channel
