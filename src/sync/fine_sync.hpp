// Fine timing via L-LTF cross-correlation and fine CFO from the two LTF
// repetitions, combined across RX antennas.
#pragma once

#include <cstddef>
#include <optional>
#include <span>
#include <vector>

#include "dsp/types.hpp"

namespace mimonet::sync {

using dsp::cf32;

struct FineSyncResult {
  /// Index (into the searched span) of the first sample of the L-LTF field
  /// (i.e. the start of its 32-sample guard interval).
  std::size_t lltf_start = 0;
  /// Fine CFO in cycles/sample from the lag-64 LTF autocorrelation
  /// (unambiguous to +/- 156.25 kHz at 20 Msps).
  double cfo_norm = 0.0;
  /// Normalized peak correlation in [0, 1]; low values mean the LTF was not
  /// really there.
  double peak = 0.0;
};

/// Reusable locate() scratch, owned by SyncScratch so a warm search
/// performs no heap allocation.
struct FineSyncScratch {
  std::vector<std::vector<cf32>> xcorr;  ///< per-antenna cross-correlations
  /// |c_a(k)| of every lag, antenna-major (a * lags + k). Grow-only.
  std::vector<double> mag;
};

/// Locates the L-LTF by cross-correlating against the known 64-sample LTF
/// period and exploiting its two back-to-back repetitions.
class FineSynchronizer {
 public:
  FineSynchronizer();

  /// Search `rx_antennas` (equal-length spans) for the L-LTF. The span
  /// should start at (or shortly before) the coarse packet-start estimate
  /// and cover at least lstf + lltf samples.
  [[nodiscard]] std::optional<FineSyncResult> locate(
      std::span<const std::span<const cf32>> rx_antennas) const;

  /// locate with caller-provided scratch (resized, capacity kept).
  [[nodiscard]] std::optional<FineSyncResult> locate(
      std::span<const std::span<const cf32>> rx_antennas,
      FineSyncScratch& scratch) const;

  /// Estimate the residual CFO from the two 64-sample LTF periods starting
  /// at `ltf_payload_start` (= lltf_start + 32). Spans must reach 128
  /// samples past that offset.
  [[nodiscard]] double estimate_cfo(
      std::span<const std::span<const cf32>> rx_antennas,
      std::size_t ltf_payload_start) const;

 private:
  std::vector<cf32> reference_;  // one 64-sample LTF period, no CSD
};

}  // namespace mimonet::sync
