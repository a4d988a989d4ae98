// STF-based packet detection: the lag-16 autocorrelation plateau of the
// short training field (Schmidl & Cox style), summed across RX antennas.
// This is the conventional baseline the paper's MIMO Van de Beek estimator
// is compared against, and the coarse trigger the full receiver uses.
//
// Two scan strategies share one plateau scanner:
//  - exhaustive: full-rate sliding metric at every sample position (the
//    reference behavior, and the default), swept in chunks up to the first
//    qualifying plateau;
//  - two-pass: a decimated coarse sweep (1/D of the work) flags candidate
//    regions, and the full-rate metric runs only inside those regions plus
//    safety margins. The coarse threshold is deliberately loose, so the
//    coarse pass is a recall gate: false positives only cost bounded
//    full-rate work, and the equivalence suite pins record-identical
//    results against the exhaustive scan.
#pragma once

#include <cstddef>
#include <optional>
#include <span>
#include <vector>

#include "dsp/correlator.hpp"
#include "dsp/types.hpp"

namespace mimonet::sync {

using dsp::cf32;

struct DetectorConfig {
  std::size_t lag = 16;      ///< STF period at 20 Msps
  std::size_t window = 48;   ///< correlation window (3 STF periods)
  /// Normalized-metric trigger level. The metric approaches
  /// (snr/(snr+1))^2, so 0.45 keeps detection alive down to ~5 dB while
  /// random noise (metric ~ 1/window) stays far below it.
  float threshold = 0.45F;
  std::size_t min_plateau = 24;  ///< samples the metric must stay high
};

/// Front-end scan policy. The default (decimation 1) is the exhaustive
/// full-rate scan; decimation D > 1 enables the two-pass mode.
struct ScanMode {
  /// Coarse-pass stride. Must divide DetectorConfig::lag (the decimated STF
  /// is then still periodic at the same absolute lag). 1 = exhaustive.
  std::size_t decimation = 1;
};

/// A candidate region flagged by the coarse pass, in sample positions of
/// the scanned span: the coarse run spanned [begin, end).
struct CoarseRegion {
  std::size_t begin = 0;
  std::size_t end = 0;
};

/// Per-antenna correlation scratch for both passes, owned by the caller's
/// workspace so a warm detect performs no steady-state allocation.
struct DetectScratch {
  std::vector<dsp::AutocorrResult> full;    ///< full-rate sweeps (per antenna)
  std::vector<dsp::AutocorrResult> coarse;  ///< decimated sweeps (per antenna)
};

struct Detection {
  /// Coarse packet-start estimate (index into the searched span). Points
  /// near the beginning of the STF.
  std::size_t start = 0;
  /// Coarse CFO estimate in cycles/sample from the STF autocorrelation
  /// angle (unambiguous to +/- 1/(2*lag) = +/- 625 kHz at 20 Msps).
  double cfo_norm = 0.0;
  /// Peak normalized metric, in [0, ~1].
  float peak_metric = 0.0F;
};

/// Sliding autocorrelation detector over one or more antennas.
class PacketDetector {
 public:
  /// Full-rate positions swept per chunk, by the exhaustive scan and inside
  /// two-pass candidate regions: detector scratch stays O(kFullChunk)
  /// whatever the span length.
  static constexpr std::size_t kFullChunk = 1024;

  explicit PacketDetector(DetectorConfig cfg, ScanMode scan = {});

  [[nodiscard]] const DetectorConfig& config() const noexcept { return cfg_; }
  [[nodiscard]] const ScanMode& scan_mode() const noexcept { return scan_; }

  /// Detect the first packet in the span; nullopt when nothing crosses the
  /// threshold for min_plateau consecutive samples.
  [[nodiscard]] std::optional<Detection> detect(std::span<const cf32> rx) const;

  /// MIMO variant: correlations are summed coherently across antennas and
  /// normalized by the summed window powers,
  /// |sum_a c_a|^2 / ((sum_a P_lead,a) * (sum_a P_lag,a)),
  /// before thresholding. All spans must be equal length.
  [[nodiscard]] std::optional<Detection> detect_mimo(
      std::span<const std::span<const cf32>> rx_antennas) const;

  /// detect_mimo with caller-provided scratch (resized, capacity kept) so a
  /// warm workspace detects without allocating. Honors the ScanMode: runs
  /// the two-pass scan when decimation > 1, else the exhaustive scan.
  [[nodiscard]] std::optional<Detection> detect_mimo(
      std::span<const std::span<const cf32>> rx_antennas,
      DetectScratch& scratch) const;

  /// Exhaustive full-rate scan regardless of ScanMode — the reference the
  /// two-pass mode is equivalence-tested against. It sweeps kFullChunk
  /// positions at a time with the sliding sums carried across chunks (so
  /// every metric is bit-identical to one whole-span sweep) and returns at
  /// the first qualifying plateau: work and scratch follow the distance to
  /// the packet, not the length of the span behind it.
  [[nodiscard]] std::optional<Detection> detect_mimo(
      std::span<const std::span<const cf32>> rx_antennas,
      std::vector<dsp::AutocorrResult>& scratch) const;

  /// Run the decimated coarse pass over the whole span (no early exit),
  /// appending each coarse run's extent to `regions`. Returns the number of
  /// decimated positions evaluated — the bench divides samples covered by
  /// the elapsed time for the coarse-throughput figure. Requires
  /// decimation > 1.
  std::size_t scan_coarse(std::span<const std::span<const cf32>> rx_antennas,
                          DetectScratch& scratch,
                          std::vector<CoarseRegion>& regions) const;

  /// Coarse correlation window in samples: the configured window rounded up
  /// to a decimation multiple, widened so the decimated sum keeps at least
  /// 12 terms (noise metric mean ~ 1/terms must stay well under the coarse
  /// trigger).
  [[nodiscard]] std::size_t coarse_window() const noexcept;

 private:
  [[nodiscard]] std::optional<Detection> detect_two_pass(
      std::span<const std::span<const cf32>> rx_antennas,
      DetectScratch& scratch) const;

  DetectorConfig cfg_;
  ScanMode scan_;
};

}  // namespace mimonet::sync
