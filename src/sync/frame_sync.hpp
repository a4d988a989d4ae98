// Full front-end synchronization: STF detection, coarse CFO, then fine
// timing/CFO by either L-LTF cross-correlation or the paper's MIMO-extended
// Van de Beek estimator running over the L-SIG/HT-SIG symbols.
#pragma once

#include <cstddef>
#include <optional>
#include <span>
#include <vector>

#include "sync/fine_sync.hpp"
#include "sync/packet_detector.hpp"
#include "sync/van_de_beek.hpp"

namespace mimonet::sync {

enum class TimingMode {
  kLtfCrossCorr,   ///< matched-filter timing on the L-LTF
  kVanDeBeekMimo,  ///< CP-ML timing over 3 consecutive SIG symbols
};

struct FrameSyncConfig {
  DetectorConfig detector{};
  /// Front-end scan policy for the detector: exhaustive by default,
  /// two-pass decimated when scan.decimation > 1.
  ScanMode scan{};
  TimingMode mode = TimingMode::kLtfCrossCorr;
  /// Van de Beek metric SNR weight (rho = snr/(snr+1)).
  double vdb_rho = 0.5;
  /// Half-width of the Van de Beek timing search window around the expected
  /// L-SIG position (must stay < 40 to avoid the mod-80 ambiguity).
  std::size_t vdb_slack = 32;
};

struct FrameSyncResult {
  /// Index of the first L-STF sample in the original capture.
  std::size_t packet_start = 0;
  /// Total CFO estimate (coarse + fine), cycles/sample.
  double cfo_norm = 0.0;
  double coarse_cfo_norm = 0.0;
  float detect_metric = 0.0F;
};

/// Reusable synchronization scratch, owned by the caller's workspace so a
/// warm synchronize() call performs no heap allocation.
struct SyncScratch {
  DetectScratch detect;                        ///< detector per-antenna sums
  std::vector<std::vector<cf32>> corrected;    ///< CFO-corrected sync region
  std::vector<std::span<const cf32>> spans;    ///< span staging
  std::vector<std::span<const cf32>> capture_spans;  ///< vector-overload staging
  std::vector<std::span<cf32>> cfo_views;      ///< coarse-CFO pass over `corrected`
  FineSyncScratch fine;                        ///< fine-sync correlations

  // Diagnostics for the last synchronize() call that found a detector
  // candidate but rejected it (fine sync failed, implausible timing, or the
  // capture ended inside the candidate's sync region). A streaming scanner
  // uses the position to hop past the bad candidate instead of abandoning
  // the rest of the capture.
  std::optional<std::size_t> rejected_candidate;  ///< detector start estimate
  bool rejected_truncated = false;  ///< rejection was a capture-end truncation
  /// When > 0 the rejection was an L-LTF located so early that the implied
  /// L-STF begins this many samples *before* the window — the scanner
  /// overshot a real packet's start (e.g. a resync hop landed inside its
  /// STF). Rewinding the window by the deficit re-centres it on the packet.
  std::size_t rejected_start_deficit = 0;
};

/// One-shot packet synchronizer over a multi-antenna capture.
class FrameSynchronizer {
 public:
  explicit FrameSynchronizer(FrameSyncConfig cfg);

  /// @param rx per-RX-antenna captures, equal length.
  [[nodiscard]] std::optional<FrameSyncResult> synchronize(
      const std::vector<std::vector<cf32>>& rx) const;

  /// synchronize with caller-provided scratch (resized, capacity kept).
  [[nodiscard]] std::optional<FrameSyncResult> synchronize(
      const std::vector<std::vector<cf32>>& rx, SyncScratch& scratch) const;

  /// Span form, the primitive the streaming receive path scans with: the
  /// spans may window any region of a larger capture; packet_start in the
  /// result is relative to the window.
  [[nodiscard]] std::optional<FrameSyncResult> synchronize(
      std::span<const std::span<const cf32>> rx, SyncScratch& scratch) const;

 private:
  FrameSyncConfig cfg_;
  PacketDetector detector_;
  FineSynchronizer fine_;
};

}  // namespace mimonet::sync
