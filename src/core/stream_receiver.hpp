// Resilient streaming receive path: scan an arbitrarily long multi-packet
// capture, decode every packet in it, and resynchronize after any failure —
// a bad sync candidate, a SIG parse failure, an FCS failure, a truncated
// tail — by advancing past the failed region. A watchdog budget bounds the
// work a pathological capture (e.g. a long 16-periodic interferer that
// triggers the detector everywhere) can extract, and every iteration
// advances the scan position by at least StreamReceiverConfig::min_advance
// samples, so the scan loop can never wedge.
//
// StreamReceiver is the single-worker scan engine. ReceiverFarm
// (core/receiver_farm.hpp) parallelizes it across shards and streams, and
// ReceiveSession (core/receive_session.hpp) is the session API most callers
// should use instead of talking to this class directly.
#pragma once

#include <cstddef>
#include <functional>
#include <span>
#include <vector>

#include "core/phy_config.hpp"
#include "core/receiver.hpp"
#include "metrics/rx_error.hpp"
#include "metrics/stream_stats.hpp"

namespace mimonet::core {

struct RxWorkspace;  // core/workspace.hpp

/// Scan statistics live in metrics so every layer (stream scan, farm shard,
/// base-station per-user stream) shares one mergeable type.
using StreamStats = metrics::StreamStats;

/// Scan-loop policy knobs. Follows the session-config conventions
/// (aggregate with defaults + fluent builder, see DESIGN.md "API
/// conventions"): StreamReceiverConfig::make().resync_advance(64).build().
struct StreamReceiverConfig {
  /// Floor on the per-iteration scan advance. Termination guarantee: a scan
  /// over N samples runs at most N / min_advance candidate attempts.
  std::size_t min_advance = 16;
  /// How far to advance past a failed candidate's start before rescanning
  /// (one OFDM symbol by default — far enough to fall off a short false
  /// plateau, close enough not to skip a packet queued right behind it).
  std::size_t resync_advance = 80;
  /// Watchdog: failed candidates tolerated since the last delivered frame
  /// before the scanner reports kBudgetExceeded and abandons the capture.
  /// 0 = no budget (the min_advance bound still guarantees termination).
  std::size_t candidate_budget = 4096;
  /// Stop after this many decoded frames (0 = no cap).
  std::size_t max_packets = 0;

  // Two-pass front-end scan (see sync::ScanMode). The default, decimation
  // 1, is the exhaustive full-rate scan — bit-identical to Receiver's
  // default path. Decimation D > 1 (must divide the detector lag, 16) runs
  // the decimated coarse pass at 1/D of the correlation work and full-rate
  // detection only inside flagged candidate regions.
  std::size_t scan_decimation = 1;

  class Builder;
  [[nodiscard]] static Builder make();

  /// Projection onto the detector's scan policy.
  [[nodiscard]] sync::ScanMode scan_mode() const noexcept {
    sync::ScanMode m;
    m.decimation = scan_decimation;
    return m;
  }
};

class StreamReceiverConfig::Builder {
 public:
  Builder& min_advance(std::size_t n) { cfg_.min_advance = n; return *this; }
  Builder& resync_advance(std::size_t n) { cfg_.resync_advance = n; return *this; }
  Builder& candidate_budget(std::size_t n) { cfg_.candidate_budget = n; return *this; }
  Builder& max_packets(std::size_t n) { cfg_.max_packets = n; return *this; }
  Builder& scan_decimation(std::size_t d) { cfg_.scan_decimation = d; return *this; }

  [[nodiscard]] StreamReceiverConfig build() const { return cfg_; }
  operator StreamReceiverConfig() const { return cfg_; }  // NOLINT(google-explicit-constructor)

 private:
  StreamReceiverConfig cfg_;
};

/// One scan event, delivered to the scan() callback in stream order.
struct StreamEvent {
  /// Absolute sample index (into the scanned capture) of the candidate's
  /// frame start; for kBudgetExceeded, of the abandoned scan position.
  std::size_t offset = 0;
  metrics::RxError error = metrics::RxError::kOk;
  /// Null for kBudgetExceeded; otherwise points at the scan workspace's
  /// packet and is valid only during the callback (copy it to keep it).
  const RxPacket* packet = nullptr;
};

/// Owned form of a StreamEvent, what receive_all() returns.
struct StreamRecord {
  std::size_t offset = 0;
  metrics::RxError error = metrics::RxError::kOk;
  bool has_packet = false;
  RxPacket packet;
};

/// Restriction of a scan to a window of the capture — the overlap-save
/// primitive the sharded farm is built on. The scan iterates from `begin`
/// while its position stays below `stop` and sees no samples at or beyond
/// `visible_end`. Ownership follows the scan path: the window delivers
/// events (and counts stats) from its first candidate whose frame start
/// is at or past `own_begin` on — a rewind below own_begin after that stays
/// its own — and ends at its first candidate at or past `own_end` without
/// reporting it or rewinding from it. Candidates before entry are still
/// *decoded* — that is what re-aligns a scan that entered mid-packet — but
/// are someone else's to report.
struct ScanWindow {
  std::size_t begin = 0;
  std::size_t stop = static_cast<std::size_t>(-1);
  std::size_t visible_end = static_cast<std::size_t>(-1);
  std::size_t own_begin = 0;
  std::size_t own_end = static_cast<std::size_t>(-1);
  /// Add the window's sample count to stats.samples_scanned (the farm
  /// counts the capture once at merge instead of once per overlapping
  /// window).
  bool count_samples = true;
};

/// Multi-packet scanning receiver. Construct once per configuration; scans
/// are const and share nothing, so one instance may serve many threads each
/// holding its own RxWorkspace.
class StreamReceiver {
 public:
  using EventFn = std::function<void(const StreamEvent&)>;

  StreamReceiver(PhyConfig cfg, std::size_t nrx, StreamReceiverConfig scfg = {});

  [[nodiscard]] const PhyConfig& config() const noexcept { return rx_.config(); }
  [[nodiscard]] const StreamReceiverConfig& stream_config() const noexcept {
    return scfg_;
  }
  [[nodiscard]] const Receiver& receiver() const noexcept { return rx_; }

  /// Scan the whole capture; returns every event in stream order. On a
  /// capture holding a single clean packet the one returned record's packet
  /// is bit-identical to what Receiver::receive would have produced.
  [[nodiscard]] std::vector<StreamRecord> receive_all(
      const std::vector<std::vector<cf32>>& capture) const;

  /// Workspace/callback form: the hot loop. Stats accumulate into `stats`
  /// (not reset here, so multi-capture sessions aggregate). A warm
  /// workspace scans without steady-state heap allocation.
  void scan(std::span<const std::span<const cf32>> capture, RxWorkspace& ws,
            StreamStats& stats, const EventFn& on_event) const;

  /// Windowed scan over a region of the capture (see ScanWindow). scan() is
  /// exactly scan_window() with the default all-of-it window.
  void scan_window(std::span<const std::span<const cf32>> capture,
                   RxWorkspace& ws, StreamStats& stats, const EventFn& on_event,
                   const ScanWindow& window) const;

  /// HARQ soft-combining scans: every candidate decode runs through
  /// Receiver's combining overload with `harq` (see core::HarqDecode). Meant
  /// for single-frame retransmission captures — an ARQ link scanning one
  /// retry slot — where the prior soft state belongs to the one expected
  /// frame; on a multi-packet capture the same prior would be offered to
  /// every candidate (harmless when lengths differ, but not chase
  /// combining). A default HarqDecode{} makes these bit-identical to the
  /// plain overloads.
  void scan(std::span<const std::span<const cf32>> capture, RxWorkspace& ws,
            StreamStats& stats, const EventFn& on_event,
            const HarqDecode& harq) const;
  void scan_window(std::span<const std::span<const cf32>> capture,
                   RxWorkspace& ws, StreamStats& stats, const EventFn& on_event,
                   const ScanWindow& window, const HarqDecode& harq) const;

 private:
  StreamReceiverConfig scfg_;
  Receiver rx_;
  std::size_t nrx_;
};

}  // namespace mimonet::core
