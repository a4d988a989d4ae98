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

  /// Copy an event in. The packet is copy-assigned, so a record reused
  /// for many events keeps its vector capacities and stops allocating.
  StreamRecord& operator=(const StreamEvent& ev);
};

/// Restriction of a scan to part of the capture — the overlap-save
/// primitive the sharded farm is built on. The scan sees no samples at or
/// beyond `visible_end`. Ownership follows the scan path: the scan delivers
/// events (and counts stats) from its first candidate whose frame start is
/// at or past `own_begin` on — a rewind below own_begin after that stays
/// its own — and ends at its first candidate at or past `own_end` without
/// reporting it or rewinding from it, or once its position reaches
/// `own_end`. Candidates before entry are still *decoded* — that is what
/// re-aligns a scan that entered mid-packet — but are someone else's to
/// report.
struct ScanWindow {
  std::size_t visible_end = static_cast<std::size_t>(-1);
  std::size_t own_begin = 0;
  std::size_t own_end = static_cast<std::size_t>(-1);
  /// More samples will follow the visible ones: a truncated candidate may
  /// be a frame still streaming in, so the scan stops on it, neither
  /// reporting it nor moving past it, and leaves the cursor there for a
  /// later call that sees more of it.
  bool more_follows = false;
};

/// The scan's whole state between candidates. scan_window() starts from a
/// cursor and leaves it where the scan stopped, so a caller whose capture
/// grows (ReceiverBlock) resumes the scan instead of repeating it.
struct ScanCursor {
  /// Where the next receive attempt starts.
  std::size_t pos = 0;
  /// Rewinds land at or after this: past every earlier candidate's start
  /// and never before where the scan began.
  std::size_t rewind_barrier = 0;
  /// Watchdog count: owned failed candidates since the last frame.
  std::size_t failed_candidates = 0;
  /// Frames counted toward StreamReceiverConfig::max_packets.
  std::size_t frames = 0;
  /// The scan has met its first candidate at or past own_begin.
  bool entered = false;
  /// Receive attempts run so far: the scan's work, counted.
  std::size_t attempts = 0;
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

  /// The scan loop itself: continue from `cursor` over the window of the
  /// capture (see ScanWindow) and leave the cursor where the scan stopped.
  /// scan() is one call from ScanCursor{} over the whole capture. Adds
  /// nothing to stats.samples_scanned: each caller counts its own samples.
  void scan_window(std::span<const std::span<const cf32>> capture,
                   RxWorkspace& ws, StreamStats& stats, const EventFn& on_event,
                   const ScanWindow& window, ScanCursor& cursor) const;

 private:
  StreamReceiverConfig scfg_;
  Receiver rx_;
  std::size_t nrx_;
};

}  // namespace mimonet::core
