// The session-oriented receive API: one configuration style, one entry
// shape — config -> session -> submit/scan -> merged stats — shared by the
// one-shot Receiver, the streaming StreamReceiver and the parallel
// ReceiverFarm, so flowgraph blocks, benches and the MAC layer all talk to
// the same surface instead of picking among overloads.
//
//   auto cfg = ReceiveSessionConfig::make().workers(4).build();
//   ReceiveSession session(phy, nrx, cfg);
//   session.scan(capture_spans, [&](const StreamEvent& ev) { ... });
//   session.stats().delivered;
//
// See DESIGN.md "API conventions" for the rules new subsystems follow.
#pragma once

#include <cstddef>
#include <memory>
#include <span>
#include <vector>

#include "core/phy_config.hpp"
#include "core/stream_receiver.hpp"

namespace mimonet::core {

class ReceiverFarm;
class MuUplinkReceiver;  // core/mu_receiver.hpp
struct MuRxPacket;
struct MuRxWorkspace;

/// Everything a receive session can be told: the scan-loop policy knobs the
/// StreamReceiver engine keys on, plus the parallelism shape (workers,
/// shards, seam) the farm adds. Aggregate with usable defaults; fluent
/// builder for the common spellings.
struct ReceiveSessionConfig {
  // Scan-loop policy (see StreamReceiverConfig for semantics).
  std::size_t min_advance = 16;
  std::size_t resync_advance = 80;
  std::size_t candidate_budget = 4096;
  std::size_t max_packets = 0;

  // Two-pass front-end scan (see StreamReceiverConfig / sync::ScanMode);
  // the farm's sharded and base-station modes inherit these through
  // scan_config().
  std::size_t scan_decimation = 1;

  /// Worker threads for the farm modes. 1 = everything runs on the calling
  /// thread (no pool); 0 = hardware concurrency.
  std::size_t workers = 1;
  /// Shard count for sharded-capture scans (0 = one shard per worker).
  /// More shards than workers is fine — they queue.
  std::size_t shards = 0;
  /// Overlap-save seam width in samples; 0 derives the width from
  /// max_frame_bytes (see resolved_seam). Exactness requires the seam to
  /// cover the largest frame extent in the capture plus the resync hop
  /// budget — a frame longer than the seam may be misclassified as
  /// truncated at a shard boundary.
  std::size_t seam_samples = 0;
  /// Largest PSDU the seam must cover when seam_samples is derived.
  std::size_t max_frame_bytes = 4096;

  class Builder;
  [[nodiscard]] static Builder make();

  /// Projection onto the single-worker scan engine's config.
  [[nodiscard]] StreamReceiverConfig scan_config() const noexcept {
    StreamReceiverConfig scfg;
    scfg.min_advance = min_advance;
    scfg.resync_advance = resync_advance;
    scfg.candidate_budget = candidate_budget;
    scfg.max_packets = max_packets;
    scfg.scan_decimation = scan_decimation;
    return scfg;
  }
  /// workers with 0 resolved to hardware concurrency (at least 1).
  [[nodiscard]] std::size_t resolved_workers() const;
  [[nodiscard]] std::size_t resolved_shards() const {
    return shards != 0 ? shards : resolved_workers();
  }
  /// The seam width sharded scans actually use: seam_samples, or the
  /// sample extent of the largest frame any supported MCS needs for
  /// max_frame_bytes plus a re-alignment margin.
  [[nodiscard]] std::size_t resolved_seam(const PhyConfig& phy) const;
};

class ReceiveSessionConfig::Builder {
 public:
  Builder& min_advance(std::size_t n) { cfg_.min_advance = n; return *this; }
  Builder& resync_advance(std::size_t n) { cfg_.resync_advance = n; return *this; }
  Builder& candidate_budget(std::size_t n) { cfg_.candidate_budget = n; return *this; }
  Builder& max_packets(std::size_t n) { cfg_.max_packets = n; return *this; }
  Builder& scan_decimation(std::size_t d) { cfg_.scan_decimation = d; return *this; }
  Builder& workers(std::size_t n) { cfg_.workers = n; return *this; }
  Builder& shards(std::size_t n) { cfg_.shards = n; return *this; }
  Builder& seam(std::size_t samples) { cfg_.seam_samples = samples; return *this; }
  Builder& max_frame_bytes(std::size_t n) { cfg_.max_frame_bytes = n; return *this; }

  [[nodiscard]] ReceiveSessionConfig build() const { return cfg_; }
  operator ReceiveSessionConfig() const { return cfg_; }  // NOLINT(google-explicit-constructor)

 private:
  ReceiveSessionConfig cfg_;
};

/// One independent per-user stream for the farm's base-station mode: which
/// per-stream stats slot it feeds and the capture (one span per antenna) to
/// scan. The spans must stay valid for the duration of the run.
struct StreamJob {
  std::size_t stream = 0;
  std::span<const std::span<const cf32>> capture;
};

/// A receive session: owns the engine, a workspace, the (lazily created)
/// worker farm and the accumulated statistics. Not thread-safe — one
/// session per controlling thread; the farm's workers are internal.
class ReceiveSession {
 public:
  using EventFn = StreamReceiver::EventFn;

  ReceiveSession(PhyConfig phy, std::size_t nrx,
                 ReceiveSessionConfig cfg = {});
  ~ReceiveSession();
  ReceiveSession(const ReceiveSession&) = delete;
  ReceiveSession& operator=(const ReceiveSession&) = delete;

  // --- one-shot receive (the Receiver entry point) ----------------------

  /// Decode the first packet of a capture. Returns false when nothing was
  /// delivered; packet() holds the full outcome (including the RxError
  /// classification) either way. The attempt is folded into stats().
  [[nodiscard]] bool receive_one(std::span<const std::span<const cf32>> capture);
  /// Staging convenience for vector-of-vector captures.
  [[nodiscard]] bool receive_one(const std::vector<std::vector<cf32>>& capture);
  /// Outcome of the last receive_one / the engine workspace's packet.
  [[nodiscard]] const RxPacket& packet() const noexcept;

  // --- streaming scan ---------------------------------------------------

  /// Scan a whole capture, delivering every event in stream order. Runs on
  /// the calling thread when workers == 1, otherwise as a sharded farm scan
  /// whose merged result is bit-identical to the single-threaded scan.
  void scan(std::span<const std::span<const cf32>> capture,
            const EventFn& on_event);
  /// Owned-record convenience form of scan().
  [[nodiscard]] std::vector<StreamRecord> receive_all(
      const std::vector<std::vector<cf32>>& capture);

  // --- multi-user uplink mode -------------------------------------------

  /// Jointly decode one triggered MU uplink capture: `n_users` virtual
  /// streams superposed across this session's `nrx` antennas, every user at
  /// the trigger-announced `psdu_bytes` (see MuUplinkReceiver). Returns true
  /// when sync + joint channel estimation ran; per-user FCS outcomes land in
  /// mu_packet().users. Each user's outcome folds into mu_stats()[u]
  /// (delivered / errors / post-eq SINR at stream 0) and the aggregate
  /// stats() grows by the sum, mirroring run_streams' accounting. The joint
  /// detector is created lazily on first use and rebuilt when n_users
  /// changes.
  [[nodiscard]] bool receive_mu_one(
      std::span<const std::span<const cf32>> capture, std::size_t n_users,
      std::size_t psdu_bytes);
  /// Outcome of the last receive_mu_one (valid after first call).
  [[nodiscard]] const MuRxPacket& mu_packet() const;
  /// Per-user statistics accumulated by receive_mu_one, one slot per user
  /// index (sized to the largest n_users seen).
  [[nodiscard]] std::span<const StreamStats> mu_stats() const noexcept {
    return mu_stats_;
  }

  // --- base-station mode ------------------------------------------------

  /// Multiplex many independent per-user streams over the worker pool.
  /// per_stream[job.stream] accumulates each job's statistics; aggregate
  /// session stats() grows by the sum. Jobs sharing a stream index are
  /// merged losslessly.
  void run_streams(std::span<const StreamJob> jobs,
                   std::span<StreamStats> per_stream);

  // --- state ------------------------------------------------------------

  [[nodiscard]] const StreamStats& stats() const noexcept { return stats_; }
  void reset_stats() noexcept { stats_.reset(); }
  [[nodiscard]] const PhyConfig& config() const noexcept {
    return engine_.config();
  }
  [[nodiscard]] const ReceiveSessionConfig& session_config() const noexcept {
    return cfg_;
  }
  [[nodiscard]] const Receiver& receiver() const noexcept {
    return engine_.receiver();
  }
  [[nodiscard]] const StreamReceiver& engine() const noexcept { return engine_; }

 private:
  /// The farm, created on first use when resolved_workers() > 1 (or for
  /// run_streams, always — a one-worker pool is still a pool).
  ReceiverFarm& farm();

  ReceiveSessionConfig cfg_;
  StreamReceiver engine_;
  std::size_t nrx_;
  std::unique_ptr<RxWorkspace> ws_;
  std::unique_ptr<ReceiverFarm> farm_;
  StreamStats stats_;
  // MU uplink mode, created lazily by receive_mu_one.
  std::unique_ptr<MuUplinkReceiver> mu_rx_;
  std::unique_ptr<MuRxWorkspace> mu_ws_;
  std::vector<StreamStats> mu_stats_;
};

}  // namespace mimonet::core
