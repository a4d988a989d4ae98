// Flowgraph adapters for the MIMONet PHY: transmitter, streaming MIMO
// channel, and receiver as dataflow blocks — the shape the paper's system
// takes inside GNU Radio.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "channel/mimo_channel.hpp"
#include "core/phy_config.hpp"
#include "dsp/fir.hpp"
#include "core/receiver.hpp"
#include "core/stream_receiver.hpp"
#include "core/transmitter.hpp"
#include "core/workspace.hpp"
#include "flowgraph/block.hpp"

namespace mimonet::core {

/// Source block: modulates a queue of PSDUs into nss continuous sample
/// streams with idle gaps between packets; tags each packet start.
class TransmitterBlock final : public flowgraph::Block {
 public:
  TransmitterBlock(PhyConfig cfg, std::vector<std::vector<std::uint8_t>> psdus,
                   std::size_t idle_gap_samples = 500);

  flowgraph::WorkStatus work() override;

  [[nodiscard]] std::size_t num_streams() const noexcept { return tx_.num_streams(); }

 private:
  void prepare_next();

  Transmitter tx_;
  std::vector<std::vector<std::uint8_t>> psdus_;
  std::size_t idle_gap_;
  std::size_t next_psdu_ = 0;
  std::vector<std::vector<cf32>> pending_;  // per stream
  std::size_t pending_pos_ = 0;
  bool exhausted_ = false;
};

/// Streaming MIMO channel block: ntx inputs -> nrx outputs, with a fixed
/// fading realization, continuous-phase CFO and AWGN.
class MimoChannelBlock final : public flowgraph::Block {
 public:
  explicit MimoChannelBlock(channel::ChannelConfig cfg);

  flowgraph::WorkStatus work() override;

  [[nodiscard]] const channel::ChannelRealization& realization() const noexcept {
    return realization_;
  }

 private:
  channel::ChannelConfig cfg_;
  channel::ChannelRealization realization_;
  std::vector<std::vector<dsp::FirFilter>> firs_;  // [rx][tx]
  dsp::ComplexGaussian noise_;
  double cfo_phase_ = 0.0;
};

/// Sink block: buffers nrx streams and drives the streaming scan engine
/// over them with one ScanCursor kept across work() calls, so the scan
/// runs over the stream once, however the samples arrive, and finds what
/// StreamReceiver::receive_all finds on the whole stream. Decoded packets
/// pile up in packets() and the block keeps session-style StreamStats with
/// the full RxError taxonomy, both straight from the engine. Every scan
/// event contributes a packet record (including failed candidates — their
/// error field says why), so packets() doubles as the block's event log.
class ReceiverBlock final : public flowgraph::Block {
 public:
  /// The block scans once `attempt_window` samples past its cursor are
  /// buffered (and at the end of the stream).
  ReceiverBlock(PhyConfig cfg, std::size_t nrx,
                std::size_t attempt_window = 1U << 15U);

  flowgraph::WorkStatus work() override;

  [[nodiscard]] const std::vector<RxPacket>& packets() const noexcept {
    return packets_;
  }
  /// Receive statistics over everything the block has scanned so far.
  [[nodiscard]] const StreamStats& stats() const noexcept { return stats_; }
  /// Receive attempts the block's scan has run: its work, counted.
  [[nodiscard]] std::size_t scan_attempts() const noexcept {
    return cursor_.attempts;
  }

 private:
  StreamReceiver srx_;
  std::size_t nrx_;
  std::size_t attempt_window_;
  /// Per antenna: the samples from the oldest one a later attempt or
  /// rewind may read; cursor_ and scan_at_ count from its first sample.
  std::vector<std::vector<cf32>> window_;
  std::vector<std::span<const cf32>> spans_;  // per-scan scratch
  ScanCursor cursor_;
  /// Buffered samples at which the next scan runs.
  std::size_t scan_at_;
  RxWorkspace ws_;
  StreamStats stats_;
  std::vector<RxPacket> packets_;
};

}  // namespace mimonet::core
