// Layer-by-layer replay of core::Receiver::receive for the traced run.
//
// The replay calls the same public layer functions (sync, channel, chanest,
// ofdm, eq, mod, wifi, fec) in the receiver's order, with a tracer span
// around each call, and leaves its result in ws.packet. The benchmark gates
// on that packet being bit-identical to what ReceiveSession::receive_one
// produced for the same capture, so the stage times describe the real
// receive path and not a look-alike.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "core/phy_config.hpp"
#include "core/receiver.hpp"
#include "core/workspace.hpp"
#include "fec/viterbi.hpp"
#include "ofdm/symbol.hpp"
#include "sync/frame_sync.hpp"
#include "trace.hpp"

namespace perfbench {

using mimonet::dsp::cf32;

class Replayer {
 public:
  /// Supports the receiver configuration ReceiveSession uses by default:
  /// batched decode, linear equalizer, FEC on, no decision tracking.
  /// Throws std::invalid_argument for anything else.
  Replayer(const mimonet::core::PhyConfig& cfg, std::size_t nrx);

  /// Decode the first packet of `capture`; same contract and result
  /// (ws.packet) as Receiver::receive. `derotated` grows by the samples the
  /// packet-aligned CFO copy touched.
  bool receive(std::span<const std::span<const cf32>> capture,
               mimonet::core::RxWorkspace& ws, Tracer& tr,
               std::size_t& derotated) const;

 private:
  void decode_sig_llrs(const mimonet::dsp::SampleGrid& grids,
                       const std::vector<std::vector<cf32>>& h_legacy,
                       float noise_var, bool qbpsk, mimonet::core::RxWorkspace& ws,
                       std::vector<float>& out) const;

  mimonet::core::PhyConfig cfg_;
  std::size_t nrx_;
  mimonet::sync::FrameSynchronizer synchronizer_;
  mimonet::ofdm::SymbolDemodulator legacy_demod_;
  mimonet::ofdm::SymbolDemodulator ht_demod_;
  mimonet::fec::ViterbiDecoder viterbi_;
};

/// True when every field of two receive results matches bit for bit: the
/// outcome flags and classification, SIG fields, PSDU, sync estimate, both
/// SNR estimates, residual CFO and the per-stream SINRs.
[[nodiscard]] bool same_packet(const mimonet::core::RxPacket& a,
                               const mimonet::core::RxPacket& b);

}  // namespace perfbench
