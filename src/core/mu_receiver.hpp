// Multi-user uplink joint detection at the base station: U single-antenna
// users transmit simultaneously as virtual space-time streams 0..U-1 (see
// Transmitter::transmit_virtual_into); the BS stacks its antennas against
// the user streams as one tall MIMO problem. It runs Receiver's stages
// (core/rx_stages.hpp): sync on the superposed legacy preamble, the joint
// nrx x U HT-LTF estimate, the batched symbol plane without the stream
// merge, then one Viterbi / descramble / FCS chain per user (one codeword
// per user).
//
// The uplink is trigger-based: the BS announced MCS and PSDU length, so no
// SIG decoding happens — the superposed SIG symbols are flown for timing
// realism and skipped.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/phy_config.hpp"
#include "core/workspace.hpp"
#include "fec/viterbi.hpp"
#include "ofdm/symbol.hpp"
#include "sync/frame_sync.hpp"

namespace mimonet::core {

using dsp::cf32;

/// One user's share of a decoded uplink MU frame.
struct MuUserPacket {
  bool fcs_ok = false;
  std::vector<std::uint8_t> psdu;  ///< decoded bytes (valid when detected)
  double sinr_db = 0.0;            ///< post-eq SINR of this user's stream
};

/// Everything the BS learned about one uplink MU frame.
struct MuRxPacket {
  bool detected = false;  ///< sync found the superposed preamble
  sync::FrameSyncResult sync;
  chanest::SnrEstimate snr;  ///< L-LTF estimate over the superposition
  std::vector<MuUserPacket> users;
};

/// Receive-side arena for the MU uplink path: reuses the single-link
/// RxWorkspace buffers (sync scratch, FFT grids, equalizer coefficients,
/// FEC scratch) plus the per-user result. One per thread.
struct MuRxWorkspace {
  RxWorkspace rx;
  MuRxPacket packet;
};

/// Stateless-per-packet joint detector; construct once per configuration.
class MuUplinkReceiver {
 public:
  /// @param cfg      the per-user PHY (1-stream MCS, FEC settings) every
  ///                 user transmits with — trigger-announced.
  /// @param n_users  virtual streams superposed in the capture (1..4).
  /// @param nrx      BS antennas; needs nrx >= n_users for the inversion.
  MuUplinkReceiver(PhyConfig cfg, std::size_t n_users, std::size_t nrx);

  [[nodiscard]] const PhyConfig& config() const noexcept { return cfg_; }
  [[nodiscard]] std::size_t n_users() const noexcept { return n_users_; }
  [[nodiscard]] std::size_t num_antennas() const noexcept { return nrx_; }

  /// Detect and jointly decode the MU frame in a multi-antenna capture.
  /// `psdu_bytes` is the trigger-announced per-user PSDU size (every user's
  /// frame geometry). Returns true when sync + channel estimation ran and
  /// ws.packet.users holds one entry per user (individual users may still
  /// fail FCS); false when the superposed preamble was never found or the
  /// capture is truncated. Warm calls perform no heap allocation.
  [[nodiscard]] bool receive(std::span<const std::span<const cf32>> capture,
                             std::size_t psdu_bytes, MuRxWorkspace& ws) const;

 private:
  PhyConfig cfg_;
  std::size_t n_users_;
  std::size_t nrx_;
  wifi::McsInfo mcs_;
  sync::FrameSynchronizer synchronizer_;
  ofdm::SymbolDemodulator ht_demod_;
  fec::ViterbiDecoder viterbi_;
};

}  // namespace mimonet::core
