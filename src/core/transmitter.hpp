// The MIMONet transmitter: PSDU in, per-antenna baseband sample streams out,
// following the IEEE 802.11n HT-mixed PPDU structure with BCC FEC, spatial
// multiplexing and the full preamble.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/phy_config.hpp"
#include "dsp/types.hpp"
#include "mod/constellation.hpp"
#include "ofdm/symbol.hpp"
#include "wifi/signal_field.hpp"
#include "wifi/stream_parser.hpp"

namespace mimonet::eq {
class Precoder;  // eq/precoder.hpp
}

namespace mimonet::core {

using dsp::cf32;

struct TxWorkspace;    // core/workspace.hpp
struct MuTxWorkspace;  // core/workspace.hpp

/// One-shot PPDU builder. Construct once per PHY configuration; transmit()
/// is then reusable for any PSDU length.
class Transmitter {
 public:
  explicit Transmitter(PhyConfig cfg);

  [[nodiscard]] const PhyConfig& config() const noexcept { return cfg_; }
  /// Number of TX chains / space-time streams (2 for STBC, else nss).
  [[nodiscard]] std::size_t num_streams() const noexcept { return nsts_; }

  /// Build the full PPDU. Returns one sample stream per TX chain, equal
  /// length FrameLayout::total_samples(); mean per-antenna sample power is
  /// ~1/n_sts so total radiated power is independent of the stream count.
  [[nodiscard]] std::vector<std::vector<cf32>> transmit(
      std::span<const std::uint8_t> psdu) const;

  /// Workspace form of transmit: the PPDU lands in ws.chains and all
  /// intermediate buffers live in `ws`, so a warm call (same PSDU size)
  /// performs no heap allocation. Output is bit-identical to transmit().
  void transmit_into(std::span<const std::uint8_t> psdu, TxWorkspace& ws) const;

  /// Multi-user downlink: build every user's single-stream PPDU (one PSDU
  /// per user, this transmitter's single-stream configuration for all) and
  /// mix them through the precoder into ws.chains — chains[a][t] =
  /// sum_u W(a, u) * ppdu_u[t], covering preambles and data alike, so each
  /// user's unmodified 1x1 receiver estimates its effective precoded
  /// channel from its own preamble. Requires a 1-stream MCS without STBC,
  /// equal PSDU sizes (triggered MU-PPDU), and w.n_users() == psdus.size().
  /// Warm calls perform no heap allocation.
  void transmit_mu_into(std::span<const std::span<const std::uint8_t>> psdus,
                        const eq::Precoder& w, MuTxWorkspace& ws) const;

  /// Multi-user uplink "virtual stream": build this user's PPDU as
  /// space-time stream `iss` of an `n_sts_total`-stream transmission —
  /// preamble chain iss (CSD + P-matrix), stream-iss interleaving and
  /// pilots, 1/sqrt(n_sts_total) power — while the data field carries this
  /// user's own codeword. U users transmitting virtual streams 0..U-1
  /// superpose at the base station into exactly the tall MIMO problem the
  /// joint detector inverts. Requires a 1-stream MCS without STBC; the
  /// result lands in ws.chains[0]. iss == 0, n_sts_total == 1 reproduces
  /// transmit_into bit-for-bit.
  void transmit_virtual_into(std::span<const std::uint8_t> psdu,
                             std::size_t iss, std::size_t n_sts_total,
                             TxWorkspace& ws) const;

  /// Frame layout for a PSDU of the given size under this configuration.
  [[nodiscard]] FrameLayout layout(std::size_t psdu_bytes) const;

  /// The encoded (scrambled [+ FEC] ) bit stream before spatial parsing —
  /// exposed for white-box tests.
  [[nodiscard]] std::vector<std::uint8_t> encode_data_bits(
      std::span<const std::uint8_t> psdu) const;

 private:
  /// encode_data_bits into workspace buffers; the returned span aliases
  /// workspace storage and stays valid until the next encode.
  std::span<const std::uint8_t> encode_data_bits_into(
      std::span<const std::uint8_t> psdu, TxWorkspace& ws) const;

  /// Build (or reuse) the cached L-SIG / HT-SIG carriers in `ws` for a PSDU
  /// of this size.
  void ensure_sig_carriers(std::size_t psdu_size, TxWorkspace& ws) const;

  /// Empty `chain` and append everything chain `sts` of the fl.nss-chain
  /// PPDU `fl` sends before its data: L-STF, L-LTF, L-SIG, HT-SIG, HT-STF
  /// and the HT-LTFs. The SIG carriers must be current (ensure_sig_carriers).
  void begin_chain(std::size_t sts, const FrameLayout& fl, std::vector<cf32>& chain,
                   TxWorkspace& ws) const;

  /// Interleave and map space-time stream `iss` of `n_sts`, then append its
  /// HT data symbols to `out`.
  void modulate_stream(std::span<const std::uint8_t> stream_bits, std::size_t iss,
                       std::size_t n_sts, std::vector<cf32>& out,
                       TxWorkspace& ws) const;

  /// Alamouti path: map the single coded stream onto both space-time
  /// streams (ws.chains[0], ws.chains[1]) pairwise across OFDM symbols.
  void modulate_stbc(std::span<const std::uint8_t> stream_bits,
                     TxWorkspace& ws) const;

  /// Append HT data symbol `n` of space-time stream `iss` of `n_sts`: its
  /// 52 data carriers plus the stream's pilots, HT CSD and tone gain.
  void append_data_symbol(std::span<const cf32> carriers, std::size_t iss,
                          std::size_t n_sts, std::size_t n, std::vector<cf32>& out,
                          TxWorkspace& ws) const;

  /// Legacy-plan SIG symbol with CSD, appended to `out`.
  void append_legacy_symbol(std::span<const cf32> carriers48,
                            std::size_t polarity_index, int csd,
                            std::vector<cf32>& out,
                            std::vector<cf32>& time_scratch) const;

  PhyConfig cfg_;
  wifi::McsInfo mcs_;
  std::size_t nss_;
  std::size_t nsts_;
  mod::Constellation constellation_;
  wifi::StreamParser parser_;
  ofdm::SymbolModulator ht_mod_;
};

}  // namespace mimonet::core
