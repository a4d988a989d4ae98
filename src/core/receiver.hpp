// The MIMONet receiver: synchronization, channel estimation, MIMO
// equalization, phase tracking, demapping, FEC decoding and PSDU recovery —
// plus the per-packet diagnostics (SNR estimate, sync state) the paper's
// evaluation relies on.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "chanest/ls_estimator.hpp"
#include "chanest/snr_estimator.hpp"
#include "core/phy_config.hpp"
#include "dsp/sample_grid.hpp"
#include "dsp/types.hpp"
#include "fec/viterbi.hpp"
#include "metrics/rx_error.hpp"
#include "ofdm/symbol.hpp"
#include "sync/frame_sync.hpp"
#include "wifi/signal_field.hpp"

namespace mimonet::core {

using dsp::cf32;

struct RxWorkspace;  // core/workspace.hpp

/// OFDM symbols per chunk of the batched symbol-plane decode pipeline: large
/// enough to amortize per-stage dispatch and fill the SIMD kernels, small
/// enough that the chunk slabs stay cache-resident and bounded (keeping
/// RxWorkspace allocation-free regardless of payload length).
inline constexpr std::size_t kDecodeBatchSymbols = 32;

/// Everything the receiver learned about one packet.
struct RxPacket {
  bool lsig_ok = false;
  bool htsig_ok = false;
  bool fcs_ok = false;
  /// Structured classification of how far decoding got (kOk on a clean
  /// frame). Set on every receive() path, including the false-returning
  /// ones — after a failed receive(capture, ws), ws.packet.error says why
  /// (kNoSync, kFalseSync for a rejected sync candidate — whose position is
  /// left in sync.packet_start — or kTruncated), which is what the
  /// streaming scan loop keys its resync policy on.
  metrics::RxError error = metrics::RxError::kNoSync;
  wifi::LSig lsig;
  wifi::HtSig htsig;
  /// Decoded PSDU bytes (present whenever HT-SIG decoded, even if the FCS
  /// check failed — BER experiments compare it against the sent PSDU).
  std::vector<std::uint8_t> psdu;

  // Diagnostics.
  sync::FrameSyncResult sync;
  chanest::SnrEstimate snr;              ///< L-LTF based estimate
  chanest::SnrEstimate pilot_snr;        ///< pilot-EVM based estimate
  chanest::MimoChannelEstimate channel;  ///< post-smoothing HT estimate
  double residual_cfo_norm = 0.0;        ///< from the pilot phase slope
  /// Mean post-equalization SINR per spatial stream (dB): the prepared
  /// equalizer's per-bin CSI (1/noise_var at unit signal gain) averaged in
  /// the linear domain over the data bins. Filled on the linear-equalizer
  /// paths (ZF/MMSE, batched or per-symbol); n_stream_sinr == 0 when the
  /// packet never reached equalization or used ML detection / STBC.
  std::array<double, 4> stream_sinr_db{};
  std::size_t n_stream_sinr = 0;
};

/// HARQ chase-combining decode mode (see core/harq_buffer.hpp and DESIGN.md
/// "The soft-combining plane"). Passed to the receive() overload below:
///   - `prior` carries the combined post-merge LLR stream retained from
///     earlier attempts of the same frame. When non-empty and its length
///     matches this attempt's merged stream, the two are summed element-wise
///     before depuncture/Viterbi (BCC) or LDPC decoding — chase combining.
///     A length mismatch (e.g. the retransmission changed MCS) is ignored
///     and the attempt decodes standalone.
///   - `combined` (when non-null) receives this attempt's post-merge LLR
///     stream *after* any prior was summed in — what a HARQ link stores
///     back into its HarqBuffer. It is cleared whenever decoding failed
///     before the FEC stage (no soft state worth retaining).
/// A default HarqDecode{} (empty prior, null combined) is attempt-1
/// semantics and bit-identical to the plain receive() path.
struct HarqDecode {
  std::span<const float> prior{};
  std::vector<float>* combined = nullptr;

  [[nodiscard]] bool active() const noexcept {
    return !prior.empty() || combined != nullptr;
  }
};

/// Stateless-per-packet receiver; construct once per configuration.
class Receiver {
 public:
  /// @param cfg  must agree with the transmitter on fec_enabled and the
  ///        scrambler handling; everything else is negotiated in-band
  ///        (MCS and length come from HT-SIG).
  /// @param nrx  number of RX antennas the captures will carry.
  Receiver(PhyConfig cfg, std::size_t nrx);

  /// As above with an explicit front-end scan policy: the default ScanMode
  /// is the exhaustive full-rate scan; decimation > 1 enables the two-pass
  /// decimated scan (see sync::ScanMode). The streaming layers surface
  /// these knobs through StreamReceiverConfig.
  Receiver(PhyConfig cfg, std::size_t nrx, const sync::ScanMode& scan);

  [[nodiscard]] const PhyConfig& config() const noexcept { return cfg_; }
  [[nodiscard]] std::size_t num_antennas() const noexcept { return nrx_; }

  /// THE receive entry point: detect and decode the first packet in a
  /// multi-antenna capture (one span per antenna; the spans may window any
  /// region of a longer capture, and ws.packet.sync.packet_start is
  /// relative to the window). All scratch — and the result, ws.packet —
  /// lives in `ws`, so a warm call performs no heap allocation. Returns
  /// true when a sync candidate was found and carried through the decode
  /// pipeline — including frames that then failed HT-SIG, truncation, or
  /// the FCS; false only when nothing synced. Delivery is ws.packet.fcs_ok,
  /// and ws.packet.error classifies the outcome either way. The work is
  /// proportional to the distance to the packet plus its frame, whatever
  /// follows the frame in the capture. Everything
  /// above this — StreamReceiver's scan
  /// loop, the farm, ReceiveSession — is a wrapper over this call. (The
  /// PR 6 vector-overload shims completed their one-release deprecation
  /// window and are gone; ReceiveSession::receive_one covers the
  /// convenience cases.)
  [[nodiscard]] bool receive(std::span<const std::span<const cf32>> capture,
                             RxWorkspace& ws) const;

  /// receive() in HARQ soft-combining mode: sums `harq.prior` into the
  /// post-merge LLR stream before FEC decoding and (when requested) exports
  /// the combined stream for retention. With a default HarqDecode the result
  /// is bit-identical to the plain overload.
  [[nodiscard]] bool receive(std::span<const std::span<const cf32>> capture,
                             RxWorkspace& ws, const HarqDecode& harq) const;

 private:
  /// Maximal-ratio combine one legacy symbol across antennas and soft-decode
  /// its SIG bits into `out` (48 deinterleaved LLRs per symbol).
  void decode_sig_llrs(const dsp::SampleGrid& grids,  // [rx][bin]
                       const std::vector<std::vector<cf32>>& h_legacy,
                       float noise_var, bool qbpsk, RxWorkspace& ws,
                       std::vector<float>& out) const;

  PhyConfig cfg_;
  std::size_t nrx_;
  sync::FrameSynchronizer synchronizer_;
  ofdm::SymbolDemodulator legacy_demod_;
  ofdm::SymbolDemodulator ht_demod_;
  fec::ViterbiDecoder viterbi_;
};

/// Total samples (preamble + data) of the frame a decoded HT-SIG announces,
/// computed with the same geometry the receiver's data decode used — what a
/// streaming scanner must advance by to skip the frame — provided something
/// besides HT-SIG corroborates that extent: the FCS passed, or L-SIG passed
/// with the 6 Mb/s rate bits and the spoofed length Transmitter writes for
/// that HT-SIG (FrameLayout::spoofed_lsig_length). nullopt otherwise,
/// including when pkt.htsig_ok is false. HT-SIG's CRC-8 passes on 1 in 256
/// false syncs, so a streaming scanner skips (or stops at) only a
/// corroborated extent.
[[nodiscard]] std::optional<std::size_t> corroborated_frame_samples(
    const RxPacket& pkt, const PhyConfig& cfg);

}  // namespace mimonet::core
