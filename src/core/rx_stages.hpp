// The stages of the payload chain that Receiver::receive and
// MuUplinkReceiver::receive share (DESIGN.md "One payload chain"). Each
// stage reads and writes the caller's RxWorkspace. Where the two receivers
// differ (smoothing, ML detection, decision tracking), the difference is a
// stage argument.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "chanest/ls_estimator.hpp"
#include "chanest/phase_tracker.hpp"
#include "core/phy_config.hpp"
#include "core/workspace.hpp"
#include "eq/equalizer.hpp"
#include "fec/viterbi.hpp"
#include "mod/constellation.hpp"
#include "ofdm/symbol.hpp"
#include "wifi/mcs.hpp"

namespace mimonet::core::rx {

/// Reset a reused SnrEstimate without releasing its per-bin storage.
void reset_snr(chanest::SnrEstimate& s);

/// Extend the packet-aligned frame copy ws.rx (one vector per antenna) from
/// `begin` to `end` samples past `start`, derotating the new samples by
/// -cfo_norm from oscillator phase `phase`; begin == 0 starts a new copy.
/// Returns the phase after the last sample, so a later call continues the
/// derotation bit-identically to one pass.
double copy_frame(std::span<const std::span<const cf32>> capture, std::size_t start,
                  std::size_t begin, std::size_t end, double cfo_norm, double phase,
                  RxWorkspace& ws);

/// L-LTF SNR estimate of the aligned frame into `snr` (the two repetitions
/// differ only by noise); returns the per-bin noise variance.
float lltf_noise_var(RxWorkspace& ws, chanest::SnrEstimate& snr);

/// HT-LTF FFTs and the LS estimate of the nrx x fl.nss channel into `est`,
/// frequency-smoothed when `smooth`.
void estimate_channel(const FrameLayout& fl, bool smooth, RxWorkspace& ws,
                      chanest::MimoChannelEstimate& est);

/// How the symbol plane detects the streams of one subcarrier.
enum class Detect : std::uint8_t {
  kConfigured,  ///< the configured equalizer; ML only up to two streams
  kLinear,      ///< a linear equalizer; an ML configuration runs MMSE
  kNone,        ///< Alamouti pairs, combined by the caller
};

/// The data-symbol plane of one frame: pilot CPE tracking and pilot EVM,
/// per-bin detection and (chunk by chunk) FFT, demap and per-stream
/// deinterleave. Built once the channel estimate exists; holds the tracker
/// state across the frame's symbols. prepare() sizes the workspace for the
/// other methods, so it runs first.
class SymbolPlane {
 public:
  /// @param nss  streams detected per subcarrier (the users, on the uplink)
  SymbolPlane(const ofdm::SymbolDemodulator& demod, const PhyConfig& cfg,
              const wifi::McsInfo& mcs, const FrameLayout& fl, std::size_t nss,
              const chanest::MimoChannelEstimate& est, float nv_bin, Detect detect,
              bool decision_tracking);

  /// Per-bin channel matrices into ws.h_at; with a linear equalizer, its
  /// per-bin coefficients into ws.coeffs and each stream's mean post-eq
  /// SINR (dB) into sinr_db. Returns the number of SINRs written.
  std::size_t prepare(RxWorkspace& ws, std::span<double> sinr_db) const;

  /// Pilot CPE tracking and pilot-EVM accounting for data symbol `n`, whose
  /// FFT grid on antenna a starts at grid + a * rx_stride. Returns the
  /// derotation phasor for the symbol's data bins.
  cf32 track_pilots(std::size_t n, const cf32* grid, std::size_t rx_stride,
                    RxWorkspace& ws);

  /// Symbols [n0, n0 + chunk) through the batched FFT, pilot tracking,
  /// detection, SIMD demap and deinterleave: stream s's deinterleaved LLRs
  /// land in ws.chunk_deint[s].
  void demod_chunk(std::size_t n0, std::size_t chunk, RxWorkspace& ws);

  /// Decision-directed LMS update of bin's channel from the observation and
  /// its equalized symbols, then re-preparation of its coefficients.
  void track_decisions(std::size_t bin, std::span<const cf32> y_obs,
                       std::span<const cf32> eq_symbols, RxWorkspace& ws) const;

  [[nodiscard]] const eq::MlDetector* ml() const noexcept {
    return ml_ ? &*ml_ : nullptr;
  }
  [[nodiscard]] bool decision_tracking() const noexcept { return dd_; }
  [[nodiscard]] double residual_cfo_norm() const noexcept {
    return tracker_.residual_cfo_norm();
  }

 private:
  const ofdm::SymbolDemodulator& demod_;
  const std::vector<std::size_t>& data_bins_;
  const std::vector<std::size_t>& pilot_bins_;
  FrameLayout fl_;
  const chanest::MimoChannelEstimate& est_;
  const mod::Constellation& constellation_;
  unsigned bps_;  ///< coded bits per subcarrier and stream
  std::size_t nss_;
  float nv_bin_;
  bool phase_tracking_;
  float dd_mu_;
  chanest::PilotPhaseTracker tracker_;
  std::optional<eq::LinearEqualizer> lin_eq_;
  std::optional<eq::MlDetector> ml_;
  bool dd_;
};

/// One codeword's LLR stream into ws.scrambled: depuncture and one-shot
/// Viterbi decode, or hard slicing when `fec_enabled` is false.
void decode_bcc(const fec::ViterbiDecoder& viterbi, std::span<const float> llrs,
                fec::CodeRate rate, std::size_t n_info_bits, bool fec_enabled,
                RxWorkspace& ws);

/// Descramble ws.scrambled in place and unpack the PSDU behind the SERVICE
/// field into `psdu`. Returns whether its FCS passed, or nullopt when the
/// bits are too few to hold SERVICE and PSDU.
std::optional<bool> descramble_psdu(std::size_t psdu_bytes, RxWorkspace& ws,
                                    std::vector<std::uint8_t>& psdu);

}  // namespace mimonet::core::rx
