// Shared PHY configuration for the MIMONet transceiver.
#pragma once

#include <cstdint>

#include "eq/equalizer.hpp"
#include "fec/scrambler.hpp"
#include "sync/frame_sync.hpp"
#include "wifi/mcs.hpp"

namespace mimonet::core {

/// Knobs shared by transmitter and receiver. The ones the paper's ablations
/// exercise (FEC on/off, equalizer choice, smoothing, phase tracking, sync
/// algorithm) are all here.
/// Which FEC family encodes the data field when fec_enabled.
enum class FecType : std::uint8_t {
  kBcc,   ///< K=7 convolutional + puncturing (mandatory 802.11n mode)
  kLdpc,  ///< rate-1/2 QC-LDPC (the optional mode HT-SIG's FEC bit signals)
};

/// Fixed LDPC codeword geometry (Z = 27 -> the 802.11n n = 648 code).
inline constexpr std::size_t kLdpcN = 648;
inline constexpr std::size_t kLdpcK = 324;

struct PhyConfig {
  unsigned mcs = 0;  ///< MCS 0..31; nss and constellation derive from it
  /// When false, coded-bit stages (BCC + puncturing) are bypassed — the
  /// paper's "concatenation of FEC in the packet construction" ablation.
  bool fec_enabled = true;
  /// FEC family; kLdpc overrides the MCS's puncturing rate with the fixed
  /// rate-1/2 LDPC code and is announced in HT-SIG, so the receiver
  /// auto-detects it.
  FecType fec_type = FecType::kBcc;
  /// Alamouti space-time block coding: one spatial stream over two
  /// space-time streams / antennas (requires a single-stream MCS, 0-7).
  /// Diversity instead of multiplexing — the baseline for experiment E11.
  bool stbc = false;
  std::uint32_t scrambler_seed = fec::kDefaultScramblerSeed;

  // Receiver-side choices.
  eq::EqualizerType equalizer = eq::EqualizerType::kMmse;
  bool smoothing = true;             ///< frequency-smooth the LS estimate
  bool phase_tracking = true;        ///< pilot CPE correction
  /// Decision-directed channel tracking: after each data symbol, nudge the
  /// per-subcarrier channel estimate toward the sliced decisions (LMS).
  /// Counters channel aging under Doppler (E15); applies to the linear
  /// equalizer path (not ML or STBC).
  bool decision_tracking = false;
  float decision_tracking_mu = 0.25F;  ///< LMS step size in (0, 1]
  sync::TimingMode timing_mode = sync::TimingMode::kLtfCrossCorr;
  /// Batched symbol-plane decode: run the payload through stage-wise passes
  /// over chunks of OFDM symbols (batch FFT -> batch equalize -> SIMD demap
  /// + deinterleave -> streaming Viterbi) instead of one symbol at a time
  /// through every layer. Bit-identical results either way (the equivalence
  /// suite pins it); `false` selects the reference per-symbol path. Applies
  /// to the non-STBC payload loop.
  bool batched_decode = true;

  [[nodiscard]] wifi::McsInfo mcs_info() const { return wifi::mcs_info(mcs); }
  /// Space-time streams actually radiated (2 for STBC, else nss).
  [[nodiscard]] std::size_t n_sts() const {
    return stbc ? 2 : mcs_info().nss;
  }
};

/// Sample-level layout of a PPDU for a given stream count and symbol count.
/// `nss` here is the number of *space-time* streams (2 for STBC), since it
/// is what sizes the HT preamble.
struct FrameLayout {
  std::size_t nss = 1;
  std::size_t n_data_symbols = 0;

  [[nodiscard]] std::size_t n_ht_ltfs() const;
  /// Offsets from the first L-STF sample.
  [[nodiscard]] std::size_t lltf_offset() const noexcept;
  [[nodiscard]] std::size_t lsig_offset() const noexcept;
  [[nodiscard]] std::size_t htsig_offset() const noexcept;
  [[nodiscard]] std::size_t htstf_offset() const noexcept;
  [[nodiscard]] std::size_t htltf_offset() const noexcept;
  [[nodiscard]] std::size_t data_offset() const;
  [[nodiscard]] std::size_t total_samples() const;
  /// PPDU air time in microseconds at 20 Msps.
  [[nodiscard]] double airtime_us() const;
  /// L-SIG LENGTH of this PPDU: the spoofed legacy length that makes an
  /// 11a device defer for the whole PPDU (802.11n eq. 20-11 shape,
  /// LENGTH = ceil((TXTIME - 20 us) / 4 us) * 3 - 3), clamped to 12 bits.
  [[nodiscard]] std::uint16_t spoofed_lsig_length() const;
};

/// Number of HT data OFDM symbols needed for a PSDU of `psdu_bytes` at the
/// given MCS (SERVICE + PSDU + tail bits, padded to a whole symbol; STBC
/// pads to an even symbol count because Alamouti works on symbol pairs;
/// LDPC packs whole n=648 codewords and has no tail bits).
[[nodiscard]] std::size_t data_symbol_count(const wifi::McsInfo& mcs,
                                            std::size_t psdu_bytes, bool fec_enabled,
                                            bool stbc = false,
                                            FecType fec_type = FecType::kBcc);

/// LDPC codewords needed for the SERVICE + PSDU bits.
[[nodiscard]] std::size_t ldpc_codeword_count(std::size_t psdu_bytes);

inline constexpr std::size_t kServiceBits = 16;
inline constexpr std::size_t kTailBits = 6;

}  // namespace mimonet::core
