// L-SIG (legacy SIGNAL) and HT-SIG field encoding/decoding.
//
// L-SIG carries a rate tag and a 12-bit length with even parity; HT-SIG
// carries the MCS, the 16-bit HT length, flags, and an 8-bit CRC. Both are
// BPSK rate-1/2 on the 48-carrier legacy plan; HT-SIG is rotated 90 degrees
// (QBPSK) so receivers can detect the HT format.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "dsp/types.hpp"

namespace mimonet::wifi {

using dsp::cf32;

/// L-SIG RATE bits of 6 Mb/s, the rate every HT-mixed PPDU announces.
inline constexpr std::uint8_t kLsigRate6Mbps = 0b1011;

/// Legacy SIGNAL field contents.
struct LSig {
  std::uint8_t rate_bits = kLsigRate6Mbps;  // HT frames always use it
  std::uint16_t length = 0;         // 12-bit spoofed legacy length

  friend bool operator==(const LSig&, const LSig&) = default;
};

/// HT-SIG field contents (the subset meaningful to this PHY). cbw40,
/// short_gi and n_ess exist so the field round-trips; this PHY sends none
/// of them, and decode_htsig rejects a field that sets one.
struct HtSig {
  std::uint8_t mcs = 0;        // 7 bits
  bool cbw40 = false;          // always false here (20 MHz only)
  std::uint16_t length = 0;    // PSDU length in bytes (16 bits)
  bool smoothing = true;
  bool not_sounding = true;
  bool aggregation = false;
  std::uint8_t stbc = 0;       // 2 bits, 0 = none
  bool fec_coding = false;     // false = BCC
  bool short_gi = false;
  std::uint8_t n_ess = 0;      // extension LTFs, 2 bits

  friend bool operator==(const HtSig&, const HtSig&) = default;
};

/// Serialize L-SIG to its 24 bits (RATE, reserved, LENGTH, parity, 6 tail).
[[nodiscard]] std::vector<std::uint8_t> encode_lsig(const LSig& sig);

/// Parse 24 L-SIG bits; nullopt when the parity check fails.
[[nodiscard]] std::optional<LSig> decode_lsig(std::span<const std::uint8_t> bits);

/// Serialize HT-SIG to its 48 bits (two 24-bit parts; CRC-8 over the first
/// 34 bits, then 6 tail zeros).
[[nodiscard]] std::vector<std::uint8_t> encode_htsig(const HtSig& sig);

/// Parse 48 HT-SIG bits; nullopt when the CRC check fails or the content
/// is one this PHY never sends: the reserved bit (bit 26) cleared, 40 MHz,
/// short GI, or extension spatial streams (n_ess != 0). CRC-8 passes on 1
/// in 256 random fields, so the content rule is what keeps a false sync
/// from announcing a frame.
[[nodiscard]] std::optional<HtSig> decode_htsig(std::span<const std::uint8_t> bits);

/// Convolutionally encode (rate 1/2, zero start state, tail embedded in the
/// bits), interleave and BPSK-map a SIG field into data-carrier symbols.
/// `bits.size()` must be a multiple of 24; each 24 bits yields one legacy
/// OFDM symbol's 48 carriers. `qbpsk` rotates the constellation 90 degrees
/// (HT-SIG format detection).
[[nodiscard]] std::vector<cf32> map_sig_field(std::span<const std::uint8_t> bits,
                                              bool qbpsk);

/// Inverse of map_sig_field for soft decoding: equalized data carriers (a
/// multiple of 48) -> deinterleaved coded-bit LLRs ready for the Viterbi
/// decoder (terminated trellis). `noise_var` scales the LLRs.
[[nodiscard]] std::vector<float> demap_sig_field(std::span<const cf32> carriers,
                                                 float noise_var, bool qbpsk);

/// demap_sig_field into caller storage. `scratch_llrs` holds the
/// pre-deinterleave LLRs; `out` receives the result (both resized, capacity
/// kept).
void demap_sig_field_into(std::span<const cf32> carriers, float noise_var, bool qbpsk,
                          std::vector<float>& scratch_llrs, std::vector<float>& out);

}  // namespace mimonet::wifi
