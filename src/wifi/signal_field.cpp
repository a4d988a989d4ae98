#include "wifi/signal_field.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "fec/convolutional.hpp"
#include "fec/crc.hpp"
#include "wifi/interleaver.hpp"

namespace mimonet::wifi {

namespace {

// Field bit helpers: LSB-first packing as transmitted on air.
void put_bits(std::vector<std::uint8_t>& out, std::uint32_t value, unsigned count) {
  for (unsigned i = 0; i < count; ++i) {
    out.push_back(static_cast<std::uint8_t>((value >> i) & 1U));
  }
}

[[nodiscard]] std::uint32_t get_bits(std::span<const std::uint8_t> bits,
                                     std::size_t offset, unsigned count) {
  std::uint32_t v = 0;
  for (unsigned i = 0; i < count; ++i) {
    v |= static_cast<std::uint32_t>(bits[offset + i] & 1U) << i;
  }
  return v;
}

}  // namespace

std::vector<std::uint8_t> encode_lsig(const LSig& sig) {
  if (sig.length > 0xFFF) throw std::invalid_argument("encode_lsig: length > 12 bits");
  std::vector<std::uint8_t> bits;
  bits.reserve(24);
  put_bits(bits, sig.rate_bits, 4);
  bits.push_back(0);  // reserved
  put_bits(bits, sig.length, 12);
  // Even parity over bits 0..16.
  std::uint8_t parity = 0;
  for (const auto b : bits) parity ^= b;
  bits.push_back(parity);
  put_bits(bits, 0, 6);  // tail
  return bits;
}

std::optional<LSig> decode_lsig(std::span<const std::uint8_t> bits) {
  if (bits.size() != 24) return std::nullopt;
  std::uint8_t parity = 0;
  for (std::size_t i = 0; i < 18; ++i) parity ^= bits[i] & 1U;
  if (parity != 0) return std::nullopt;  // bits[17] included: even parity
  for (std::size_t i = 18; i < 24; ++i) {
    if (bits[i] != 0) return std::nullopt;  // tail must be zero
  }
  LSig sig;
  sig.rate_bits = static_cast<std::uint8_t>(get_bits(bits, 0, 4));
  sig.length = static_cast<std::uint16_t>(get_bits(bits, 5, 12));
  return sig;
}

std::vector<std::uint8_t> encode_htsig(const HtSig& sig) {
  if (sig.mcs > 0x7F) throw std::invalid_argument("encode_htsig: mcs > 7 bits");
  std::vector<std::uint8_t> bits;
  bits.reserve(48);
  // HT-SIG1.
  put_bits(bits, sig.mcs, 7);
  bits.push_back(sig.cbw40 ? 1 : 0);
  put_bits(bits, sig.length, 16);
  // HT-SIG2.
  bits.push_back(sig.smoothing ? 1 : 0);
  bits.push_back(sig.not_sounding ? 1 : 0);
  bits.push_back(1);  // reserved, always 1
  bits.push_back(sig.aggregation ? 1 : 0);
  put_bits(bits, sig.stbc, 2);
  bits.push_back(sig.fec_coding ? 1 : 0);
  bits.push_back(sig.short_gi ? 1 : 0);
  put_bits(bits, sig.n_ess, 2);
  // CRC-8 over the first 34 bits, transmitted MSB (c7) first.
  const std::uint8_t crc = fec::crc8_bits(std::span(bits).first(34));
  for (int i = 7; i >= 0; --i) {
    bits.push_back(static_cast<std::uint8_t>((crc >> i) & 1U));
  }
  put_bits(bits, 0, 6);  // tail
  return bits;
}

std::optional<HtSig> decode_htsig(std::span<const std::uint8_t> bits) {
  if (bits.size() != 48) return std::nullopt;
  const std::uint8_t expected = fec::crc8_bits(bits.first(34));
  std::uint8_t got = 0;
  for (std::size_t i = 0; i < 8; ++i) {
    got = static_cast<std::uint8_t>((got << 1U) | (bits[34 + i] & 1U));
  }
  if (got != expected) return std::nullopt;
  if (bits[26] == 0) return std::nullopt;  // reserved, always 1
  HtSig sig;
  sig.mcs = static_cast<std::uint8_t>(get_bits(bits, 0, 7));
  sig.cbw40 = bits[7] != 0;
  sig.length = static_cast<std::uint16_t>(get_bits(bits, 8, 16));
  sig.smoothing = bits[24] != 0;
  sig.not_sounding = bits[25] != 0;
  sig.aggregation = bits[27] != 0;
  sig.stbc = static_cast<std::uint8_t>(get_bits(bits, 28, 2));
  sig.fec_coding = bits[30] != 0;
  sig.short_gi = bits[31] != 0;
  sig.n_ess = static_cast<std::uint8_t>(get_bits(bits, 32, 2));
  if (sig.cbw40 || sig.short_gi || sig.n_ess != 0) return std::nullopt;
  return sig;
}

std::vector<cf32> map_sig_field(std::span<const std::uint8_t> bits, bool qbpsk) {
  if (bits.empty() || bits.size() % 24 != 0) {
    throw std::invalid_argument("map_sig_field: bit count must be a multiple of 24");
  }
  const auto coded = fec::conv_encode(bits);  // rate 1/2 -> 48 bits per symbol
  const LegacyInterleaver& il = cached_legacy_interleaver(1);
  const auto interleaved = il.interleave(coded);
  std::vector<cf32> out(interleaved.size());
  for (std::size_t i = 0; i < interleaved.size(); ++i) {
    const float v = (interleaved[i] != 0) ? 1.0F : -1.0F;
    out[i] = qbpsk ? cf32(0.0F, v) : cf32(v, 0.0F);
  }
  return out;
}

void demap_sig_field_into(std::span<const cf32> carriers, float noise_var, bool qbpsk,
                          std::vector<float>& scratch_llrs, std::vector<float>& out) {
  if (carriers.empty() || carriers.size() % 48 != 0) {
    throw std::invalid_argument("demap_sig_field: carrier count must be a multiple of 48");
  }
  const float inv_nv = 4.0F / std::max(noise_var, 1e-12F);
  scratch_llrs.resize(carriers.size());
  for (std::size_t i = 0; i < carriers.size(); ++i) {
    const float axis = qbpsk ? carriers[i].imag() : carriers[i].real();
    // Positive LLR = bit 0 more likely; bit 0 maps to -1 on the axis.
    // Non-finite observations become erasures so the Viterbi branch
    // metrics stay defined.
    const float llr = -axis * inv_nv;
    scratch_llrs[i] = std::isfinite(llr) ? llr : 0.0F;
  }
  cached_legacy_interleaver(1).deinterleave_into(scratch_llrs, out);
}

std::vector<float> demap_sig_field(std::span<const cf32> carriers, float noise_var,
                                   bool qbpsk) {
  std::vector<float> scratch;
  std::vector<float> out;
  demap_sig_field_into(carriers, noise_var, qbpsk, scratch, out);
  return out;
}

}  // namespace mimonet::wifi
