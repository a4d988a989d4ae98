#include "core/phy_config.hpp"

#include <algorithm>
#include <cmath>

#include "wifi/preamble.hpp"

namespace mimonet::core {

std::size_t FrameLayout::n_ht_ltfs() const { return wifi::num_ht_ltfs(nss); }

std::size_t FrameLayout::lltf_offset() const noexcept { return wifi::kLstfLen; }

std::size_t FrameLayout::lsig_offset() const noexcept {
  return lltf_offset() + wifi::kLltfLen;
}

std::size_t FrameLayout::htsig_offset() const noexcept {
  return lsig_offset() + wifi::kLsigLen;
}

std::size_t FrameLayout::htstf_offset() const noexcept {
  return htsig_offset() + wifi::kHtSigLen;
}

std::size_t FrameLayout::htltf_offset() const noexcept {
  return htstf_offset() + wifi::kHtStfLen;
}

std::size_t FrameLayout::data_offset() const {
  return htltf_offset() + n_ht_ltfs() * wifi::kHtLtfLen;
}

std::size_t FrameLayout::total_samples() const {
  return data_offset() + n_data_symbols * ofdm::kSymLen;
}

double FrameLayout::airtime_us() const {
  return static_cast<double>(total_samples()) / 20.0;  // 20 Msps
}

std::uint16_t FrameLayout::spoofed_lsig_length() const {
  const auto spoof =
      static_cast<long>(std::ceil((airtime_us() - 20.0) / 4.0)) * 3 - 3;
  return static_cast<std::uint16_t>(std::clamp<long>(spoof, 0, 0xFFF));
}

std::size_t ldpc_codeword_count(std::size_t psdu_bytes) {
  const std::size_t payload_bits = kServiceBits + 8 * psdu_bytes;
  return (payload_bits + kLdpcK - 1) / kLdpcK;
}

std::size_t data_symbol_count(const wifi::McsInfo& mcs, std::size_t psdu_bytes,
                              bool fec_enabled, bool stbc, FecType fec_type) {
  std::size_t n = 0;
  if (fec_enabled && fec_type == FecType::kLdpc) {
    const std::size_t coded_bits = ldpc_codeword_count(psdu_bytes) * kLdpcN;
    const std::size_t per_symbol = mcs.coded_bits_per_symbol();
    n = (coded_bits + per_symbol - 1) / per_symbol;
  } else {
    const std::size_t payload_bits = kServiceBits + 8 * psdu_bytes + kTailBits;
    const std::size_t per_symbol =
        fec_enabled ? mcs.data_bits_per_symbol() : mcs.coded_bits_per_symbol();
    n = (payload_bits + per_symbol - 1) / per_symbol;
  }
  if (stbc && n % 2 != 0) ++n;
  return n;
}

}  // namespace mimonet::core
