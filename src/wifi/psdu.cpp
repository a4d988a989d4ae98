#include "wifi/psdu.hpp"

#include <stdexcept>

#include "fec/crc.hpp"

namespace mimonet::wifi {

namespace {

void put_u16(std::vector<std::uint8_t>& out, std::uint16_t v) {
  out.push_back(static_cast<std::uint8_t>(v & 0xFFU));
  out.push_back(static_cast<std::uint8_t>(v >> 8U));
}

[[nodiscard]] std::uint16_t get_u16(std::span<const std::uint8_t> in, std::size_t off) {
  return static_cast<std::uint16_t>(in[off] | (in[off + 1] << 8U));
}

}  // namespace

std::vector<std::uint8_t> build_psdu(const MacHeader& header,
                                     std::span<const std::uint8_t> payload) {
  std::vector<std::uint8_t> psdu;
  build_psdu_into(header, payload, psdu);
  return psdu;
}

void build_psdu_into(const MacHeader& header, std::span<const std::uint8_t> payload,
                     std::vector<std::uint8_t>& psdu) {
  if (kMacHeaderLen + payload.size() + kFcsLen > kMaxPsduLen) {
    throw std::invalid_argument("build_psdu: payload too large");
  }
  psdu.clear();
  psdu.reserve(kMacHeaderLen + payload.size() + kFcsLen);
  put_u16(psdu, header.frame_control);
  put_u16(psdu, header.duration);
  psdu.insert(psdu.end(), header.addr1.begin(), header.addr1.end());
  psdu.insert(psdu.end(), header.addr2.begin(), header.addr2.end());
  psdu.insert(psdu.end(), header.addr3.begin(), header.addr3.end());
  put_u16(psdu, header.sequence_control);
  psdu.insert(psdu.end(), payload.begin(), payload.end());

  const std::uint32_t fcs = fec::crc32(psdu);
  for (unsigned i = 0; i < 4; ++i) {
    psdu.push_back(static_cast<std::uint8_t>((fcs >> (8 * i)) & 0xFFU));
  }
}

bool psdu_fcs_ok(std::span<const std::uint8_t> psdu) noexcept {
  if (psdu.size() < kMacHeaderLen + kFcsLen) return false;
  const auto body = psdu.first(psdu.size() - kFcsLen);
  const std::uint32_t expected = fec::crc32(body);
  std::uint32_t got = 0;
  for (unsigned i = 0; i < 4; ++i) {
    got |= static_cast<std::uint32_t>(psdu[psdu.size() - 4 + i]) << (8 * i);
  }
  return got == expected;
}

std::optional<ParsedPsdu> parse_psdu(std::span<const std::uint8_t> psdu) {
  if (!psdu_fcs_ok(psdu)) return std::nullopt;
  ParsedPsdu out;
  out.header.frame_control = get_u16(psdu, 0);
  out.header.duration = get_u16(psdu, 2);
  for (std::size_t i = 0; i < 6; ++i) {
    out.header.addr1[i] = psdu[4 + i];
    out.header.addr2[i] = psdu[10 + i];
    out.header.addr3[i] = psdu[16 + i];
  }
  out.header.sequence_control = get_u16(psdu, 22);
  out.payload.assign(psdu.begin() + kMacHeaderLen, psdu.end() - kFcsLen);
  return out;
}

}  // namespace mimonet::wifi
