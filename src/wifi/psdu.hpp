// PSDU framing: a compact 802.11-style MAC header, payload, and the CRC-32
// FCS — the paper's "packet construction" with FEC concatenated around it.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

namespace mimonet::wifi {

using MacAddress = std::array<std::uint8_t, 6>;

/// Minimal data-frame MAC header (24 bytes on the wire, little-endian
/// multi-byte fields, as in 802.11).
struct MacHeader {
  std::uint16_t frame_control = 0x0008;  // data frame
  std::uint16_t duration = 0;
  MacAddress addr1{};  // receiver
  MacAddress addr2{};  // transmitter
  MacAddress addr3{};  // BSSID
  std::uint16_t sequence_control = 0;

  friend bool operator==(const MacHeader&, const MacHeader&) = default;
};

inline constexpr std::size_t kMacHeaderLen = 24;
inline constexpr std::size_t kFcsLen = 4;

/// Maximum PSDU length representable in HT-SIG (and accepted by the PHY).
inline constexpr std::size_t kMaxPsduLen = 65535;

/// Serialize header + payload + FCS into a PSDU byte vector.
[[nodiscard]] std::vector<std::uint8_t> build_psdu(const MacHeader& header,
                                                   std::span<const std::uint8_t> payload);
/// build_psdu() into caller-owned storage (resized, capacity kept).
void build_psdu_into(const MacHeader& header, std::span<const std::uint8_t> payload,
                     std::vector<std::uint8_t>& psdu);

/// A successfully FCS-validated PSDU.
struct ParsedPsdu {
  MacHeader header;
  std::vector<std::uint8_t> payload;
};

/// Validate the FCS and split the PSDU; nullopt on corruption or truncation.
[[nodiscard]] std::optional<ParsedPsdu> parse_psdu(std::span<const std::uint8_t> psdu);

/// FCS check only (no parsing) — the PER counter's fast path.
[[nodiscard]] bool psdu_fcs_ok(std::span<const std::uint8_t> psdu) noexcept;

}  // namespace mimonet::wifi
