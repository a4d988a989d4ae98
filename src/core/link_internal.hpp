// Internal sharing surface between LinkSimulator and MuLinkSimulator: the
// per-packet seeding discipline and the per-packet accounting. (The
// one-user MU downlink runs LinkSimulator itself, which is what makes the
// "MU collapses to SU" pin a structural identity rather than a tolerance.)
// Not part of the public API; include from core/ .cpp files only.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "core/link_simulator.hpp"

namespace mimonet::core::detail {

inline constexpr std::uint64_t kGolden = 0x9E3779B97F4A7C15ULL;

/// Every random draw for packet p flows from this value: unique per
/// (link seed, packet index) and independent of simulation history, which
/// is what makes the engines thread-count invariant.
[[nodiscard]] std::uint64_t packet_seed(std::uint64_t link_seed, std::size_t p);

/// Fold the link-level seed into the channel's, so varying LinkConfig::seed
/// varies fading/noise draws too (channel.seed can still be pinned
/// explicitly relative to it for common-random-number comparisons).
[[nodiscard]] channel::ChannelConfig seeded_channel(const LinkConfig& cfg);

/// The MAC frame of packet p into `psdu`, its payload staged in `payload`
/// (both resized, capacity kept): a fixed header carrying p's sequence
/// number and a payload drawn from the packet seed. `user` varies the
/// destination address and the payload stream; user 0's frame is the
/// single-user link's.
void build_packet_psdu(std::uint64_t pkt_seed, std::size_t p, std::size_t user,
                       std::size_t payload_bytes, std::vector<std::uint8_t>& payload,
                       std::vector<std::uint8_t>& psdu);

/// Bit errors between two equal-length PSDUs: the popcount of each byte's
/// XOR.
[[nodiscard]] std::size_t bit_errors(std::span<const std::uint8_t> sent,
                                     std::span<const std::uint8_t> got) noexcept;

/// Fold one receive attempt into a LinkResult: the PER/BER/throughput/
/// estimator accounting both engines share. `rws.packet` must hold the
/// attempt's outcome (it always does after Receiver::receive). The MU
/// downlink runs this per user against that user's truth.
void account_packet(LinkResult& res, const RxWorkspace& rws, bool detected,
                    std::span<const std::uint8_t> sent_psdu,
                    std::size_t payload_bytes, double airtime,
                    const channel::ChannelTruth& truth);

}  // namespace mimonet::core::detail
