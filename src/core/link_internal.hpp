// Internal sharing surface between LinkSimulator and MuLinkSimulator: the
// per-packet seeding discipline and the per-packet accounting. (The
// one-user MU downlink runs LinkSimulator itself, which is what makes the
// "MU collapses to SU" pin a structural identity rather than a tolerance.)
// Not part of the public API; include from core/ .cpp files only.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

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

/// Fold one receive attempt into a LinkResult: the PER/BER/throughput/
/// estimator accounting both engines share. `rws.packet` must hold the
/// attempt's outcome (it always does after Receiver::receive). The MU
/// downlink runs this per user against that user's truth.
void account_packet(LinkResult& res, const RxWorkspace& rws, bool detected,
                    std::span<const std::uint8_t> sent_psdu,
                    std::size_t payload_bytes, double airtime,
                    const channel::ChannelTruth& truth);

}  // namespace mimonet::core::detail
