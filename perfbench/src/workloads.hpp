// Seeded input generation for the three benchmark workloads.
//
// Every workload yields the same three inputs, so each run can drive all
// three public entry points the benchmark measures:
//   - a scan capture (ReceiveSession::scan), with the true start of every
//     frame in it;
//   - single-frame receive items (ReceiveSession::receive_one), each with
//     the window a frame occupies and the tail from there to the end of its
//     parent capture (for the tail-cost probe);
//   - a LinkConfig (LinkSimulator::run).
// The workload decides their shapes and how much of the run each gets.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "core/link_simulator.hpp"
#include "core/phy_config.hpp"
#include "dsp/types.hpp"

namespace perfbench {

using mimonet::dsp::cf32;

inline constexpr std::size_t kNrx = 2;
using Capture = std::vector<std::vector<cf32>>;     ///< owned, per antenna
using View = std::array<std::span<const cf32>, kNrx>;  ///< borrowed, per antenna

struct Frame {
  std::size_t start = 0;   ///< first L-STF sample in its capture
  std::size_t extent = 0;  ///< PPDU samples
  std::vector<std::uint8_t> psdu;
};

struct RxItem {
  View input;   ///< what receive_one sees
  View window;  ///< frame extent plus pad
  View tail;    ///< same start as window, to the end of the parent capture
  std::size_t frame = 0;  ///< index into Workload::frames
};

/// How an untraced run divides its measuring time between its phases.
struct Shares {
  double scan = 0.0;          ///< 1-worker scan
  double scan_sharded = 0.0;  ///< nproc-worker scan
  double rx = 0.0;
  double mc = 0.0;
};

struct Workload {
  std::string name;
  mimonet::core::PhyConfig phy;  ///< receiver configuration (defaults)
  Shares shares;
  /// The workload's own timed loop ("scan", "rx" or "mc"): where the traced
  /// run counts heap allocations per packet.
  std::string primary;

  std::vector<Frame> frames;         ///< every transmitted frame
  std::vector<Capture> captures;     ///< owned single-frame captures
  Capture stream;                    ///< the scan capture
  std::vector<std::size_t> stream_frames;  ///< frames (by index) in `stream`
  std::vector<std::size_t> stream_starts;  ///< their starts in `stream`
  bool stream_must_deliver_all = false;
  std::vector<RxItem> rx;
  /// The item set-up receives: the same MCS and size for every seed, so the
  /// seed does not move setup_s.
  std::size_t warm_item = 0;

  mimonet::core::LinkConfig link;
  std::size_t mc_packets = 0;
};

/// Names accepted by make_workload.
[[nodiscard]] const std::vector<std::string>& workload_names();

/// Build a workload's inputs from `seed`. `tiny` shrinks every input for
/// the smoke test. Throws std::invalid_argument for an unknown name.
[[nodiscard]] Workload make_workload(const std::string& name, std::uint64_t seed,
                                     bool tiny);

/// The reference Monte-Carlo link: 2x2 MCS 12 on TGn-D-like fading with mild
/// Doppler and CFO, at an SNR on the PER waterfall.
[[nodiscard]] mimonet::core::LinkConfig reference_link(std::uint64_t seed);

/// Packet p of a link, for driving a LinkSimulator's transmitter() and
/// channel() by hand: its PSDU and the seed to reseed the channel with.
/// Both depend only on (link.seed, p).
[[nodiscard]] std::vector<std::uint8_t> link_psdu(
    const mimonet::core::LinkConfig& link, std::size_t p);
[[nodiscard]] std::uint64_t link_channel_seed(const mimonet::core::LinkConfig& link,
                                              std::size_t p);

}  // namespace perfbench
