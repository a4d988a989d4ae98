// ARQ MAC over the MIMONet PHY: a selective-repeat window ARQ (data frames
// one way, ACK frames the other) with exponential-backoff retransmission
// pacing and automatic MCS fallback — the network-level layer the paper's
// "MIMONet SDR platform for network-level exploitation of MIMO technology"
// motivates. Stop-and-wait is the same link with a window of one.
//
// Time is simulated: each link keeps a microsecond clock advanced by frame
// airtime and retransmission waits, and an externally scheduled fade
// (FadeSegment list) scales the channel as a function of that clock. That
// gives backoff something real to trade against: a fixed-interval
// retransmission policy burns every retry inside a long fade, while
// exponential backoff stretches the retry window past it.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <optional>
#include <span>
#include <vector>

#include "channel/mimo_channel.hpp"
#include "core/link_simulator.hpp"
#include "core/phy_config.hpp"
#include "core/receiver.hpp"
#include "core/transmitter.hpp"
#include "core/workspace.hpp"
#include "mac/link_adaptor.hpp"
#include "wifi/psdu.hpp"

namespace mimonet::mac {

/// Retransmission pacing. Enabled (the default) = exponential backoff with
/// deterministic jitter; disabled = the legacy fixed interval
/// (initial_timeout_us between every retry).
struct BackoffConfig {
  bool enabled = true;
  double initial_timeout_us = 50.0;  ///< wait before the first retransmission
  double multiplier = 2.0;           ///< growth per retry
  double max_backoff_us = 20000.0;   ///< cap on a single wait
  /// Deterministic +/- fractional jitter on each wait (decorrelates
  /// stations that collided; here it mostly exercises the code path).
  double jitter_frac = 0.1;
};

/// The wait before retransmission number `retry + 1` (retry is 0-based).
/// Pure function of its arguments: `key` seeds the jitter draw, so a fixed
/// (seed, frame, retry) triple always waits the same time.
[[nodiscard]] double backoff_delay_us(const BackoffConfig& cfg, unsigned retry,
                                      std::uint64_t key) noexcept;

/// One scheduled fade: while now_us is in [start_us, end_us) the channel's
/// power scale becomes `power_scale` (later segments override earlier ones
/// where they overlap). Outside every segment the nominal scale applies.
struct FadeSegment {
  double start_us = 0.0;
  double end_us = 0.0;
  double power_scale = 1.0;
};

/// The power scale in effect at `t_us` under `fades` (nominal otherwise).
[[nodiscard]] double fade_scale_at(std::span<const FadeSegment> fades,
                                   double t_us, double nominal) noexcept;

/// One scheduled wideband interference burst: while a frame's airtime
/// overlaps [start_us, end_us), CN(0, variance) noise is added to the
/// overlapping stretch of its capture (independent per antenna,
/// deterministic in the link seed and the frame's clock). Unlike a fade —
/// which scales the whole channel — a burst corrupts frames on an otherwise
/// healthy channel, which is exactly the case the evidence-driven adaptor
/// must not answer with an MCS fallback.
struct InterferenceSegment {
  double start_us = 0.0;
  double end_us = 0.0;
  double variance = 1.0;  ///< total complex noise variance of the burst
};

struct ArqConfig {
  core::PhyConfig data_phy{};   ///< PHY used for data frames
  core::PhyConfig ack_phy{};    ///< PHY for ACKs (defaults to MCS 0: robust)
  channel::ChannelConfig forward{};  ///< station -> peer
  channel::ChannelConfig reverse{};  ///< peer -> station (ACK path)
  unsigned max_retries = 7;     ///< retransmissions before giving up
  BackoffConfig backoff{};      ///< retransmission pacing policy
  /// Scheduled fades, applied to both directions as a function of the
  /// link's simulated clock (a physical obstruction shadows both paths).
  std::vector<FadeSegment> fades{};
  /// Scheduled interference bursts, applied to any frame (data or ACK)
  /// whose airtime overlaps a segment.
  std::vector<InterferenceSegment> interference{};
  std::uint64_t seed = 1;
};

/// ACK frame_control marker (control frame subtype ACK, simplified).
inline constexpr std::uint16_t kAckFrameControl = 0x00D4;

/// Signed distance from `expected12` to `seq12` on the 12-bit sequence ring,
/// sign-extended into [-2048, 2047]: negative = the frame is behind the
/// expectation (duplicate / already released), positive = ahead
/// (out-of-order arrival). Exact as long as true distances stay within half
/// the ring — guaranteed by the window < 2048 bound — including across the
/// 4095 -> 0 wrap.
[[nodiscard]] constexpr int seq12_delta(std::uint16_t seq12,
                                        std::uint16_t expected12) noexcept {
  const auto diff12 = static_cast<std::uint16_t>((seq12 - expected12) & 0x0FFFU);
  return (diff12 & 0x0800U) != 0 ? static_cast<int>(diff12) - 4096
                                 : static_cast<int>(diff12);
}

/// Selective-repeat window ARQ configuration.
struct SrConfig {
  ArqConfig arq{};          ///< PHYs, channels, retry/backoff/fade policy
  /// Outstanding frames (must be < 2048). 1 = stop-and-wait: each frame
  /// is ACKed or abandoned before the next one goes out.
  std::size_t window = 4;
  /// Floor for fallback; -1 = the lowest rate of the configured MCS's
  /// spatial-stream group (nss never changes — antenna counts are fixed).
  int min_mcs = -1;
  /// HARQ chase combining: retain failed data attempts' post-merge LLRs in
  /// the workspace HarqBuffer and sum them into each retransmission's
  /// decode (see core::HarqDecode). Off = every attempt decodes standalone.
  bool harq = false;
  /// Adaptation controller (see mac/link_adaptor.hpp). adapt.policy selects
  /// the failure-count baseline (default) or the evidence-driven
  /// controller. With the baseline, adapt.fallback_after = 0 and
  /// adapt.recover_after = 0 hold the configured MCS.
  LinkAdaptorConfig adapt{};
  /// Absolute index of the first queued frame (seq = abs & 0xFFF). Lets a
  /// test start a link just below the 12-bit wrap (e.g. 4090) so a short
  /// run crosses 4095 -> 0 without queueing 4096 frames.
  std::size_t first_frame_index = 0;
};

/// Aggregate selective-repeat statistics.
struct SrStats {
  std::size_t msdus = 0;
  std::size_t delivered = 0;
  std::size_t lost = 0;            ///< abandoned after max_retries
  std::size_t retransmissions = 0;
  std::size_t duplicates = 0;
  std::size_t mcs_fallbacks = 0;   ///< downward MCS steps taken
  std::size_t mcs_recoveries = 0;  ///< upward steps after the channel improved
  std::size_t interference_holds = 0;  ///< evidence policy: bursts ridden out
  std::size_t harq_combined_ok = 0;    ///< deliveries decoded with prior LLRs
  /// attempts_hist[k] = frames finished (ACKed or abandoned) after k
  /// transmissions; the last bucket aggregates >= 8.
  std::array<std::size_t, 9> attempts_hist{};
  double airtime_us = 0.0;
  double wait_us = 0.0;
  double delivered_bits = 0.0;

  [[nodiscard]] double goodput_mbps() const noexcept {
    return airtime_us > 0.0 ? delivered_bits / airtime_us : 0.0;
  }
  [[nodiscard]] double loss_rate() const noexcept {
    return msdus > 0 ? static_cast<double>(lost) / static_cast<double>(msdus)
                     : 0.0;
  }
};

/// Selective-repeat window ARQ with per-frame retransmission state,
/// exponential-backoff pacing, in-order de-duplicated delivery at the peer,
/// and automatic MCS fallback after consecutive delivery failures (stepping
/// back up when the channel improves). Queue MSDUs, then run() to drain.
class SelectiveRepeatLink {
 public:
  explicit SelectiveRepeatLink(SrConfig cfg);

  /// Enqueue one MSDU for delivery.
  void queue(std::span<const std::uint8_t> msdu);

  /// Drive the link until every queued frame is ACKed or abandoned.
  const SrStats& run();

  /// Payloads the peer released, in order, de-duplicated. In-order release
  /// skips abandoned frames (a higher layer's loss, reported in stats().lost).
  [[nodiscard]] const std::vector<std::vector<std::uint8_t>>& received() const noexcept {
    return peer_rx_log_;
  }

  [[nodiscard]] const SrStats& stats() const noexcept { return stats_; }
  [[nodiscard]] const SrConfig& config() const noexcept { return cfg_; }
  /// The data MCS currently in use (differs from the configured one while
  /// fallback is active).
  [[nodiscard]] unsigned current_mcs() const noexcept { return current_mcs_; }
  [[nodiscard]] double now_us() const noexcept { return clock_us_; }
  /// The adaptation controller (policy per cfg.adapt), for inspecting its
  /// evidence stats (interference_holds, ...).
  [[nodiscard]] const LinkAdaptor& adaptor() const noexcept { return *adaptor_; }

  /// The link's outcome in the uniform Monte-Carlo result shape, so benches
  /// and the stress campaign report MAC runs alongside PHY sweeps: PER over
  /// MSDUs (lost = error), goodput over airtime, the per-frame attempts
  /// histogram and combined-decode successes.
  [[nodiscard]] core::LinkResult link_result() const;

 private:
  struct Slot {
    std::vector<std::uint8_t> msdu;
    std::size_t abs = 0;       ///< absolute frame index (seq = abs & 0xFFF)
    unsigned attempts = 0;
    double next_tx_us = 0.0;
    bool acked = false;
    bool abandoned = false;
  };

  /// One PHY exchange in a direction; returns the decoded PSDU on success.
  /// Applies the fade schedule at the current clock (against `nominal_scale`,
  /// that direction's configured power scale) and advances the clock by the
  /// frame's airtime.
  [[nodiscard]] std::optional<wifi::ParsedPsdu> phy_exchange(
      const core::Transmitter& tx, channel::MimoChannel& chan,
      const core::Receiver& rx, const wifi::MacHeader& hdr,
      std::span<const std::uint8_t> payload, double nominal_scale,
      double& airtime_us, const core::HarqDecode& harq = {});
  void transmit_slot(Slot& slot);
  void peer_accept(const wifi::ParsedPsdu& frame);
  void release_in_order();
  /// Feed the data exchange's outcome (rx_ws_.packet) to the adaptor and
  /// apply its MCS / backoff decision.
  void adapt_on_data_outcome(bool delivered);
  void set_mcs(unsigned mcs);

  SrConfig cfg_;
  unsigned current_mcs_;
  unsigned min_mcs_;
  std::optional<core::Transmitter> data_tx_;  ///< rebuilt on MCS change
  core::Receiver data_rx_;                    ///< self-configures from HT-SIG
  core::Transmitter ack_tx_;
  core::Receiver ack_rx_;
  channel::MimoChannel forward_;
  channel::MimoChannel reverse_;
  core::RxWorkspace rx_ws_;  ///< warm workspace shared by both directions
  std::optional<LinkAdaptor> adaptor_;  ///< never empty after construction
  double clock_us_ = 0.0;
  double backoff_scale_ = 1.0;  ///< adaptor's stretch on retry waits

  std::vector<Slot> frames_;
  std::size_t base_ = 0;  ///< first not-yet-finished frame

  // Peer-side state.
  std::size_t peer_next_abs_ = 0;                      ///< next in-order release
  std::map<std::size_t, std::vector<std::uint8_t>> peer_reorder_;
  std::vector<std::size_t> abandoned_abs_;             ///< skipped by release
  std::vector<std::vector<std::uint8_t>> peer_rx_log_;

  SrStats stats_;
};

}  // namespace mimonet::mac
