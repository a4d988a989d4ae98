// The composed MIMO channel simulator: block fading + CFO + SFO + timing
// offset + AWGN + ADC quantization. This stands in for the multi-antenna
// USRP front-ends of the paper's testbed (see DESIGN.md, substitution table).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "channel/fading.hpp"
#include "channel/fault_plan.hpp"
#include "channel/impairments.hpp"
#include "dsp/rng.hpp"
#include "dsp/types.hpp"

namespace mimonet::channel {

/// Gauss-Markov tap-aging block length in samples: one OFDM symbol, so the
/// channel is constant within a symbol (no ICI) while aging across the
/// packet. Shared by in-packet Doppler evolution and CSI-staleness aging.
inline constexpr std::size_t kDopplerBlock = 80;

/// Everything the "air" does to the packet.
struct ChannelConfig {
  std::size_t ntx = 1;
  std::size_t nrx = 1;
  /// When false the channel matrix is identity (pure AWGN path; needs
  /// ntx == nrx). When true, Rayleigh block fading with `profile`.
  bool fading = false;
  DelayProfile profile = DelayProfile::kFlat;
  double rho_tx = 0.0;  ///< TX-side Kronecker correlation
  double rho_rx = 0.0;  ///< RX-side Kronecker correlation
  double snr_db = 30.0;
  /// Carrier frequency offset, cycles/sample (f_off / 20 MHz). 802.11 worst
  /// case +/-40 ppm at 2.4 GHz is about +/-5e-6 * ... ~= 4.8e-3 cycles/sample.
  double cfo_norm = 0.0;
  /// Normalized maximum Doppler frequency f_D / f_s. When > 0 (and fading
  /// is on) the taps evolve *within* the packet as a first-order
  /// Gauss-Markov process updated every OFDM-symbol-length block, so the
  /// channel the HT-LTFs measured ages by the last data symbol. At 20 Msps,
  /// vehicular 2.4 GHz Doppler (~200 Hz) is 1e-5; values up to ~1e-4 model
  /// very fast fading.
  double doppler_norm = 0.0;
  double sfo_ppm = 0.0;       ///< sampling clock offset
  std::size_t timing_pad = 0; ///< noise-only samples before the packet
  std::size_t tail_pad = 0;   ///< noise-only samples after the packet
  unsigned adc_bits = 0;      ///< 0 = ideal front end
  float adc_full_scale = 4.0F;
  // Degenerate-corner impairments, so the receiver's edge cases (zero-power
  // spans, saturated front ends, exactly-zero preamble regions) are
  // reachable from the link engine and not just from hand-built captures.
  /// Amplitude scale on the faded signal before noise: 1 = nominal, 0 = a
  /// zero-power packet (the capture is pure noise of the configured level).
  double power_scale = 1.0;
  /// Hard amplitude clip radius applied to the whole capture after AWGN
  /// (saturating PA/AGC). 0 = off.
  float clip_level = 0.0F;
  /// Burst erasure: zero `erasure_len` samples of every RX capture starting
  /// at `erasure_start` (capture-relative, i.e. including timing_pad).
  /// Models a blanked AGC window; len 0 = off.
  std::size_t erasure_start = 0;
  std::size_t erasure_len = 0;
  /// Timed mid-capture fault campaign (interferer bursts, gain steps, clock
  /// slips, phase jumps, erasures), applied after the one-shot knobs above.
  /// Event starts are capture-relative (include timing_pad). The applied
  /// plan is echoed into ChannelTruth as ground truth for campaign tests.
  FaultPlan faults{};
  std::uint64_t seed = 1;
};

/// Per-packet ground truth for estimator-accuracy experiments.
struct ChannelTruth {
  ChannelRealization realization;
  double cfo_norm = 0.0;
  std::size_t packet_start = 0;  ///< index of the first packet sample at RX
  double noise_variance = 0.0;
  double snr_db = 0.0;
  /// The fault campaign applied to the most recent transmit() (empty when
  /// none): ground-truth fault timestamps for resync-distance assertions.
  FaultPlan faults{};
};

/// Caller-owned buffers of MimoChannel::transmit_into. Every buffer is
/// resized, never shrunk, so a warm workspace transmits without allocating.
struct ChannelWorkspace {
  /// The captures, one per RX antenna, valid after transmit_into().
  std::vector<std::vector<cf32>> rx;
  /// Propagated streams before the front end (pads, noise, ADC, faults).
  std::vector<std::vector<cf32>> clean;
  /// The realization's taps as they age block by block under Doppler.
  std::vector<std::vector<std::vector<cf32>>> taps;
  /// SFO resampling output, swapped with the stream it resampled.
  std::vector<cf32> resampled;
  /// Views of `clean` for the one-oscillator CFO pass.
  std::vector<std::span<cf32>> views;
};

/// Simulates one direction of a MIMO link. Each call to transmit() draws a
/// fresh block-fading realization (unless a fixed one was pinned) and runs
/// the full impairment chain.
class MimoChannel {
 public:
  explicit MimoChannel(ChannelConfig cfg);

  /// Propagate per-TX-antenna streams; returns per-RX-antenna streams.
  /// All TX streams must be equal length. Output length is timing_pad +
  /// len + taps - 1 + tail_pad (slightly different under SFO).
  /// Equivalent to finalize(propagate(tx_streams)) — bit-identical, same
  /// random draw order.
  [[nodiscard]] std::vector<std::vector<cf32>> transmit(
      const std::vector<std::vector<cf32>>& tx_streams);

  /// transmit() over spans into a workspace: the same draws in the same
  /// order and the same bits, with the captures in ws.rx. The Monte-Carlo
  /// engine's form: once ws is warm, a packet allocates nothing.
  void transmit_into(std::span<const std::span<const cf32>> tx_streams,
                     ChannelWorkspace& ws);

  /// Propagation half of transmit(): draws this packet's fading realization
  /// (unless pinned), convolves, applies CFO/SFO/power scale. No timing
  /// pads, noise, clipping, quantization or faults — finalize() adds those.
  /// Split out so MultiUserChannel can superpose several users' propagated
  /// signals at one receiver before a single front-end finalize pass.
  [[nodiscard]] std::vector<std::vector<cf32>> propagate(
      const std::vector<std::vector<cf32>>& tx_streams);

  /// Front-end half of transmit(): pads each propagated stream with
  /// noise-only air, adds AWGN over the burst, then clipping / ADC
  /// quantization / erasure / the fault campaign. Consumes the propagated
  /// streams and completes this packet's truth() record.
  [[nodiscard]] std::vector<std::vector<cf32>> finalize(
      std::vector<std::vector<cf32>> clean);

  /// Draw (and pin) the fading realization the next propagate()/transmit()
  /// would use — the sounding hook: callers snapshot it, age it with
  /// aged_realization(), and pin the aged version before the data transmit.
  /// For a non-fading channel this returns the static identity realization.
  const ChannelRealization& draw_realization();

  /// Age `r` by `blocks` Gauss-Markov steps of kDopplerBlock samples each,
  /// consuming the same doppler innovation stream in-packet aging uses.
  /// Identity when doppler_norm == 0 or blocks == 0 (no draws consumed);
  /// otherwise `r` must carry the profile's tap count on every pair.
  [[nodiscard]] ChannelRealization aged_realization(const ChannelRealization& r,
                                                    std::size_t blocks);

  /// Restart every random source (fading, noise, Doppler innovation, pad
  /// noise) from `seed`, exactly as if the channel had been constructed with
  /// `cfg.seed = seed`. A pinned realization stays pinned. This is what
  /// makes per-packet deterministic Monte-Carlo possible: reseed before
  /// each packet and the draw depends only on the seed, not on history.
  void reseed(std::uint64_t seed);

  /// Pin a specific realization; subsequent transmits reuse it. Every
  /// pair must carry the same, non-zero number of taps, and a channel that
  /// ages its taps (fading with Doppler) needs the profile's count; throws
  /// std::invalid_argument otherwise.
  void fix_realization(ChannelRealization realization);
  /// Return to drawing a fresh realization per packet.
  void unfix_realization() noexcept { fixed_ = false; }

  /// Change the signal amplitude scale mid-link (an externally scheduled
  /// fade): subsequent transmits see the new scale; noise level and every
  /// random stream are untouched, so SNR drops by 20*log10(scale).
  void set_power_scale(double scale);

  /// Replace the fault campaign applied to subsequent transmits.
  void set_fault_plan(FaultPlan plan) { cfg_.faults = std::move(plan); }

  /// Ground truth of the most recent transmit().
  [[nodiscard]] const ChannelTruth& truth() const noexcept { return truth_; }

  [[nodiscard]] const ChannelConfig& config() const noexcept { return cfg_; }
  [[nodiscard]] double noise_variance() const noexcept;

 private:
  /// propagate() into ws.clean; finalize() from ws.clean into ws.rx. The
  /// vector forms run these over a local workspace.
  void propagate_into(std::span<const std::span<const cf32>> tx_streams,
                      ChannelWorkspace& ws);
  void finalize_into(ChannelWorkspace& ws);
  /// The tap-count contract of fix_realization(); throws on a breach.
  void check_taps(const ChannelRealization& r) const;
  /// Time-varying propagation into ws.clean (zeroed, conv_len long):
  /// block-wise convolution with taps that age between blocks.
  void propagate_doppler(std::span<const std::span<const cf32>> tx_streams,
                         ChannelWorkspace& ws);

  ChannelConfig cfg_;
  FadingGenerator fading_;
  dsp::ComplexGaussian noise_;
  dsp::ComplexGaussian doppler_innovation_;
  ChannelRealization current_;
  bool fixed_ = false;
  ChannelTruth truth_;
  std::uint64_t pad_seed_;
};

}  // namespace mimonet::channel
