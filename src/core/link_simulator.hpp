// Monte-Carlo link-level harness: Transmitter -> MimoChannel -> Receiver,
// with BER/PER/throughput accounting. Every experiment bench builds on this.
//
// The engine is a deterministic parallel Monte-Carlo simulator: packets are
// identified by their global index, every random draw for packet p derives
// from (LinkConfig::seed, p), and partial results are folded together in
// packet order on the calling thread — so LinkResult aggregates are
// bit-identical for any n_threads, including n_threads = 1.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "channel/mimo_channel.hpp"
#include "core/phy_config.hpp"
#include "dsp/stats.hpp"
#include "core/receiver.hpp"
#include "core/transmitter.hpp"
#include "metrics/counters.hpp"
#include "metrics/rx_error.hpp"

namespace mimonet::core {

/// One simulated link.
struct LinkConfig {
  PhyConfig phy{};
  channel::ChannelConfig channel{};
  std::size_t psdu_payload_bytes = 1000;  ///< payload inside the MAC frame
  std::uint64_t seed = 1;

  class Builder;
  /// Start a fluent builder: LinkConfig::make().mcs(8).snr_db(20).build().
  [[nodiscard]] static Builder make();
};

/// Fluent construction of a LinkConfig. mcs() picks the antenna setup the
/// MCS implies (nss x nss) the way make_link_config does; every other
/// setter overrides one knob. build() (or implicit conversion) assembles.
class LinkConfig::Builder {
 public:
  Builder& mcs(unsigned m) { mcs_ = m; return *this; }
  Builder& snr_db(double db) { snr_db_ = db; return *this; }
  Builder& seed(std::uint64_t s) { seed_ = s; return *this; }
  /// TX antennas / spatial streams; must match the MCS's stream count.
  /// Defaults to the MCS's nss.
  Builder& nss(std::size_t n) { nss_ = n; return *this; }
  /// RX antennas; defaults to the stream count (square array).
  Builder& nrx(std::size_t n) { nrx_ = n; return *this; }
  Builder& payload_bytes(std::size_t n) { payload_bytes_ = n; return *this; }
  Builder& fading(bool on = true,
                  channel::DelayProfile p = channel::DelayProfile::kFlat) {
    fading_ = on;
    profile_ = p;
    return *this;
  }
  Builder& equalizer(eq::EqualizerType t) { equalizer_ = t; return *this; }
  Builder& cfo_norm(double c) { cfo_norm_ = c; return *this; }
  Builder& doppler_norm(double d) { doppler_norm_ = d; return *this; }
  Builder& stbc(bool on = true) { stbc_ = on; return *this; }
  Builder& fec(bool on) { fec_enabled_ = on; return *this; }

  [[nodiscard]] LinkConfig build() const;
  operator LinkConfig() const { return build(); }  // NOLINT(google-explicit-constructor)

 private:
  unsigned mcs_ = 0;
  double snr_db_ = 30.0;
  std::uint64_t seed_ = 1;
  std::size_t nss_ = 0;  // 0 = from MCS
  std::size_t nrx_ = 0;  // 0 = nss
  std::size_t payload_bytes_ = 1000;
  bool fading_ = false;
  channel::DelayProfile profile_ = channel::DelayProfile::kFlat;
  std::optional<eq::EqualizerType> equalizer_;
  double cfo_norm_ = 0.0;
  double doppler_norm_ = 0.0;
  bool stbc_ = false;
  bool fec_enabled_ = true;
};

/// Aggregated results of a batch of packets. All fields are mergeable, so
/// partial results (from worker threads, sweep points, or separate runs)
/// combine losslessly.
struct LinkResult {
  metrics::BerCounter ber;        ///< over PSDU bits of packets that decoded
  metrics::PerCounter per;        ///< FCS failures + undetected packets
  metrics::ThroughputMeter throughput;
  /// Structured classification of every packet's receive outcome (kOk for
  /// clean decodes, kNoSync for undetected, kFcsFail/kTruncated/... for the
  /// failure stages) — the taxonomy behind the scalar counters above.
  metrics::RxErrorCounter rx_errors;
  std::size_t undetected = 0;     ///< sync never found the packet
  dsp::RunningStats snr_est_db;   ///< receiver's L-LTF SNR estimates
  dsp::RunningStats pilot_snr_db; ///< receiver's pilot-EVM SNR estimates
  dsp::RunningStats timing_err;   ///< packet_start error in samples
  dsp::RunningStats cfo_err;      ///< CFO estimate error, cycles/sample
  /// Post-equalization SINR per spatial stream (dB), fed from
  /// RxPacket::stream_sinr_db of every packet that reached the linear
  /// equalizer; unused streams stay at count() == 0.
  std::array<dsp::RunningStats, 4> stream_sinr_db{};
  /// ARQ/HARQ outcomes (filled by the MAC links via
  /// SelectiveRepeatLink::link_result(); zero for plain PHY Monte-Carlo
  /// runs). attempts_hist[k] counts frames finished after k transmissions
  /// (k = 0 unused, the last bucket aggregates >= 8).
  std::array<std::size_t, 9> attempts_hist{};
  std::size_t harq_combined_ok = 0;  ///< deliveries that used combined LLRs

  /// Fold another result in. Counter fields are exact sums; RunningStats
  /// fields use the parallel moment combination.
  void merge(const LinkResult& other);

  /// Column headers matching summary_row(), for bench tables.
  [[nodiscard]] static std::vector<std::string> summary_headers();
  /// One formatted table row: packets, PER, BER, goodput, mean SNR
  /// estimate, mean transmissions per finished frame, combined-decode
  /// successes. Never emits NaN/Inf, even for an empty result.
  [[nodiscard]] std::vector<std::string> summary_row() const;
};

/// Everything known about one simulated packet, delivered to observers.
struct PacketOutcome {
  std::size_t index = 0;       ///< global packet index within the run
  bool detected = false;       ///< false: sync never found the packet
  RxPacket rx;                 ///< valid only when detected
  std::vector<std::uint8_t> sent_psdu;  ///< what the transmitter sent
  double airtime_us = 0.0;
  std::size_t truth_packet_start = 0;   ///< channel ground truth
  double truth_cfo_norm = 0.0;
};

/// Per-packet callback, invoked on the thread that called run(), in
/// packet-index order, for every simulated packet (detected or not) —
/// regardless of how many worker threads simulate. An exception it throws
/// stops the run and propagates out of run().
using PacketObserver = std::function<void(const PacketOutcome&)>;

/// How to run a Monte-Carlo batch.
struct RunOptions {
  std::size_t n_packets = 0;   ///< packets to simulate (the cap when no
                               ///< early stop target is set)
  std::size_t n_threads = 1;   ///< worker threads; 0 = hardware concurrency
  /// Hard cap when early stopping is active (target_per_events > 0);
  /// 0 falls back to n_packets.
  std::size_t max_packets = 0;
  /// When > 0: stop as soon as this many PER error events (FCS failures or
  /// undetected packets) have been observed — the standard link-simulator
  /// confidence trick, so low-PER points don't burn packets and high-PER
  /// points don't starve. The stop decision is taken in packet order, so it
  /// is deterministic across thread counts.
  std::size_t target_per_events = 0;

  class Builder;
  /// Fluent builder, the session-config convention (DESIGN.md "API
  /// conventions"): RunOptions::make().n_packets(500).n_threads(0).build().
  [[nodiscard]] static Builder make();
};

class RunOptions::Builder {
 public:
  Builder& n_packets(std::size_t n) { opt_.n_packets = n; return *this; }
  Builder& n_threads(std::size_t n) { opt_.n_threads = n; return *this; }
  Builder& max_packets(std::size_t n) { opt_.max_packets = n; return *this; }
  Builder& target_per_events(std::size_t n) {
    opt_.target_per_events = n;
    return *this;
  }

  [[nodiscard]] RunOptions build() const { return opt_; }
  operator RunOptions() const { return opt_; }  // NOLINT(google-explicit-constructor)

 private:
  RunOptions opt_;
};

/// Ties the full chain together and runs seeded Monte-Carlo batches.
class LinkSimulator {
 public:
  explicit LinkSimulator(LinkConfig cfg);

  /// Run a batch under `opt`; every random draw for packet p depends only
  /// on (cfg.seed, p), so results are bit-identical for any thread count.
  [[nodiscard]] LinkResult run(const RunOptions& opt,
                               const PacketObserver& observer = {});

  /// Convenience: run exactly `n_packets` single-threaded.
  [[nodiscard]] LinkResult run(std::size_t n_packets) {
    return run(RunOptions{.n_packets = n_packets});
  }

  [[nodiscard]] const LinkConfig& config() const noexcept { return cfg_; }
  /// The configured chain, for driving single packets by hand. run() does
  /// not touch it: each of its workers builds its own.
  [[nodiscard]] const Transmitter& transmitter() const noexcept { return tx_; }
  [[nodiscard]] const Receiver& receiver() const noexcept { return rx_; }
  [[nodiscard]] channel::MimoChannel& channel() noexcept { return chan_; }

 private:
  LinkConfig cfg_;
  Transmitter tx_;
  channel::MimoChannel chan_;
  Receiver rx_;
};

/// Convenience: a LinkConfig with sane defaults for the given MCS/SNR and
/// antenna setup matching the MCS's stream count.
[[nodiscard]] LinkConfig make_link_config(unsigned mcs, double snr_db,
                                          std::size_t nrx = 0 /* = nss */);

}  // namespace mimonet::core
