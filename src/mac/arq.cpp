#include "mac/arq.hpp"

#include <algorithm>
#include <cmath>
#include <span>
#include <stdexcept>

#include "channel/fault_plan.hpp"
#include "dsp/rng.hpp"

namespace mimonet::mac {

namespace {

SrConfig normalize(SrConfig cfg) {
  // ACKs default to the most robust rate on a single stream.
  if (cfg.arq.ack_phy.mcs == cfg.arq.data_phy.mcs) cfg.arq.ack_phy.mcs = 0;
  cfg.arq.ack_phy.fec_enabled = true;
  return cfg;
}

/// Uniform double in [0, 1) from a mixed 64-bit key.
double unit_uniform(std::uint64_t key) noexcept {
  return static_cast<double>(dsp::splitmix64(key) >> 11U) * 0x1.0p-53;
}

/// Add every scheduled burst overlapping the frame's airtime [t0, t1) to
/// the capture, mapping burst time onto the capture proportionally (the
/// capture — pad included — spans the frame's airtime). Deterministic: the
/// noise draw is keyed on the link seed, the frame's start clock and the
/// antenna, so a retransmission at a different clock sees fresh noise while
/// a replay of the same schedule reproduces bit-identically.
void apply_interference(std::span<const InterferenceSegment> bursts,
                        double t0_us, double t1_us, std::uint64_t seed,
                        std::vector<std::vector<dsp::cf32>>& capture) {
  if (bursts.empty() || capture.empty() || t1_us <= t0_us) return;
  const std::size_t len = capture.front().size();
  const double dur = t1_us - t0_us;
  for (const auto& b : bursts) {
    const double lo = std::max(b.start_us, t0_us);
    const double hi = std::min(b.end_us, t1_us);
    if (hi <= lo || b.variance <= 0.0) continue;
    const auto s0 = static_cast<std::size_t>((lo - t0_us) / dur *
                                             static_cast<double>(len));
    const auto s1 = static_cast<std::size_t>((hi - t0_us) / dur *
                                             static_cast<double>(len));
    if (s1 <= s0 || s0 >= len) continue;
    channel::FaultPlan plan;
    plan.noise_burst(s0, std::min(s1, len) - s0, b.variance);
    const auto t_key = static_cast<std::uint64_t>(t0_us * 16.0);
    for (std::size_t a = 0; a < capture.size(); ++a) {
      channel::apply_fault_plan(
          capture[a], plan,
          dsp::splitmix64(seed ^ (t_key * 0x9E3779B97F4A7C15ULL) ^ a));
    }
  }
}

}  // namespace

double backoff_delay_us(const BackoffConfig& cfg, unsigned retry,
                        std::uint64_t key) noexcept {
  double base = cfg.initial_timeout_us;
  for (unsigned i = 0; i < retry && base < cfg.max_backoff_us; ++i) {
    base *= cfg.multiplier;
  }
  base = std::min(base, cfg.max_backoff_us);
  if (cfg.jitter_frac > 0.0) {
    base *= 1.0 + cfg.jitter_frac * (2.0 * unit_uniform(key) - 1.0);
  }
  return base;
}

double fade_scale_at(std::span<const FadeSegment> fades, double t_us,
                     double nominal) noexcept {
  double scale = nominal;
  for (const auto& f : fades) {
    if (t_us >= f.start_us && t_us < f.end_us) scale = f.power_scale;
  }
  return scale;
}

SelectiveRepeatLink::SelectiveRepeatLink(SrConfig cfg)
    : cfg_(normalize(std::move(cfg))),
      current_mcs_(cfg_.arq.data_phy.mcs),
      min_mcs_(0),
      data_rx_(cfg_.arq.data_phy, cfg_.arq.forward.nrx),
      ack_tx_(cfg_.arq.ack_phy),
      ack_rx_(cfg_.arq.ack_phy, cfg_.arq.reverse.nrx),
      forward_(cfg_.arq.forward),
      reverse_(cfg_.arq.reverse) {
  if (cfg_.window == 0 || cfg_.window >= 2048) {
    throw std::invalid_argument("SelectiveRepeatLink: window must be 1..2047");
  }
  const unsigned group_floor = (current_mcs_ / 8U) * 8U;
  if (cfg_.min_mcs < 0) {
    min_mcs_ = group_floor;
  } else {
    min_mcs_ = static_cast<unsigned>(cfg_.min_mcs);
    if (min_mcs_ > current_mcs_ || min_mcs_ / 8U != current_mcs_ / 8U) {
      throw std::invalid_argument(
          "SelectiveRepeatLink: min_mcs must be in the configured MCS's "
          "spatial-stream group and <= it");
    }
  }
  data_tx_.emplace(cfg_.arq.data_phy);
  if (cfg_.arq.forward.ntx != data_tx_->num_streams()) {
    throw std::invalid_argument(
        "SelectiveRepeatLink: forward ntx != data TX chains");
  }
  if (cfg_.arq.reverse.ntx != ack_tx_.num_streams()) {
    throw std::invalid_argument(
        "SelectiveRepeatLink: reverse ntx != ACK TX chains");
  }
  adaptor_.emplace(cfg_.adapt, current_mcs_, min_mcs_, cfg_.arq.data_phy.mcs);
  peer_next_abs_ = cfg_.first_frame_index;
}

std::optional<wifi::ParsedPsdu> SelectiveRepeatLink::phy_exchange(
    const core::Transmitter& tx, channel::MimoChannel& chan,
    const core::Receiver& rx, const wifi::MacHeader& hdr,
    std::span<const std::uint8_t> payload, double nominal_scale,
    double& airtime_us, const core::HarqDecode& harq) {
  chan.set_power_scale(fade_scale_at(cfg_.arq.fades, clock_us_, nominal_scale));
  const auto psdu = wifi::build_psdu(hdr, payload);
  const auto streams = tx.transmit(psdu);
  const double t = tx.layout(psdu.size()).airtime_us();
  const double t0 = clock_us_;
  airtime_us += t;
  clock_us_ += t;
  auto capture = chan.transmit(streams);
  apply_interference(cfg_.arq.interference, t0, t0 + t, cfg_.arq.seed, capture);
  rx_ws_.capture_spans.assign(capture.begin(), capture.end());
  const bool got = rx.receive(
      std::span<const std::span<const dsp::cf32>>(rx_ws_.capture_spans),
      rx_ws_, harq);
  if (!got || !rx_ws_.packet.fcs_ok) {
    return std::nullopt;
  }
  return wifi::parse_psdu(rx_ws_.packet.psdu);
}

void SelectiveRepeatLink::queue(std::span<const std::uint8_t> msdu) {
  Slot slot;
  slot.msdu.assign(msdu.begin(), msdu.end());
  slot.abs = cfg_.first_frame_index + frames_.size();
  frames_.push_back(std::move(slot));
  ++stats_.msdus;
}

const SrStats& SelectiveRepeatLink::run() {
  while (base_ < frames_.size()) {
    // Slide the window base past finished frames.
    while (base_ < frames_.size() &&
           (frames_[base_].acked || frames_[base_].abandoned)) {
      ++base_;
    }
    if (base_ >= frames_.size()) break;

    // Earliest-due outstanding slot in the window (the base slot is always
    // outstanding here, so one exists).
    const std::size_t hi = std::min(base_ + cfg_.window, frames_.size());
    Slot* due = nullptr;
    for (std::size_t i = base_; i < hi; ++i) {
      Slot& s = frames_[i];
      if (s.acked || s.abandoned) continue;
      if (due == nullptr || s.next_tx_us < due->next_tx_us) due = &s;
    }
    if (due->next_tx_us > clock_us_) {
      stats_.wait_us += due->next_tx_us - clock_us_;
      clock_us_ = due->next_tx_us;
    }
    transmit_slot(*due);
  }
  return stats_;
}

void SelectiveRepeatLink::transmit_slot(Slot& slot) {
  if (slot.attempts > 0) ++stats_.retransmissions;

  wifi::MacHeader hdr;
  hdr.frame_control = 0x0008;  // data
  const auto seq12 = static_cast<std::uint16_t>(slot.abs & 0x0FFFU);
  hdr.sequence_control = static_cast<std::uint16_t>(seq12 << 4U);

  // HARQ decode mode: offer any retained prior soft state for this frame
  // and capture this attempt's combined stream for retention.
  core::HarqDecode harq;
  if (cfg_.harq) {
    if (const auto* prior = rx_ws_.harq.find(seq12)) {
      harq.prior = std::span<const float>(*prior);
    }
    harq.combined = &rx_ws_.harq_combined;
  }

  double airtime = 0.0;
  const auto delivered =
      phy_exchange(*data_tx_, forward_, data_rx_, hdr, slot.msdu,
                   cfg_.arq.forward.power_scale, airtime, harq);
  adapt_on_data_outcome(delivered.has_value());
  bool acked = false;
  if (delivered) {
    if (cfg_.harq) {
      if (!harq.prior.empty()) ++stats_.harq_combined_ok;
      rx_ws_.harq.release(seq12);
    }
    peer_accept(*delivered);
    wifi::MacHeader ack_hdr;
    ack_hdr.frame_control = kAckFrameControl;
    ack_hdr.sequence_control = hdr.sequence_control;
    const auto ack = phy_exchange(ack_tx_, reverse_, ack_rx_, ack_hdr, {},
                                  cfg_.arq.reverse.power_scale, airtime);
    acked = ack && ack->header.frame_control == kAckFrameControl &&
            ack->header.sequence_control == hdr.sequence_control;
  } else if (cfg_.harq && !rx_ws_.harq_combined.empty()) {
    // The attempt failed but produced soft state (reached the payload):
    // retain the combined LLRs so the next attempt decodes against them.
    rx_ws_.harq.store(seq12, rx_ws_.harq_combined);
  }
  stats_.airtime_us += airtime;
  ++slot.attempts;

  if (acked) {
    slot.acked = true;
    ++stats_.delivered;
    stats_.delivered_bits += static_cast<double>(slot.msdu.size()) * 8.0;
    ++stats_.attempts_hist[std::min<std::size_t>(slot.attempts, 8)];
  } else if (slot.attempts > cfg_.arq.max_retries) {
    slot.abandoned = true;
    ++stats_.lost;
    ++stats_.attempts_hist[std::min<std::size_t>(slot.attempts, 8)];
    if (cfg_.harq) rx_ws_.harq.release(seq12);
    // The peer will never see this frame: let in-order release skip it, as
    // a higher layer's reassembly timeout would.
    abandoned_abs_.push_back(slot.abs);
    release_in_order();
  } else {
    const std::uint64_t key =
        dsp::splitmix64(cfg_.arq.seed ^ (slot.abs * 0x9E3779B97F4A7C15ULL) ^
                        slot.attempts);
    const double d =
        cfg_.arq.backoff.enabled
            ? backoff_delay_us(cfg_.arq.backoff, slot.attempts - 1, key)
            : cfg_.arq.backoff.initial_timeout_us;
    // backoff_scale_ > 1 while the adaptor holds interference evidence:
    // stretch the retry past the burst instead of dropping the rate.
    slot.next_tx_us = clock_us_ + d * backoff_scale_;
  }
}

void SelectiveRepeatLink::peer_accept(const wifi::ParsedPsdu& frame) {
  const auto seq12 =
      static_cast<std::uint16_t>(frame.header.sequence_control >> 4U);
  const auto exp12 = static_cast<std::uint16_t>(peer_next_abs_ & 0x0FFFU);
  // Frames arrive at most a window behind (duplicates) or ahead
  // (out-of-order) of the expected index; seq12_delta sign-extends the
  // 12-bit ring distance, exact across the 4095 -> 0 wrap.
  const int delta = seq12_delta(seq12, exp12);
  const auto abs_idx =
      static_cast<long long>(peer_next_abs_) + static_cast<long long>(delta);
  if (abs_idx < static_cast<long long>(peer_next_abs_)) {
    // Already released (or skipped): a retransmission whose ACK was lost.
    ++stats_.duplicates;
    return;
  }
  const auto [it, inserted] =
      peer_reorder_.emplace(static_cast<std::size_t>(abs_idx), frame.payload);
  if (!inserted) {
    ++stats_.duplicates;
    return;
  }
  release_in_order();
}

void SelectiveRepeatLink::release_in_order() {
  while (true) {
    if (std::find(abandoned_abs_.begin(), abandoned_abs_.end(),
                  peer_next_abs_) != abandoned_abs_.end()) {
      ++peer_next_abs_;
      continue;
    }
    const auto it = peer_reorder_.find(peer_next_abs_);
    if (it == peer_reorder_.end()) break;
    peer_rx_log_.push_back(std::move(it->second));
    peer_reorder_.erase(it);
    ++peer_next_abs_;
  }
}

void SelectiveRepeatLink::adapt_on_data_outcome(bool delivered) {
  const core::RxPacket& pkt = rx_ws_.packet;
  LinkObservation obs;
  obs.delivered = delivered;
  obs.error = pkt.error;
  if (pkt.htsig_ok) {
    // Both estimates ran; take the best as the channel-quality evidence (a
    // mid-frame burst depresses the pilot EVM but not the L-LTF estimate).
    obs.snr_db = std::max(pkt.snr.snr_db, pkt.pilot_snr.snr_db);
    obs.have_snr = true;
  }
  if (pkt.n_stream_sinr > 0) {
    obs.min_stream_sinr_db = pkt.stream_sinr_db[0];
    for (std::size_t s = 1; s < pkt.n_stream_sinr; ++s) {
      obs.min_stream_sinr_db = std::min(obs.min_stream_sinr_db,
                                        pkt.stream_sinr_db[s]);
    }
    obs.have_stream_sinr = true;
  }
  const LinkDecision decision = adaptor_->observe(obs);
  backoff_scale_ = decision.backoff_scale;
  if (decision.mcs_step != 0) {
    set_mcs(adaptor_->current_mcs());
    if (decision.mcs_step < 0) {
      ++stats_.mcs_fallbacks;
    } else {
      ++stats_.mcs_recoveries;
    }
  }
  stats_.interference_holds = adaptor_->interference_holds();
}

void SelectiveRepeatLink::set_mcs(unsigned mcs) {
  // Same spatial-stream group, so the TX chain count is invariant and the
  // receiver (which reads MCS from HT-SIG in-band) needs no rebuild.
  current_mcs_ = mcs;
  core::PhyConfig phy = cfg_.arq.data_phy;
  phy.mcs = mcs;
  data_tx_.emplace(phy);
  // An MCS change alters the coded-stream geometry: every retained LLR
  // stream is now incompatible with the frames the new rate will send.
  rx_ws_.harq.clear();
}

core::LinkResult SelectiveRepeatLink::link_result() const {
  core::LinkResult r;
  for (std::size_t i = 0; i < stats_.delivered; ++i) r.per.add(/*packet_ok=*/true);
  for (std::size_t i = 0; i < stats_.lost; ++i) r.per.add(/*packet_ok=*/false);
  // One aggregate throughput sample: all delivered payload bits over the
  // link's total airtime (retries included), i.e. the MAC goodput.
  r.throughput.add_packet(
      static_cast<std::size_t>(stats_.delivered_bits / 8.0),
      stats_.airtime_us);
  r.attempts_hist = stats_.attempts_hist;
  r.harq_combined_ok = stats_.harq_combined_ok;
  return r;
}

}  // namespace mimonet::mac
