#include "core/phy_blocks.hpp"

#include <algorithm>
#include <stdexcept>

#include "dsp/vector_ops.hpp"

namespace mimonet::core {

using flowgraph::WorkStatus;

// ---------------------------------------------------------------- TX block

TransmitterBlock::TransmitterBlock(PhyConfig cfg,
                                   std::vector<std::vector<std::uint8_t>> psdus,
                                   std::size_t idle_gap_samples)
    : Block("mimonet_tx"), tx_(cfg), psdus_(std::move(psdus)), idle_gap_(idle_gap_samples) {
  for (std::size_t s = 0; s < tx_.num_streams(); ++s) add_output<cf32>();
  // pending_ stays empty until the first work() call: prepare_next() tags
  // the output buffers, which are only bound when the graph connects us.
  pending_.resize(tx_.num_streams());
}

void TransmitterBlock::prepare_next() {
  if (next_psdu_ >= psdus_.size()) {
    exhausted_ = true;
    return;
  }
  pending_ = tx_.transmit(psdus_[next_psdu_]);
  for (auto& stream : pending_) {
    // Idle air between packets so the detector sees distinct bursts. Half
    // the gap leads, half trails, so the first packet is also padded.
    stream.insert(stream.begin(), idle_gap_ / 2, cf32{0.0F, 0.0F});
    stream.insert(stream.end(), idle_gap_ - idle_gap_ / 2, cf32{0.0F, 0.0F});
  }
  pending_pos_ = 0;
  ++next_psdu_;

  for (std::size_t s = 0; s < tx_.num_streams(); ++s) {
    flowgraph::Tag tag;
    tag.offset = out<cf32>(s).write_offset() + idle_gap_ / 2;
    tag.key = "packet_start";
    tag.value = static_cast<std::int64_t>(next_psdu_ - 1);
    out<cf32>(s).add_tag(tag);
  }
}

WorkStatus TransmitterBlock::work() {
  if (exhausted_) return WorkStatus::kDone;
  if (pending_[0].empty()) {
    prepare_next();
    if (exhausted_) return WorkStatus::kDone;
  }
  bool progress = false;
  while (!exhausted_) {
    // Keep all streams in lock step: write the same amount everywhere.
    std::size_t n = pending_[0].size() - pending_pos_;
    for (std::size_t s = 0; s < pending_.size(); ++s) {
      n = std::min(n, out<cf32>(s).writable());
    }
    if (n == 0) return progress ? WorkStatus::kProgress : WorkStatus::kIdle;
    for (std::size_t s = 0; s < pending_.size(); ++s) {
      const std::size_t w = out<cf32>(s).write(
          std::span<const cf32>(pending_[s]).subspan(pending_pos_, n));
      if (w != n) throw std::logic_error("TransmitterBlock: short write");
    }
    pending_pos_ += n;
    progress = true;
    if (pending_pos_ == pending_[0].size()) prepare_next();
  }
  return WorkStatus::kDone;
}

// ----------------------------------------------------------- channel block

MimoChannelBlock::MimoChannelBlock(channel::ChannelConfig cfg)
    : Block("mimo_channel"),
      cfg_(cfg),
      noise_(cfg.seed * 0xC2B2AE3D27D4EB4FULL + 11,
             dsp::from_db(-cfg.snr_db)) {
  for (std::size_t t = 0; t < cfg.ntx; ++t) add_input<cf32>();
  for (std::size_t r = 0; r < cfg.nrx; ++r) add_output<cf32>();

  if (cfg.fading) {
    channel::FadingGenerator gen(cfg.ntx, cfg.nrx, cfg.profile,
                                 cfg.seed * 0x9E3779B97F4A7C15ULL + 13, cfg.rho_tx,
                                 cfg.rho_rx);
    realization_ = gen.next();
  } else {
    if (cfg.ntx != cfg.nrx) {
      throw std::invalid_argument("MimoChannelBlock: identity channel needs ntx == nrx");
    }
    realization_ = channel::identity_channel(cfg.ntx);
  }
  firs_.resize(cfg.nrx);
  for (std::size_t r = 0; r < cfg.nrx; ++r) {
    for (std::size_t t = 0; t < cfg.ntx; ++t) {
      firs_[r].emplace_back(realization_.taps[r][t]);
    }
  }
}

WorkStatus MimoChannelBlock::work() {
  bool progress = false;
  while (true) {
    std::size_t n = 4096;
    for (std::size_t t = 0; t < cfg_.ntx; ++t) n = std::min(n, in<cf32>(t).readable());
    for (std::size_t r = 0; r < cfg_.nrx; ++r) n = std::min(n, out<cf32>(r).writable());
    if (n == 0) break;

    std::vector<std::vector<cf32>> tx_chunks(cfg_.ntx, std::vector<cf32>(n));
    for (std::size_t t = 0; t < cfg_.ntx; ++t) {
      in<cf32>(t).peek(tx_chunks[t]);
    }

    double next_phase = cfo_phase_;
    for (std::size_t r = 0; r < cfg_.nrx; ++r) {
      std::vector<cf32> acc(n, cf32{0.0F, 0.0F});
      for (std::size_t t = 0; t < cfg_.ntx; ++t) {
        const auto y = firs_[r][t].process(tx_chunks[t]);
        for (std::size_t i = 0; i < n; ++i) acc[i] += y[i];
      }
      // Every RX antenna shares the LO: same phase trajectory.
      next_phase = dsp::mix(acc, cfo_phase_, dsp::two_pi_d * cfg_.cfo_norm);
      noise_.add_to(acc);
      if (out<cf32>(r).write(acc) != n) {
        throw std::logic_error("MimoChannelBlock: short write");
      }
    }
    cfo_phase_ = next_phase;
    for (std::size_t t = 0; t < cfg_.ntx; ++t) in<cf32>(t).consume(n);
    progress = true;
  }
  if (all_inputs_done()) return WorkStatus::kDone;
  return progress ? WorkStatus::kProgress : WorkStatus::kIdle;
}

// ---------------------------------------------------------------- RX block

ReceiverBlock::ReceiverBlock(PhyConfig cfg, std::size_t nrx, std::size_t attempt_window)
    : Block("mimonet_rx"), srx_(cfg, nrx), nrx_(nrx), attempt_window_(attempt_window) {
  for (std::size_t r = 0; r < nrx; ++r) add_input<cf32>();
  window_.resize(nrx);
}

std::size_t ReceiverBlock::process_window(bool flush) {
  const std::size_t len = window_[0].size();
  // Retained past every consume so an undetected partial preamble at the
  // window tail survives into the next scan (> full HT preamble).
  constexpr std::size_t kOverlap = 700;

  scan_events_.clear();
  spans_.assign(window_.begin(), window_.end());
  StreamStats scratch;  // rebuilt from committed events instead (below)
  srx_.scan(spans_, ws_, scratch, [this](const StreamEvent& ev) {
    StreamRecord rec;
    rec.offset = ev.offset;
    rec.error = ev.error;
    if (ev.packet != nullptr) {
      rec.has_packet = true;
      rec.packet = *ev.packet;
    }
    scan_events_.push_back(std::move(rec));
  });

  // Pick the consume point. A truncated candidate may be a frame still
  // streaming in: hold the window at the first one and wait. (The scan goes
  // on past a truncated frame whose extent nothing but HT-SIG announces, so
  // that one need not be the last event.) Otherwise drop everything but the
  // overlap tail, extended past every corroborated frame extent.
  const auto truncated = std::find_if(
      scan_events_.begin(), scan_events_.end(), [](const StreamRecord& rec) {
        return rec.error == metrics::RxError::kTruncated;
      });
  std::size_t consume;
  if (flush) {
    consume = len;
  } else if (truncated != scan_events_.end()) {
    consume = truncated->offset;
  } else {
    consume = len > kOverlap ? len - kOverlap : 0;
    for (const auto& rec : scan_events_) {
      if (!rec.has_packet) continue;
      if (const auto ext = corroborated_frame_samples(rec.packet, srx_.config())) {
        consume = std::max(consume, std::min(len, rec.offset + *ext));
      }
    }
  }

  // Commit events the consume point covers; deferred ones keep their
  // samples in the window and are re-scanned (and committed exactly once)
  // later. On flush everything commits.
  for (auto& rec : scan_events_) {
    if (!flush && rec.offset >= consume) continue;
    stats_.errors.add(rec.error);
    if (rec.error == metrics::RxError::kBudgetExceeded) {
      ++stats_.budget_exhaustions;
      continue;
    }
    if (rec.has_packet && rec.packet.htsig_ok) {
      ++stats_.frames;
      if (rec.packet.fcs_ok) ++stats_.delivered;
    } else {
      ++stats_.resync_events;
    }
    if (rec.has_packet) packets_.push_back(std::move(rec.packet));
  }
  stats_.samples_scanned += consume;
  return consume;
}

WorkStatus ReceiverBlock::work() {
  // Pull aligned chunks into the window.
  bool progress = false;
  while (true) {
    std::size_t n = 4096;
    for (std::size_t r = 0; r < nrx_; ++r) n = std::min(n, in<cf32>(r).readable());
    if (n == 0) break;
    for (std::size_t r = 0; r < nrx_; ++r) {
      std::vector<cf32> chunk(n);
      in<cf32>(r).peek(chunk);
      in<cf32>(r).consume(n);
      window_[r].insert(window_[r].end(), chunk.begin(), chunk.end());
    }
    progress = true;
  }

  const bool inputs_done = all_inputs_done();
  while (window_[0].size() >= attempt_window_ ||
         (inputs_done && !window_[0].empty())) {
    const std::size_t drop = process_window(inputs_done);
    if (drop == 0) break;
    for (auto& w : window_) {
      w.erase(w.begin(), w.begin() + static_cast<std::ptrdiff_t>(
                             std::min(drop, w.size())));
    }
    progress = true;
    if (window_[0].empty()) break;
  }

  if (inputs_done && window_[0].empty()) return WorkStatus::kDone;
  return progress ? WorkStatus::kProgress : WorkStatus::kIdle;
}

}  // namespace mimonet::core
