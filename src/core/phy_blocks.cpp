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
    : Block("mimonet_rx"), srx_(cfg, nrx), nrx_(nrx), attempt_window_(attempt_window),
      scan_at_(attempt_window) {
  for (std::size_t r = 0; r < nrx; ++r) add_input<cf32>();
  window_.resize(nrx);
}

WorkStatus ReceiverBlock::work() {
  // Pull aligned chunks into the window.
  bool progress = false;
  while (true) {
    std::size_t n = 4096;
    for (std::size_t r = 0; r < nrx_; ++r) n = std::min(n, in<cf32>(r).readable());
    if (n == 0) break;
    for (std::size_t r = 0; r < nrx_; ++r) {
      auto& w = window_[r];
      w.resize(w.size() + n);
      in<cf32>(r).peek(std::span<cf32>(w).last(n));
      in<cf32>(r).consume(n);
    }
    stats_.samples_scanned += n;
    progress = true;
  }

  const bool done = all_inputs_done();
  const std::size_t end = window_[0].size();
  if (!done && end < scan_at_) {
    return progress ? WorkStatus::kProgress : WorkStatus::kIdle;
  }

  // Resume the scan from the cursor. Until the stream ends, the engine
  // stops on a truncated candidate instead of reporting it, and leaves the
  // cursor there.
  spans_.assign(window_.begin(), window_.end());
  const ScanWindow win{.more_follows = !done};
  const std::size_t budget = srx_.stream_config().candidate_budget;
  for (;;) {
    srx_.scan_window(spans_, ws_, stats_,
                     [this](const StreamEvent& ev) {
                       if (ev.packet != nullptr) packets_.push_back(*ev.packet);
                     },
                     win, cursor_);
    if (budget == 0 || cursor_.failed_candidates <= budget) break;
    // A watchdog stop, reported by the engine, which left the cursor past
    // the abandoned attempt. A capture may be abandoned, a stream may not:
    // start the count afresh and scan on.
    cursor_.failed_candidates = 0;
  }
  if (done) return WorkStatus::kDone;

  // Retained past an idle scan so an undetected partial preamble at the
  // window tail is found by the next one (> full HT preamble).
  constexpr std::size_t kOverlap = 700;
  if (ws_.packet.error == metrics::RxError::kNoSync && cursor_.pos + kOverlap < end) {
    // Nothing detectable before the tail: resume there, and never rewind
    // into the air already found idle.
    cursor_.pos = end - kOverlap;
    cursor_.rewind_barrier = std::max(cursor_.rewind_barrier, cursor_.pos);
  }
  // Scan again once the samples past the cursor have doubled: a frame
  // still streaming in is retried O(log extent) times, each attempt
  // costing only its preamble.
  const std::size_t ahead = end > cursor_.pos ? end - cursor_.pos : 0;
  scan_at_ = cursor_.pos + std::max(attempt_window_, 2 * ahead);

  // Drop what no later attempt or rewind can read.
  const std::size_t drop = std::min(cursor_.pos, cursor_.rewind_barrier);
  for (auto& w : window_) {
    w.erase(w.begin(), w.begin() + static_cast<std::ptrdiff_t>(drop));
  }
  cursor_.pos -= drop;
  cursor_.rewind_barrier -= drop;
  scan_at_ -= drop;
  return progress ? WorkStatus::kProgress : WorkStatus::kIdle;
}

}  // namespace mimonet::core
