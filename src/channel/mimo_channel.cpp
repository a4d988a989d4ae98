#include "channel/mimo_channel.hpp"

#include <cmath>
#include <stdexcept>

#include "dsp/vector_ops.hpp"

namespace mimonet::channel {

MimoChannel::MimoChannel(ChannelConfig cfg)
    : cfg_(cfg),
      fading_(cfg.ntx, cfg.nrx, cfg.profile, cfg.seed * 0x9E3779B97F4A7C15ULL + 1,
              cfg.rho_tx, cfg.rho_rx),
      noise_(cfg.seed * 0xC2B2AE3D27D4EB4FULL + 2, noise_variance()),
      doppler_innovation_(cfg.seed * 0x27D4EB2F165667C5ULL + 5, 1.0),
      pad_seed_(cfg.seed * 0x165667B19E3779F9ULL + 3) {
  if (!cfg.fading && cfg.ntx != cfg.nrx) {
    throw std::invalid_argument("MimoChannel: identity channel needs ntx == nrx");
  }
  if (cfg.doppler_norm < 0.0) {
    throw std::invalid_argument("MimoChannel: negative doppler");
  }
  if (!(cfg.power_scale >= 0.0) || !std::isfinite(cfg.power_scale)) {
    throw std::invalid_argument("MimoChannel: power_scale must be finite and >= 0");
  }
  if (!std::isfinite(cfg.clip_level) || cfg.clip_level < 0.0F) {
    throw std::invalid_argument("MimoChannel: clip_level must be finite and >= 0");
  }
  current_ = cfg.fading ? fading_.next() : identity_channel(cfg.ntx);
}

void MimoChannel::reseed(std::uint64_t seed) {
  // Mirror the constructor's sub-seed derivation exactly; each generator
  // restarts in place.
  fading_.reseed(seed * 0x9E3779B97F4A7C15ULL + 1);
  noise_.reseed(seed * 0xC2B2AE3D27D4EB4FULL + 2);
  doppler_innovation_.reseed(seed * 0x27D4EB2F165667C5ULL + 5);
  pad_seed_ = seed * 0x165667B19E3779F9ULL + 3;
  // transmit() draws a fresh realization when fading and not pinned, so
  // current_ only needs refreshing for the static (identity) case — where
  // it is constant anyway. Leave it be.
}

double MimoChannel::noise_variance() const noexcept {
  // TX streams are unit power scaled by 1/sqrt(ntx) each and channel gains
  // are unit power per rx-tx pair, so mean RX signal power per antenna is 1.
  return dsp::from_db(-cfg_.snr_db);
}

void MimoChannel::set_power_scale(double scale) {
  if (!(scale >= 0.0) || !std::isfinite(scale)) {
    throw std::invalid_argument("set_power_scale: scale must be finite and >= 0");
  }
  cfg_.power_scale = scale;
}

void MimoChannel::fix_realization(ChannelRealization realization) {
  if (realization.ntx != cfg_.ntx || realization.nrx != cfg_.nrx) {
    throw std::invalid_argument("fix_realization: antenna count mismatch");
  }
  check_taps(realization);
  current_ = std::move(realization);
  fixed_ = true;
}

void MimoChannel::check_taps(const ChannelRealization& r) const {
  // The convolution reads every pair's taps and the Doppler aging writes
  // the profile's count of them, so a shorter vector would be indexed out
  // of bounds.
  const std::size_t n =
      r.taps.empty() || r.taps[0].empty() ? 0 : r.taps[0][0].size();
  bool ok = n != 0 && r.taps.size() == r.nrx;
  for (const auto& row : r.taps) {
    ok = ok && row.size() == r.ntx;
    for (const auto& taps : row) ok = ok && taps.size() == n;
  }
  if (cfg_.fading && cfg_.doppler_norm > 0.0) ok = ok && n == fading_.powers().size();
  if (!ok) throw std::invalid_argument("MimoChannel: realization taps do not fit the channel");
}

std::vector<std::vector<cf32>> MimoChannel::transmit(
    const std::vector<std::vector<cf32>>& tx_streams) {
  const std::vector<std::span<const cf32>> spans(tx_streams.begin(), tx_streams.end());
  ChannelWorkspace ws;
  transmit_into(spans, ws);
  return std::move(ws.rx);
}

void MimoChannel::transmit_into(std::span<const std::span<const cf32>> tx_streams,
                                ChannelWorkspace& ws) {
  propagate_into(tx_streams, ws);
  finalize_into(ws);
}

std::vector<std::vector<cf32>> MimoChannel::propagate(
    const std::vector<std::vector<cf32>>& tx_streams) {
  const std::vector<std::span<const cf32>> spans(tx_streams.begin(), tx_streams.end());
  ChannelWorkspace ws;
  propagate_into(spans, ws);
  return std::move(ws.clean);
}

std::vector<std::vector<cf32>> MimoChannel::finalize(
    std::vector<std::vector<cf32>> clean) {
  ChannelWorkspace ws;
  ws.clean = std::move(clean);
  finalize_into(ws);
  return std::move(ws.rx);
}

void MimoChannel::propagate_into(std::span<const std::span<const cf32>> tx_streams,
                                 ChannelWorkspace& ws) {
  if (tx_streams.size() != cfg_.ntx) {
    throw std::invalid_argument("MimoChannel: wrong TX stream count");
  }
  const std::size_t len = tx_streams[0].size();
  for (const auto& s : tx_streams) {
    if (s.size() != len) throw std::invalid_argument("MimoChannel: ragged TX streams");
  }

  if (cfg_.fading && !fixed_) fading_.next_into(current_);

  const std::size_t n_taps = current_.taps[0][0].size();
  const std::size_t conv_len = len + n_taps - 1;
  ws.clean.resize(cfg_.nrx);
  for (auto& stream : ws.clean) stream.assign(conv_len, cf32{0.0F, 0.0F});

  if (cfg_.fading && cfg_.doppler_norm > 0.0) {
    propagate_doppler(tx_streams, ws);
  } else {
    // Sum of per-TX convolutions with the static realization, outputs
    // through the full convolution tail.
    for (std::size_t r = 0; r < cfg_.nrx; ++r) {
      for (std::size_t t = 0; t < cfg_.ntx; ++t) {
        dsp::tdl_convolve_add(tx_streams[t], current_.taps[r][t], 0, ws.clean[r]);
      }
    }
  }

  // One local oscillator per device: the same CFO on every RX antenna, one
  // phasor per sample for all of them.
  if (cfg_.cfo_norm != 0.0) {
    ws.views.assign(ws.clean.begin(), ws.clean.end());
    apply_cfo(ws.views, cfg_.cfo_norm);
  }
  for (auto& stream : ws.clean) {
    if (cfg_.sfo_ppm != 0.0) {
      apply_sfo_into(stream, cfg_.sfo_ppm, ws.resampled);
      std::swap(stream, ws.resampled);
    }
    if (cfg_.power_scale != 1.0) {
      dsp::scale(stream, static_cast<float>(cfg_.power_scale));
    }
  }

  truth_.realization = current_;
  truth_.cfo_norm = cfg_.cfo_norm;
  truth_.snr_db = cfg_.snr_db;
}

void MimoChannel::finalize_into(ChannelWorkspace& ws) {
  if (ws.clean.size() != cfg_.nrx) {
    throw std::invalid_argument("MimoChannel::finalize: wrong stream count");
  }
  const double nv = noise_variance();
  ws.rx.resize(cfg_.nrx);
  for (std::size_t r = 0; r < cfg_.nrx; ++r) {
    // Timing pad (noise-only air before/after the burst), then AWGN over
    // the whole capture.
    auto& capture = ws.rx[r];
    pad_with_noise_into(ws.clean[r], cfg_.timing_pad, cfg_.tail_pad, nv, pad_seed_ + r,
                        capture);
    noise_.add_to(
        std::span(capture).subspan(cfg_.timing_pad, capture.size() - cfg_.timing_pad -
                                                        cfg_.tail_pad));
    if (cfg_.clip_level > 0.0F) apply_clipping(capture, cfg_.clip_level);
    if (cfg_.adc_bits != 0) quantize(capture, cfg_.adc_bits, cfg_.adc_full_scale);
    if (cfg_.erasure_len != 0) {
      apply_burst_erasure(capture, cfg_.erasure_start, cfg_.erasure_len);
    }
    if (!cfg_.faults.empty()) {
      // Per-antenna seed: independent interferer noise per RX chain, but
      // the same deterministic plan (and identical clock-slip resizes).
      apply_fault_plan(capture, cfg_.faults,
                       pad_seed_ * 0x9E3779B97F4A7C15ULL + 11 + r);
    }
  }

  truth_.packet_start = cfg_.timing_pad;
  truth_.noise_variance = nv;
  truth_.faults = cfg_.faults;
}

const ChannelRealization& MimoChannel::draw_realization() {
  if (cfg_.fading && !fixed_) {
    fading_.next_into(current_);
    fixed_ = true;
  }
  return current_;
}

ChannelRealization MimoChannel::aged_realization(const ChannelRealization& r,
                                                 std::size_t blocks) {
  ChannelRealization aged = r;
  if (blocks == 0 || !cfg_.fading || cfg_.doppler_norm <= 0.0) return aged;
  check_taps(aged);
  // The same first-order Gauss-Markov step propagate_doppler applies within
  // a packet, advanced `blocks` times; draws come from the shared innovation
  // stream so sounding-to-data aging and in-packet aging form one process.
  const double rho = std::exp(-dsp::two_pi_d * cfg_.doppler_norm *
                              static_cast<double>(kDopplerBlock));
  const double innov = std::sqrt(std::max(0.0, 1.0 - rho * rho));
  const auto& powers = fading_.powers();
  const std::size_t n_taps = powers.size();
  for (std::size_t step = 0; step < blocks; ++step) {
    for (std::size_t rx = 0; rx < aged.nrx; ++rx) {
      for (std::size_t tx = 0; tx < aged.ntx; ++tx) {
        for (std::size_t k = 0; k < n_taps; ++k) {
          const cf32 w = doppler_innovation_.sample();
          const double sigma = std::sqrt(powers[k]);
          const dsp::cf64 next = rho * dsp::cf64(aged.taps[rx][tx][k]) +
                                 innov * sigma * dsp::cf64(w);
          aged.taps[rx][tx][k] = cf32(static_cast<float>(next.real()),
                                      static_cast<float>(next.imag()));
        }
      }
    }
  }
  return aged;
}

void MimoChannel::propagate_doppler(std::span<const std::span<const cf32>> tx_streams,
                                    ChannelWorkspace& ws) {
  // First-order Gauss-Markov tap evolution, advanced once per block:
  // h' = rho h + sqrt(1 - rho^2) * sqrt(p_tap) * w, preserving each tap's
  // stationary power. One block per OFDM symbol keeps the channel constant
  // within a symbol (no ICI) while aging across the packet.
  constexpr std::size_t kBlock = kDopplerBlock;
  const double rho = std::exp(-dsp::two_pi_d * cfg_.doppler_norm *
                              static_cast<double>(kBlock));
  const double innov = std::sqrt(std::max(0.0, 1.0 - rho * rho));
  const auto& powers = fading_.powers();
  const std::size_t n_taps = powers.size();
  const std::size_t len = tx_streams[0].size();

  auto& taps = ws.taps;  // working copy that ages block by block
  taps = current_.taps;

  for (std::size_t start = 0; start < len; start += kBlock) {
    const std::size_t n = std::min(kBlock, len - start);
    for (std::size_t r = 0; r < cfg_.nrx; ++r) {
      for (std::size_t t = 0; t < cfg_.ntx; ++t) {
        // Direct convolution of this block (history reaches into the
        // previous block's input, which is fine: x is fully available).
        dsp::tdl_convolve_add(tx_streams[t], taps[r][t], start,
                              std::span(ws.clean[r]).subspan(start, n));
      }
    }
    // Age the taps for the next block.
    for (std::size_t r = 0; r < cfg_.nrx; ++r) {
      for (std::size_t t = 0; t < cfg_.ntx; ++t) {
        for (std::size_t k = 0; k < n_taps; ++k) {
          const cf32 w = doppler_innovation_.sample();
          const double sigma = std::sqrt(powers[k]);
          const dsp::cf64 aged = rho * dsp::cf64(taps[r][t][k]) +
                                 innov * sigma * dsp::cf64(w);
          taps[r][t][k] = cf32(static_cast<float>(aged.real()),
                               static_cast<float>(aged.imag()));
        }
      }
    }
  }
  // Convolution tail of the final block (last n_taps - 1 samples).
  for (std::size_t r = 0; r < cfg_.nrx; ++r) {
    for (std::size_t t = 0; t < cfg_.ntx; ++t) {
      dsp::tdl_convolve_add(tx_streams[t], taps[r][t], len,
                            std::span(ws.clean[r]).subspan(len));
    }
  }
}

}  // namespace mimonet::channel
