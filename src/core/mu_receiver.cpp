#include "core/mu_receiver.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <stdexcept>

#include "chanest/ls_estimator.hpp"
#include "chanest/phase_tracker.hpp"
#include "chanest/snr_estimator.hpp"
#include "channel/impairments.hpp"
#include "dsp/fft.hpp"
#include "eq/equalizer.hpp"
#include "fec/scrambler.hpp"
#include "mod/constellation.hpp"
#include "ofdm/pilots.hpp"
#include "wifi/bits.hpp"
#include "wifi/interleaver.hpp"
#include "wifi/preamble.hpp"
#include "wifi/psdu.hpp"

namespace mimonet::core {

namespace {

void reset_mu_packet(MuRxPacket& pkt, std::size_t n_users) {
  pkt.detected = false;
  pkt.sync = {};
  pkt.snr.snr_db = 0.0;
  pkt.snr.signal_power = 0.0;
  pkt.snr.noise_variance = 0.0;
  pkt.snr.per_bin_db.clear();
  pkt.snr.per_bin_valid.clear();
  pkt.users.resize(n_users);
  for (auto& u : pkt.users) {
    u.fcs_ok = false;
    u.psdu.clear();
    u.sinr_db = 0.0;
  }
}

}  // namespace

MuUplinkReceiver::MuUplinkReceiver(PhyConfig cfg, std::size_t n_users,
                                   std::size_t nrx)
    : cfg_(cfg),
      n_users_(n_users),
      nrx_(nrx),
      mcs_(cfg.mcs_info()),
      synchronizer_(sync::FrameSyncConfig{.mode = cfg.timing_mode}),
      ht_demod_(ofdm::CarrierPlan::kHt) {
  if (n_users == 0 || n_users > 4) {
    throw std::invalid_argument("MuUplinkReceiver: n_users must be 1..4");
  }
  if (nrx < n_users || nrx > 4) {
    throw std::invalid_argument(
        "MuUplinkReceiver: need n_users <= nrx <= 4 (joint detection)");
  }
  if (mcs_.nss != 1 || cfg.stbc) {
    throw std::invalid_argument(
        "MuUplinkReceiver: users transmit a 1-stream MCS without STBC");
  }
  if (cfg.fec_enabled && cfg.fec_type == FecType::kLdpc) {
    throw std::invalid_argument("MuUplinkReceiver: BCC uplink only");
  }
}

bool MuUplinkReceiver::receive(std::span<const std::span<const cf32>> capture,
                               std::size_t psdu_bytes, MuRxWorkspace& mws) const {
  if (capture.size() != nrx_) {
    throw std::invalid_argument("MuUplinkReceiver: capture antenna count mismatch");
  }
  RxWorkspace& ws = mws.rx;
  MuRxPacket& pkt = mws.packet;
  reset_mu_packet(pkt, n_users_);

  // ---- Sync on the superposed legacy preamble: each user's L-STF/L-LTF is
  // the standard chain-u-of-U field, so the superposition keeps the
  // periodicity the detector and the LTF cross-correlator key on. ----
  const auto sync_res = synchronizer_.synchronize(capture, ws.sync);
  if (!sync_res) return false;
  pkt.sync = *sync_res;

  // Trigger-announced frame geometry: U space-time streams, every user's
  // data field the same symbol count as a 1x1 PPDU of this PSDU size.
  FrameLayout fl;
  fl.nss = n_users_;
  fl.n_data_symbols = data_symbol_count(mcs_, psdu_bytes, cfg_.fec_enabled,
                                        /*stbc=*/false, cfg_.fec_type);

  const std::size_t start = sync_res->packet_start;
  const std::size_t avail = capture[0].size() - start;
  if (avail < fl.total_samples()) return false;  // truncated capture

  // CFO-corrected, packet-aligned copy of exactly the announced frame (one
  // shared oscillator assumption: the triggered uplink uses the BS
  // reference, so one correction serves every user's stream).
  ws.rx.resize(nrx_);
  std::array<std::span<cf32>, 4> derot{};  // nrx <= 4
  for (std::size_t a = 0; a < nrx_; ++a) {
    const auto frame = capture[a].subspan(start, fl.total_samples());
    ws.rx[a].assign(frame.begin(), frame.end());
    derot[a] = ws.rx[a];
  }
  channel::apply_cfo(std::span<const std::span<cf32>>(derot.data(), nrx_),
                           -sync_res->cfo_norm);

  const dsp::FftPlan& fft64 = ws.fft_cache.plan(ofdm::kFftSize);

  // ---- L-LTF noise estimate: the two repetitions of the superposition
  // differ only by noise, exactly as in the single-user case. ----
  const std::size_t lltf_payload = fl.lltf_offset() + 32;
  ws.spans.clear();
  for (const auto& a : ws.rx) {
    ws.spans.emplace_back(std::span<const cf32>(a).subspan(lltf_payload, 128));
  }
  chanest::snr_from_lltf_into(ws.spans, pkt.snr);
  const auto nv_bin =
      static_cast<float>(64.0 * std::max(pkt.snr.noise_variance, 1e-12));

  // ---- Joint HT-LTF channel estimation: the stacked nrx x U problem. ----
  const std::size_t n_ltf = fl.n_ht_ltfs();
  ws.ltf_grids.resize(nrx_, n_ltf, ofdm::kFftSize);
  for (std::size_t a = 0; a < nrx_; ++a) {
    for (std::size_t n = 0; n < n_ltf; ++n) {
      fft64.forward(std::span<const cf32>(ws.rx[a]).subspan(
                        fl.htltf_offset() + n * wifi::kHtLtfLen + ofdm::kCpLen, 64),
                    ws.ltf_grids.row(a, n));
    }
  }
  const chanest::LsChannelEstimator ls(nrx_, n_users_);
  chanest::MimoChannelEstimate& est = ws.packet.channel;
  ls.estimate_into(ws.ltf_grids, est);

  // ---- Per-bin equalizer (the "tall MIMO" inversion). ML joint detection
  // over U users is out of scope; the ML configuration falls back to MMSE
  // like the single-link receiver does above 2 streams. ----
  eq::LinearEqualizer lin_eq(cfg_.equalizer == eq::EqualizerType::kMaxLikelihood
                                 ? eq::EqualizerType::kMmse
                                 : cfg_.equalizer);
  const auto& data_bins = ht_demod_.map().data_bins();
  const auto& pilot_bins = ht_demod_.map().pilot_bins();
  ws.h_at.resize(ofdm::kFftSize);
  ws.coeffs.resize(ofdm::kFftSize);
  for (const std::size_t b : data_bins) {
    est.at_bin_into(b, ws.h_at[b]);
    lin_eq.prepare(ws.h_at[b], nv_bin, ws.coeffs[b]);
  }
  for (std::size_t u = 0; u < n_users_; ++u) {
    double acc = 0.0;
    std::size_t cnt = 0;
    for (const std::size_t b : data_bins) {
      const float nv = ws.coeffs[b].noise_vars[u];
      if (nv > 0.0F && nv < eq::kErasedNoiseVar) {
        acc += 1.0 / static_cast<double>(nv);
        ++cnt;
      }
    }
    pkt.users[u].sinr_db =
        cnt > 0 ? 10.0 * std::log10(acc / static_cast<double>(cnt)) : 0.0;
  }

  // ---- Data symbols: per-symbol FFT, pilot CPE tracking over the joint
  // pilot pattern (stream u flies ht_data_pilots(U, u, n), which is what
  // the tracker models for an est with nss == U), then per-bin equalize and
  // per-stream demap. ----
  const mod::Constellation& constellation = mod::constellation_for(mcs_.modulation);
  const unsigned bps = constellation.bits_per_symbol();
  chanest::PilotPhaseTracker tracker(est);

  ws.stream_llrs.resize(n_users_);
  for (auto& v : ws.stream_llrs) {
    v.clear();
    v.reserve(fl.n_data_symbols * wifi::kHtDataCarriers * bps);
  }
  ws.data_grid.resize(nrx_, ofdm::kFftSize);
  ws.y.resize(nrx_);
  ws.llr_buf.resize(bps);
  ws.rx_pilots.resize(nrx_);

  std::array<cf32, eq::CMatrix::kMaxDim> eq_syms{};
  std::array<float, eq::CMatrix::kMaxDim> eq_nvars{};
  for (std::size_t n = 0; n < fl.n_data_symbols; ++n) {
    const std::size_t off = fl.data_offset() + n * ofdm::kSymLen;
    for (std::size_t a = 0; a < nrx_; ++a) {
      fft64.forward(
          std::span<const cf32>(ws.rx[a]).subspan(off + ofdm::kCpLen, 64),
          ws.data_grid.row(a));
    }
    cf32 derotate{1.0F, 0.0F};
    if (cfg_.phase_tracking) {
      for (std::size_t a = 0; a < nrx_; ++a) {
        for (std::size_t p = 0; p < 4; ++p) {
          ws.rx_pilots[a][p] = ws.data_grid(a, pilot_bins[p]);
        }
      }
      const double raw = tracker.estimate_cpe(ws.rx_pilots, n);
      const double theta = tracker.track(raw);
      derotate = dsp::phasor(static_cast<float>(-theta));
    }

    for (const std::size_t bin : data_bins) {
      for (std::size_t a = 0; a < nrx_; ++a) {
        ws.y[a] = ws.data_grid(a, bin) * derotate;
      }
      eq::LinearEqualizer::apply(ws.coeffs[bin], ws.y,
                                 std::span<cf32>(eq_syms).first(n_users_),
                                 std::span<float>(eq_nvars).first(n_users_));
      for (std::size_t u = 0; u < n_users_; ++u) {
        constellation.demap_soft(eq_syms[u], eq_nvars[u],
                                 std::span<float>(ws.llr_buf).first(bps));
        for (unsigned b = 0; b < bps; ++b) {
          ws.stream_llrs[u].push_back(ws.llr_buf[b]);
        }
      }
    }
  }

  // ---- Per-user FEC: each stream is its own codeword — deinterleave with
  // the stream's geometry, then depuncture / Viterbi / descramble / FCS
  // independently. No stream merge: that is the single-link path's job. ----
  const std::size_t n_info_bits =
      fl.n_data_symbols * mcs_.data_bits_per_symbol();
  const std::size_t psdu_bits = 8 * psdu_bytes;
  pkt.detected = true;

  for (std::size_t u = 0; u < n_users_; ++u) {
    const wifi::Interleaver& il =
        wifi::cached_interleaver(mcs_.bits_per_subcarrier(), u, n_users_);
    ws.deinterleaved.resize(n_users_);
    il.deinterleave_into(ws.stream_llrs[u], ws.deinterleaved[u]);

    if (cfg_.fec_enabled) {
      fec::depuncture_into(ws.deinterleaved[u], mcs_.rate, ws.depunctured);
      ws.depunctured.resize(2 * n_info_bits, 0.0F);
      viterbi_.decode_soft_into(ws.depunctured, /*terminated=*/false,
                                ws.scrambled, ws.viterbi);
    } else {
      ws.scrambled.resize(ws.deinterleaved[u].size());
      for (std::size_t i = 0; i < ws.deinterleaved[u].size(); ++i) {
        ws.scrambled[i] = (ws.deinterleaved[u][i] < 0.0F) ? 1 : 0;
      }
    }
    if (ws.scrambled.size() < kServiceBits + psdu_bits) continue;

    // Each user scrambles independently, so the recovery runs per stream.
    const std::uint32_t seed =
        fec::recover_scrambler_seed(std::span(ws.scrambled).first(7));
    fec::scramble_in_place(ws.scrambled, seed);
    wifi::bits_to_bytes_into(
        std::span<const std::uint8_t>(ws.scrambled).subspan(kServiceBits, psdu_bits),
        pkt.users[u].psdu);
    pkt.users[u].fcs_ok = wifi::psdu_fcs_ok(pkt.users[u].psdu);
  }
  return true;
}

}  // namespace mimonet::core
