#include "core/receiver.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <optional>
#include <span>
#include <stdexcept>

#include "channel/impairments.hpp"
#include "chanest/phase_tracker.hpp"
#include "core/workspace.hpp"
#include "dsp/fft.hpp"
#include "eq/alamouti.hpp"
#include "eq/equalizer.hpp"
#include "fec/ldpc.hpp"
#include "fec/scrambler.hpp"
#include "mod/constellation.hpp"
#include "ofdm/pilots.hpp"
#include "wifi/bits.hpp"
#include "wifi/interleaver.hpp"
#include "wifi/mcs.hpp"
#include "wifi/preamble.hpp"
#include "wifi/psdu.hpp"
#include "wifi/stream_parser.hpp"

namespace mimonet::core {

namespace {

/// All occupied HT bins (data + pilots) sorted by logical index, for
/// frequency smoothing.
std::vector<std::size_t> occupied_ht_bins() {
  std::vector<std::size_t> bins;
  for (int k = -28; k <= 28; ++k) {
    if (k == 0) continue;
    bins.push_back(ofdm::SubcarrierMap::logical_to_bin(k));
  }
  return bins;
}

/// Size a per-stream buffer list for `nss` streams without ever shrinking
/// it: shrinking frees the inner buffers, so the next frame with more
/// streams would allocate them again. Only the first nss entries are used.
template <typename T>
void grow_streams(std::vector<std::vector<T>>& v, std::size_t nss) {
  if (v.size() < nss) v.resize(nss);
}

/// Reset a reused SnrEstimate without releasing its per-bin storage.
void reset_snr(chanest::SnrEstimate& s) {
  s.snr_db = 0.0;
  s.signal_power = 0.0;
  s.noise_variance = 0.0;
  s.per_bin_db.clear();
  s.per_bin_valid.clear();
}

/// Reset the reused packet result. Nested buffers keep their capacity; the
/// channel estimate is marked absent via nrx == nss == 0.
void reset_packet(RxPacket& pkt) {
  pkt.lsig_ok = false;
  pkt.htsig_ok = false;
  pkt.fcs_ok = false;
  pkt.error = metrics::RxError::kNoSync;
  pkt.lsig = {};
  pkt.htsig = {};
  pkt.psdu.clear();
  pkt.sync = {};
  reset_snr(pkt.snr);
  reset_snr(pkt.pilot_snr);
  pkt.channel.nrx = 0;
  pkt.channel.nss = 0;
  pkt.residual_cfo_norm = 0.0;
  pkt.stream_sinr_db.fill(0.0);
  pkt.n_stream_sinr = 0;
}

}  // namespace

Receiver::Receiver(PhyConfig cfg, std::size_t nrx)
    : Receiver(std::move(cfg), nrx, sync::ScanMode{}) {}

Receiver::Receiver(PhyConfig cfg, std::size_t nrx, const sync::ScanMode& scan)
    : cfg_(cfg),
      nrx_(nrx),
      synchronizer_(sync::FrameSyncConfig{.scan = scan, .mode = cfg.timing_mode}),
      legacy_demod_(ofdm::CarrierPlan::kLegacy),
      ht_demod_(ofdm::CarrierPlan::kHt) {
  if (nrx == 0 || nrx > 4) throw std::invalid_argument("Receiver: nrx must be 1..4");
}

void Receiver::decode_sig_llrs(const dsp::SampleGrid& grids,
                               const std::vector<std::vector<cf32>>& h_legacy,
                               float noise_var, bool qbpsk, RxWorkspace& ws,
                               std::vector<float>& out) const {
  const auto& data_bins = legacy_demod_.map().data_bins();
  ws.mrc.resize(data_bins.size());
  for (std::size_t i = 0; i < data_bins.size(); ++i) {
    const std::size_t bin = data_bins[i];
    dsp::cf64 num{0.0, 0.0};
    for (std::size_t r = 0; r < nrx_; ++r) {
      num += dsp::cf64(grids(r, bin)) * std::conj(dsp::cf64(h_legacy[r][bin]));
    }
    // Unnormalized MRC: llr = -4 * axis(num) / nv is exact because the MRC
    // gain cancels between numerator and effective noise variance.
    ws.mrc[i] = cf32(static_cast<float>(num.real()), static_cast<float>(num.imag()));
  }
  wifi::demap_sig_field_into(ws.mrc, noise_var, qbpsk, ws.sig_axis_llrs, out);
}

bool Receiver::receive(std::span<const std::span<const cf32>> capture,
                       RxWorkspace& ws) const {
  return receive(capture, ws, HarqDecode{});
}

bool Receiver::receive(std::span<const std::span<const cf32>> capture,
                       RxWorkspace& ws, const HarqDecode& harq) const {
  if (capture.size() != nrx_) {
    throw std::invalid_argument("Receiver: capture antenna count mismatch");
  }
  // No soft state is worth retaining unless decode reaches the FEC stage.
  if (harq.combined != nullptr) harq.combined->clear();
  RxPacket& pkt = ws.packet;
  reset_packet(pkt);

  const auto sync_res = synchronizer_.synchronize(capture, ws.sync);
  if (!sync_res) {
    if (ws.sync.rejected_candidate) {
      // A detector candidate fired but synchronization rejected it. Report
      // its position so a streaming scanner can hop past it instead of
      // declaring the whole remainder idle.
      pkt.sync.packet_start = *ws.sync.rejected_candidate;
      pkt.error = ws.sync.rejected_truncated ? metrics::RxError::kTruncated
                                             : metrics::RxError::kFalseSync;
    }
    return false;  // else pkt.error == kNoSync from the reset
  }
  pkt.sync = *sync_res;

  // CFO-corrected, packet-aligned copy of the preamble through HT-SIG. The
  // rest of the frame is appended once HT-SIG has announced its extent, so
  // a receive never copies or derotates the capture behind its frame.
  const std::size_t start = sync_res->packet_start;
  const std::size_t avail = capture[0].size() - start;
  FrameLayout probe;  // nss=1 layout: offsets through HT-STF are nss-free
  if (avail < probe.htltf_offset() + wifi::kHtLtfLen) {
    pkt.error = metrics::RxError::kTruncated;
    return false;
  }

  const std::size_t sig_end = probe.htstf_offset();
  ws.rx.resize(nrx_);
  std::array<std::span<cf32>, 4> derot{};  // nrx <= 4
  const std::span<const std::span<cf32>> derot_views(derot.data(), nrx_);
  for (std::size_t a = 0; a < nrx_; ++a) {
    const auto head = capture[a].subspan(start, sig_end);
    ws.rx[a].assign(head.begin(), head.end());
    derot[a] = ws.rx[a];
  }
  // One oscillator: one phasor per sample for every antenna. The phase
  // after the first sig_end samples continues the derotation below.
  const double cfo_phase = channel::apply_cfo(derot_views, -sync_res->cfo_norm);

  const dsp::FftPlan& fft64 = ws.fft_cache.plan(ofdm::kFftSize);

  // ---- L-LTF: legacy channel estimate + SNR estimate. ----
  const std::size_t lltf_payload = probe.lltf_offset() + 32;
  ws.lltf_grids.resize(nrx_, 2, ofdm::kFftSize);
  for (std::size_t a = 0; a < nrx_; ++a) {
    for (std::size_t rep = 0; rep < 2; ++rep) {
      fft64.forward(
          std::span<const cf32>(ws.rx[a]).subspan(lltf_payload + rep * 64, 64),
          ws.lltf_grids.row(a, rep));
    }
  }
  chanest::LsChannelEstimator::estimate_legacy_into(ws.lltf_grids, ws.h_legacy);

  ws.spans.clear();
  for (const auto& a : ws.rx) {
    ws.spans.emplace_back(std::span<const cf32>(a).subspan(lltf_payload, 128));
  }
  chanest::snr_from_lltf_into(ws.spans, pkt.snr);
  const auto nv_bin = static_cast<float>(
      64.0 * std::max(pkt.snr.noise_variance, 1e-12));

  // ---- L-SIG. ----
  ws.sig_grid.resize(nrx_, ofdm::kFftSize);
  const auto demod_symbol_grids = [&](std::size_t offset) {
    for (std::size_t a = 0; a < nrx_; ++a) {
      fft64.forward(std::span<const cf32>(ws.rx[a])
                        .subspan(offset + ofdm::kCpLen, ofdm::kFftSize),
                    ws.sig_grid.row(a));
    }
  };

  demod_symbol_grids(probe.lsig_offset());
  decode_sig_llrs(ws.sig_grid, ws.h_legacy, nv_bin, /*qbpsk=*/false, ws, ws.sig_llrs);
  viterbi_.decode_soft_into(ws.sig_llrs, /*terminated=*/true, ws.sig_bits, ws.viterbi);
  if (const auto lsig = wifi::decode_lsig(ws.sig_bits)) {
    pkt.lsig = *lsig;
    pkt.lsig_ok = true;
  }

  // ---- HT-SIG (two symbols, one coded block). ----
  ws.htsig_llrs.clear();
  for (std::size_t s = 0; s < 2; ++s) {
    demod_symbol_grids(probe.htsig_offset() + s * ofdm::kSymLen);
    decode_sig_llrs(ws.sig_grid, ws.h_legacy, nv_bin, /*qbpsk=*/true, ws, ws.sig_llrs);
    ws.htsig_llrs.insert(ws.htsig_llrs.end(), ws.sig_llrs.begin(), ws.sig_llrs.end());
  }
  viterbi_.decode_soft_into(ws.htsig_llrs, /*terminated=*/true, ws.sig_bits,
                            ws.viterbi);
  const auto htsig = wifi::decode_htsig(ws.sig_bits);
  if (!htsig) {
    // With both SIG decodes down there is no evidence a packet ever started
    // here — classify the candidate itself as false, not the HT-SIG stage.
    pkt.error = pkt.lsig_ok ? metrics::RxError::kHtsigFail
                            : metrics::RxError::kFalseSync;
    return true;
  }
  pkt.htsig = *htsig;
  pkt.htsig_ok = true;

  // ---- Frame geometry from HT-SIG. ----
  wifi::McsInfo mcs;
  try {
    mcs = wifi::mcs_info(pkt.htsig.mcs);
  } catch (const std::invalid_argument&) {
    pkt.htsig_ok = false;  // CRC passed but the MCS is outside our support
    pkt.error = metrics::RxError::kUnsupportedMcs;
    return true;
  }
  const bool stbc = pkt.htsig.stbc != 0;
  if (stbc && (pkt.htsig.stbc != 1 || mcs.nss != 1)) {
    pkt.htsig_ok = false;  // only the 1-stream / 2-STS Alamouti mode exists
    pkt.error = metrics::RxError::kUnsupportedMcs;
    return true;
  }
  const std::size_t nsts = stbc ? 2 : mcs.nss;
  // The FEC family is announced in HT-SIG, so the receiver self-configures.
  const FecType fec_type = pkt.htsig.fec_coding ? FecType::kLdpc : FecType::kBcc;
  FrameLayout fl;
  fl.nss = nsts;
  fl.n_data_symbols = data_symbol_count(mcs, pkt.htsig.length, cfg_.fec_enabled,
                                        stbc, fec_type);
  if (avail < fl.total_samples()) {  // truncated capture
    pkt.error = metrics::RxError::kTruncated;
    return true;
  }

  // Extend the aligned copy to the announced frame, continuing the
  // derotation from the phase the preamble copy ended on: dsp::mix carries
  // its phase accumulator, so this is bit-identical to one pass.
  for (std::size_t a = 0; a < nrx_; ++a) {
    const auto rest = capture[a].subspan(start + sig_end, fl.total_samples() - sig_end);
    ws.rx[a].insert(ws.rx[a].end(), rest.begin(), rest.end());
    derot[a] = std::span<cf32>(ws.rx[a]).subspan(sig_end);
  }
  channel::apply_cfo(derot_views, -sync_res->cfo_norm, cfo_phase);

  // ---- HT-LTF channel estimation. ----
  const std::size_t n_ltf = fl.n_ht_ltfs();
  ws.ltf_grids.resize(nrx_, n_ltf, ofdm::kFftSize);
  for (std::size_t a = 0; a < nrx_; ++a) {
    for (std::size_t n = 0; n < n_ltf; ++n) {
      fft64.forward(std::span<const cf32>(ws.rx[a]).subspan(
                        fl.htltf_offset() + n * wifi::kHtLtfLen + ofdm::kCpLen, 64),
                    ws.ltf_grids.row(a, n));
    }
  }
  const chanest::LsChannelEstimator ls(nrx_, nsts);
  chanest::MimoChannelEstimate& est = pkt.channel;
  ls.estimate_into(ws.ltf_grids, est);
  if (cfg_.smoothing) {
    static const auto bins = occupied_ht_bins();
    ws.csd.resize(nsts);
    for (std::size_t s = 0; s < nsts; ++s) {
      ws.csd[s] = wifi::ht_csd_samples(s, nsts);
    }
    chanest::smooth_frequency(est, bins, ws.csd);
  }

  // ---- Data symbols. ----
  const mod::Constellation& constellation = mod::constellation_for(mcs.modulation);
  const unsigned bps = constellation.bits_per_symbol();
  const auto& data_bins = ht_demod_.map().data_bins();
  const auto& pilot_bins = ht_demod_.map().pilot_bins();

  chanest::PilotPhaseTracker tracker(est);
  ws.pilot_evm.reset();

  std::optional<eq::LinearEqualizer> lin_eq;
  std::optional<eq::MlDetector> ml_det;
  if (!stbc) {
    if (cfg_.equalizer == eq::EqualizerType::kMaxLikelihood && mcs.nss <= 2) {
      ml_det.emplace(constellation, mcs.nss);
    } else {
      lin_eq.emplace(cfg_.equalizer == eq::EqualizerType::kMaxLikelihood
                         ? eq::EqualizerType::kMmse
                         : cfg_.equalizer);
    }
  }

  // Pre-fetch channel matrices for the data bins, and — for the linear
  // equalizer — prepare the per-bin coefficients once. The channel is
  // constant across symbols unless decision tracking rewrites it, in which
  // case the bin is re-prepared right after the update (bit-identical to
  // equalizing with the updated matrix each symbol).
  ws.h_at.resize(ofdm::kFftSize);
  for (const std::size_t b : data_bins) est.at_bin_into(b, ws.h_at[b]);
  if (lin_eq) {
    ws.coeffs.resize(ofdm::kFftSize);
    for (const std::size_t b : data_bins) {
      lin_eq->prepare(ws.h_at[b], nv_bin, ws.coeffs[b]);
    }
    // Per-stream post-eq SINR from the prepared CSI, before any
    // decision-tracking updates: the link-adaptation observable.
    for (std::size_t s = 0; s < mcs.nss; ++s) {
      double acc = 0.0;
      std::size_t cnt = 0;
      for (const std::size_t b : data_bins) {
        const float nv = ws.coeffs[b].noise_vars[s];
        if (nv > 0.0F && nv < eq::kErasedNoiseVar) {
          acc += 1.0 / static_cast<double>(nv);
          ++cnt;
        }
      }
      pkt.stream_sinr_db[s] =
          cnt > 0 ? 10.0 * std::log10(acc / static_cast<double>(cnt)) : 0.0;
    }
    pkt.n_stream_sinr = mcs.nss;
  }

  // The batched symbol-plane pipeline replaces the per-symbol layer walk for
  // the spatial-multiplexing payload; STBC keeps the pairwise path.
  const bool batched = cfg_.batched_decode && !stbc;

  if (!batched) {
    grow_streams(ws.stream_llrs, mcs.nss);
    for (std::size_t s = 0; s < mcs.nss; ++s) {
      ws.stream_llrs[s].clear();
      ws.stream_llrs[s].reserve(fl.n_data_symbols * wifi::kHtDataCarriers * bps);
    }
    ws.data_grid.resize(nrx_, ofdm::kFftSize);
    ws.y.resize(nrx_);
  }
  ws.llr_buf.resize(mcs.nss * bps);
  ws.rx_pilots.resize(nrx_);

  // Demodulate data symbol `n` into `out_grids`, run pilot CPE tracking and
  // pilot-EVM accounting, and return the derotation phasor to apply.
  const auto demod_data_symbol = [&](std::size_t n, dsp::SampleGrid& out_grids) {
    const std::size_t off = fl.data_offset() + n * ofdm::kSymLen;
    for (std::size_t a = 0; a < nrx_; ++a) {
      fft64.forward(std::span<const cf32>(ws.rx[a]).subspan(off + ofdm::kCpLen, 64),
                    out_grids.row(a));
    }
    cf32 derotate{1.0F, 0.0F};
    for (std::size_t a = 0; a < nrx_; ++a) {
      for (std::size_t p = 0; p < 4; ++p) {
        ws.rx_pilots[a][p] = out_grids(a, pilot_bins[p]);
      }
    }
    if (cfg_.phase_tracking) {
      const double raw = tracker.estimate_cpe(ws.rx_pilots, n);
      const double theta = tracker.track(raw);
      derotate = dsp::phasor(static_cast<float>(-theta));
    }
    // Pilot EVM (after derotation) feeds the fine-grained SNR estimate.
    for (std::size_t a = 0; a < nrx_; ++a) {
      for (std::size_t p = 0; p < 4; ++p) {
        dsp::cf64 expected{0.0, 0.0};
        for (std::size_t s = 0; s < nsts; ++s) {
          const auto pv = ofdm::ht_data_pilots(nsts, s, n);
          expected += dsp::cf64(est.h[a][s][pilot_bins[p]]) * dsp::cf64(pv[p]);
        }
        ws.pilot_evm.add(pilot_bins[p], ws.rx_pilots[a][p] * derotate,
                         cf32(static_cast<float>(expected.real()),
                              static_cast<float>(expected.imag())));
      }
    }
    return derotate;
  };

  // Decision-directed LMS channel update for one subcarrier: slice the
  // equalized symbols, form the reconstruction error per antenna, and nudge
  // H toward explaining the observation. Counters intra-packet fading.
  const bool dd_tracking = cfg_.decision_tracking && !stbc && lin_eq.has_value();
  ws.sliced.resize(mcs.nss);
  const auto dd_update = [&](std::size_t bin, std::span<const cf32> y_obs,
                             std::span<const cf32> eq_symbols) {
    auto& h = ws.h_at[bin];
    for (std::size_t s = 0; s < mcs.nss; ++s) {
      ws.sliced[s] = dsp::cf64(
          constellation.points()[constellation.hard_decision(eq_symbols[s])]);
    }
    const double mu = static_cast<double>(cfg_.decision_tracking_mu) /
                      static_cast<double>(mcs.nss);
    for (std::size_t a = 0; a < nrx_; ++a) {
      dsp::cf64 pred{0.0, 0.0};
      for (std::size_t s = 0; s < mcs.nss; ++s) pred += h(a, s) * ws.sliced[s];
      const dsp::cf64 err = dsp::cf64(y_obs[a]) - pred;
      for (std::size_t s = 0; s < mcs.nss; ++s) {
        // Unit-energy constellations: |x|^2 ~ 1, so no normalizer needed.
        h(a, s) += mu * err * std::conj(ws.sliced[s]);
      }
    }
  };

  const wifi::StreamParser parser(mcs.bits_per_subcarrier(), mcs.nss);
  const std::size_t n_info_bits = fl.n_data_symbols * mcs.data_bits_per_symbol();
  // Batched BCC streams depunctured LLRs straight into the Viterbi ACS as
  // each chunk lands; everything else accumulates ws.merged for the tail.
  // HARQ combining needs the whole merged stream materialized (to sum the
  // prior in and to retain the result), so it forces the accumulate path —
  // bit-identical to the streaming one (chunked depuncture/ACS is pinned to
  // the one-shot decode; see fec/convolutional.hpp and fec/viterbi.hpp).
  const bool bcc_stream = batched && cfg_.fec_enabled &&
                          fec_type == FecType::kBcc && !harq.active();
  std::size_t llrs_fed = 0;

  if (batched) {
    // ---- Batched symbol-plane decode: stage-wise passes over chunks of
    // kDecodeBatchSymbols OFDM symbols. Per-(symbol, bin) operations are
    // independent, so the symbol-major -> bin-major reorder inside a chunk
    // is bit-exact; decision tracking's only cross-symbol dependency is
    // per-bin, which the bin-major walk preserves in sequence. ----
    const std::size_t n_bins = data_bins.size();
    const std::size_t block = n_bins * bps;  // coded bits/symbol/stream
    if (bcc_stream) {
      ws.depunct_stream.reset(mcs.rate);
      viterbi_.stream_begin(ws.viterbi_stream, ws.viterbi, n_info_bits);
    } else {
      ws.merged.clear();
      ws.merged.reserve(fl.n_data_symbols * block * mcs.nss);
    }
    grow_streams(ws.eq_out, mcs.nss);
    grow_streams(ws.nv_out, mcs.nss);
    grow_streams(ws.chunk_llrs, mcs.nss);
    grow_streams(ws.chunk_deint, mcs.nss);
    ws.merge_views.resize(mcs.nss);  // spans: resizing never allocates once warm
    std::array<cf32, eq::CMatrix::kMaxDim> eq_syms{};
    std::array<float, eq::CMatrix::kMaxDim> eq_nvars{};

    for (std::size_t n0 = 0; n0 < fl.n_data_symbols; n0 += kDecodeBatchSymbols) {
      const std::size_t chunk =
          std::min<std::size_t>(kDecodeBatchSymbols, fl.n_data_symbols - n0);

      // Stage 1: one batched FFT pass per antenna over the chunk.
      ws.batch_grids.resize(nrx_, chunk, ofdm::kFftSize);
      const std::size_t off = fl.data_offset() + n0 * ofdm::kSymLen;
      for (std::size_t a = 0; a < nrx_; ++a) {
        ht_demod_.demodulate_grids_into(
            std::span<const cf32>(ws.rx[a]).subspan(off, chunk * ofdm::kSymLen),
            chunk,
            std::span<cf32>(ws.batch_grids.data() + a * chunk * ofdm::kFftSize,
                            chunk * ofdm::kFftSize));
      }

      // Stage 2: pilot CPE tracking + EVM, sequential in symbol order (the
      // tracker state and EVM accumulation see the per-symbol sequence).
      ws.derotate.resize(chunk);
      for (std::size_t j = 0; j < chunk; ++j) {
        const std::size_t n = n0 + j;
        for (std::size_t a = 0; a < nrx_; ++a) {
          for (std::size_t p = 0; p < 4; ++p) {
            ws.rx_pilots[a][p] = ws.batch_grids(a, j, pilot_bins[p]);
          }
        }
        cf32 derotate{1.0F, 0.0F};
        if (cfg_.phase_tracking) {
          const double raw = tracker.estimate_cpe(ws.rx_pilots, n);
          const double theta = tracker.track(raw);
          derotate = dsp::phasor(static_cast<float>(-theta));
        }
        for (std::size_t a = 0; a < nrx_; ++a) {
          for (std::size_t p = 0; p < 4; ++p) {
            dsp::cf64 expected{0.0, 0.0};
            for (std::size_t s = 0; s < nsts; ++s) {
              const auto pv = ofdm::ht_data_pilots(nsts, s, n);
              expected += dsp::cf64(est.h[a][s][pilot_bins[p]]) * dsp::cf64(pv[p]);
            }
            ws.pilot_evm.add(pilot_bins[p], ws.rx_pilots[a][p] * derotate,
                             cf32(static_cast<float>(expected.real()),
                                  static_cast<float>(expected.imag())));
          }
        }
        ws.derotate[j] = derotate;
      }

      // Stage 3: equalize bin-major across the chunk, scattering the
      // per-stream outputs symbol-major so the demap input is already in
      // stream-LLR order.
      for (std::size_t s = 0; s < mcs.nss; ++s) {
        ws.eq_out[s].resize(chunk * n_bins);
        ws.nv_out[s].resize(chunk * n_bins);
        ws.chunk_llrs[s].resize(chunk * block);
      }
      ws.y_batch.resize(chunk * nrx_);
      ws.eq_slab.resize(chunk * mcs.nss);
      ws.nv_slab.resize(chunk * mcs.nss);
      for (std::size_t i = 0; i < n_bins; ++i) {
        const std::size_t bin = data_bins[i];
        for (std::size_t j = 0; j < chunk; ++j) {
          for (std::size_t a = 0; a < nrx_; ++a) {
            ws.y_batch[j * nrx_ + a] = ws.batch_grids(a, j, bin) * ws.derotate[j];
          }
        }
        if (ml_det) {
          for (std::size_t j = 0; j < chunk; ++j) {
            ml_det->demap(
                ws.h_at[bin],
                std::span<const cf32>(ws.y_batch).subspan(j * nrx_, nrx_), nv_bin,
                ws.llr_buf);
            for (std::size_t s = 0; s < mcs.nss; ++s) {
              for (unsigned b = 0; b < bps; ++b) {
                ws.chunk_llrs[s][(j * n_bins + i) * bps + b] =
                    ws.llr_buf[s * bps + b];
              }
            }
          }
        } else if (dd_tracking) {
          // Per-bin LMS updates force a sequential walk over the chunk's
          // symbols for this bin — the exact update sequence the per-symbol
          // path produces.
          for (std::size_t j = 0; j < chunk; ++j) {
            const auto y =
                std::span<const cf32>(ws.y_batch).subspan(j * nrx_, nrx_);
            eq::LinearEqualizer::apply(
                ws.coeffs[bin], y, std::span<cf32>(eq_syms).first(mcs.nss),
                std::span<float>(eq_nvars).first(mcs.nss));
            for (std::size_t s = 0; s < mcs.nss; ++s) {
              ws.eq_out[s][j * n_bins + i] = eq_syms[s];
              ws.nv_out[s][j * n_bins + i] = eq_nvars[s];
            }
            dd_update(bin, y, std::span<const cf32>(eq_syms).first(mcs.nss));
            lin_eq->prepare(ws.h_at[bin], nv_bin, ws.coeffs[bin]);
          }
        } else {
          eq::LinearEqualizer::apply_run(ws.coeffs[bin], ws.y_batch, chunk,
                                         ws.eq_slab, ws.nv_slab);
          for (std::size_t j = 0; j < chunk; ++j) {
            for (std::size_t s = 0; s < mcs.nss; ++s) {
              ws.eq_out[s][j * n_bins + i] = ws.eq_slab[j * mcs.nss + s];
              ws.nv_out[s][j * n_bins + i] = ws.nv_slab[j * mcs.nss + s];
            }
          }
        }
      }

      // Stage 4: SIMD demap + deinterleave per stream, then merge. The
      // interleaver block is one symbol per stream and the parser group
      // divides the block, so chunk-wise passes concatenate to the
      // whole-payload result exactly.
      for (std::size_t s = 0; s < mcs.nss; ++s) {
        if (!ml_det) {
          constellation.demap_soft_run(ws.eq_out[s], ws.nv_out[s],
                                       ws.chunk_llrs[s]);
        }
        const wifi::Interleaver& il =
            wifi::cached_interleaver(mcs.bits_per_subcarrier(), s, mcs.nss);
        ws.chunk_deint[s].resize(chunk * block);
        il.deinterleave_into(ws.chunk_llrs[s], std::span<float>(ws.chunk_deint[s]));
        ws.merge_views[s] = ws.chunk_deint[s];
      }
      ws.chunk_merged.resize(chunk * block * mcs.nss);
      parser.merge_into(std::span<const std::span<const float>>(ws.merge_views),
                        std::span<float>(ws.chunk_merged));

      // Stage 5: stream the chunk into the FEC consumer — Viterbi ACS runs
      // while later chunks are still in flight.
      if (bcc_stream) {
        ws.depunct_stream.consume(ws.chunk_merged, ws.chunk_depunct);
        const std::size_t take =
            std::min(ws.chunk_depunct.size(), 2 * n_info_bits - llrs_fed);
        viterbi_.stream_consume(
            ws.viterbi_stream, ws.viterbi,
            std::span<const float>(ws.chunk_depunct).first(take));
        llrs_fed += take;
      } else {
        ws.merged.insert(ws.merged.end(), ws.chunk_merged.begin(),
                         ws.chunk_merged.end());
      }
    }
  } else if (!stbc) {
    std::array<cf32, eq::CMatrix::kMaxDim> eq_syms{};
    std::array<float, eq::CMatrix::kMaxDim> eq_nvars{};
    for (std::size_t n = 0; n < fl.n_data_symbols; ++n) {
      const cf32 derotate = demod_data_symbol(n, ws.data_grid);
      for (const std::size_t bin : data_bins) {
        for (std::size_t a = 0; a < nrx_; ++a) {
          ws.y[a] = ws.data_grid(a, bin) * derotate;
        }

        if (ml_det) {
          ml_det->demap(ws.h_at[bin], ws.y, nv_bin, ws.llr_buf);
          for (std::size_t s = 0; s < mcs.nss; ++s) {
            for (unsigned b = 0; b < bps; ++b) {
              ws.stream_llrs[s].push_back(ws.llr_buf[s * bps + b]);
            }
          }
        } else {
          eq::LinearEqualizer::apply(
              ws.coeffs[bin], ws.y, std::span<cf32>(eq_syms).first(mcs.nss),
              std::span<float>(eq_nvars).first(mcs.nss));
          for (std::size_t s = 0; s < mcs.nss; ++s) {
            constellation.demap_soft(eq_syms[s], eq_nvars[s],
                                     std::span<float>(ws.llr_buf).first(bps));
            for (unsigned b = 0; b < bps; ++b) {
              ws.stream_llrs[s].push_back(ws.llr_buf[b]);
            }
          }
          if (dd_tracking) {
            dd_update(bin, ws.y,
                      std::span<const cf32>(eq_syms).first(mcs.nss));
            lin_eq->prepare(ws.h_at[bin], nv_bin, ws.coeffs[bin]);
          }
        }
      }
    }
  } else {
    // Alamouti: decode pairwise. LLRs of the pair's first symbol must land
    // before the second's to match the transmitter's bit order.
    ws.data_grid2.resize(nrx_, ofdm::kFftSize);
    ws.y2.resize(nrx_);
    ws.llrs_first.resize(data_bins.size() * bps);
    ws.llrs_second.resize(data_bins.size() * bps);
    for (std::size_t n = 0; n + 1 < fl.n_data_symbols + 1; n += 2) {
      const cf32 derot1 = demod_data_symbol(n, ws.data_grid);
      const cf32 derot2 = demod_data_symbol(n + 1, ws.data_grid2);
      for (std::size_t i = 0; i < data_bins.size(); ++i) {
        const std::size_t bin = data_bins[i];
        for (std::size_t a = 0; a < nrx_; ++a) {
          ws.y[a] = ws.data_grid(a, bin) * derot1;
          ws.y2[a] = ws.data_grid2(a, bin) * derot2;
        }
        const auto dec = eq::alamouti_combine(ws.h_at[bin], ws.y, ws.y2, nv_bin);
        constellation.demap_soft(
            dec.d1, dec.noise_var,
            std::span<float>(ws.llrs_first).subspan(i * bps, bps));
        constellation.demap_soft(
            dec.d2, dec.noise_var,
            std::span<float>(ws.llrs_second).subspan(i * bps, bps));
      }
      ws.stream_llrs[0].insert(ws.stream_llrs[0].end(), ws.llrs_first.begin(),
                               ws.llrs_first.end());
      ws.stream_llrs[0].insert(ws.stream_llrs[0].end(), ws.llrs_second.begin(),
                               ws.llrs_second.end());
    }
  }

  ws.pilot_evm.estimate_into(pkt.pilot_snr);
  pkt.residual_cfo_norm = tracker.residual_cfo_norm();

  // ---- Deinterleave per stream, merge, FEC-decode, descramble. The
  // batched pipeline already deinterleaved, merged, and (for BCC) fed the
  // streaming Viterbi chunk by chunk. ----
  if (!batched) {
    grow_streams(ws.deinterleaved, mcs.nss);
    for (std::size_t s = 0; s < mcs.nss; ++s) {
      const wifi::Interleaver& il =
          wifi::cached_interleaver(mcs.bits_per_subcarrier(), s, mcs.nss);
      il.deinterleave_into(ws.stream_llrs[s], ws.deinterleaved[s]);
    }
    parser.merge_into(
        std::span<const std::vector<float>>(ws.deinterleaved).first(mcs.nss),
        ws.merged);
  }

  // ---- HARQ chase combining: sum the retained prior attempts' LLRs into
  // this attempt's merged stream before any FEC decoding, and export the
  // combined stream for retention. A prior whose length disagrees with this
  // attempt's stream (the retransmission changed MCS/length) is skipped —
  // the attempt decodes standalone rather than combining incompatible soft
  // state. ----
  if (harq.active()) {
    if (!harq.prior.empty() && harq.prior.size() == ws.merged.size()) {
      for (std::size_t i = 0; i < ws.merged.size(); ++i) {
        ws.merged[i] += harq.prior[i];
      }
    }
    if (harq.combined != nullptr) {
      harq.combined->assign(ws.merged.begin(), ws.merged.end());
    }
  }

  if (cfg_.fec_enabled && fec_type == FecType::kLdpc) {
    static const fec::LdpcCode code;
    const std::size_t n_cw = ldpc_codeword_count(pkt.htsig.length);
    if (ws.merged.size() < n_cw * kLdpcN) {
      pkt.error = metrics::RxError::kTruncated;
      return true;
    }
    ws.scrambled.clear();
    ws.scrambled.reserve(n_cw * kLdpcK);
    for (std::size_t cw = 0; cw < n_cw; ++cw) {
      const auto word = code.decode(
          std::span<const float>(ws.merged).subspan(cw * kLdpcN, kLdpcN));
      ws.scrambled.insert(ws.scrambled.end(), word.begin(),
                          word.begin() + static_cast<long>(kLdpcK));
    }
  } else if (cfg_.fec_enabled) {
    if (bcc_stream) {
      // Pad the trellis with zero-LLR erasures up to the 2 * n_info budget
      // (the one-shot path's resize does the same), then trace back.
      std::array<float, 128> zeros{};
      while (llrs_fed < 2 * n_info_bits) {
        const std::size_t take =
            std::min(zeros.size(), 2 * n_info_bits - llrs_fed);
        viterbi_.stream_consume(ws.viterbi_stream, ws.viterbi,
                                std::span<const float>(zeros).first(take));
        llrs_fed += take;
      }
      viterbi_.stream_finish(ws.viterbi_stream, ws.viterbi,
                             /*terminated=*/false, ws.scrambled);
    } else {
      fec::depuncture_into(ws.merged, mcs.rate, ws.depunctured);
      ws.depunctured.resize(2 * n_info_bits, 0.0F);
      viterbi_.decode_soft_into(ws.depunctured, /*terminated=*/false,
                                ws.scrambled, ws.viterbi);
    }
  } else {
    ws.scrambled.resize(ws.merged.size());
    for (std::size_t i = 0; i < ws.merged.size(); ++i) {
      ws.scrambled[i] = (ws.merged[i] < 0.0F) ? 1 : 0;
    }
  }

  const std::size_t psdu_bits = 8 * static_cast<std::size_t>(pkt.htsig.length);
  if (ws.scrambled.size() < kServiceBits + psdu_bits) {
    pkt.error = metrics::RxError::kTruncated;
    return true;
  }

  const std::uint32_t seed =
      fec::recover_scrambler_seed(std::span(ws.scrambled).first(7));
  fec::scramble_in_place(ws.scrambled, seed);

  wifi::bits_to_bytes_into(
      std::span<const std::uint8_t>(ws.scrambled).subspan(kServiceBits, psdu_bits),
      pkt.psdu);
  pkt.fcs_ok = wifi::psdu_fcs_ok(pkt.psdu);
  // A frame delivered past a failed L-SIG still reports the anomaly; a
  // failed FCS is the terminal data-stage classification either way.
  pkt.error = !pkt.fcs_ok ? metrics::RxError::kFcsFail
              : pkt.lsig_ok ? metrics::RxError::kOk
                            : metrics::RxError::kLsigFail;
  return true;
}

std::optional<std::size_t> corroborated_frame_samples(const RxPacket& pkt,
                                                      const PhyConfig& cfg) {
  if (!pkt.htsig_ok) return std::nullopt;
  const wifi::McsInfo mcs = wifi::mcs_info(pkt.htsig.mcs);
  const bool stbc = pkt.htsig.stbc != 0;
  const FecType fec_type = pkt.htsig.fec_coding ? FecType::kLdpc : FecType::kBcc;
  FrameLayout fl;
  fl.nss = stbc ? 2 : mcs.nss;
  fl.n_data_symbols = data_symbol_count(mcs, pkt.htsig.length, cfg.fec_enabled,
                                        stbc, fec_type);
  const bool lsig_agrees = pkt.lsig_ok &&
                           pkt.lsig.rate_bits == wifi::kLsigRate6Mbps &&
                           pkt.lsig.length == fl.spoofed_lsig_length();
  if (!pkt.fcs_ok && !lsig_agrees) return std::nullopt;
  return fl.total_samples();
}

}  // namespace mimonet::core
