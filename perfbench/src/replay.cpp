#include "replay.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>
#include <optional>
#include <stdexcept>

#include "channel/impairments.hpp"
#include "chanest/phase_tracker.hpp"
#include "dsp/fft.hpp"
#include "eq/alamouti.hpp"
#include "eq/equalizer.hpp"
#include "fec/convolutional.hpp"
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

namespace perfbench {

namespace core = mimonet::core;
namespace dsp = mimonet::dsp;
namespace chanest = mimonet::chanest;
namespace ofdm = mimonet::ofdm;
namespace eq = mimonet::eq;
namespace fec = mimonet::fec;
namespace wifi = mimonet::wifi;
namespace mod = mimonet::mod;
namespace sync = mimonet::sync;
namespace channel = mimonet::channel;
using mimonet::metrics::RxError;

namespace {

std::vector<std::size_t> occupied_ht_bins() {
  std::vector<std::size_t> bins;
  for (int k = -28; k <= 28; ++k) {
    if (k == 0) continue;
    bins.push_back(ofdm::SubcarrierMap::logical_to_bin(k));
  }
  return bins;
}

std::uint32_t recover_scrambler_seed(std::span<const std::uint8_t> first7) {
  std::array<std::uint8_t, 7> seq{};
  for (std::uint32_t seed = 1; seed < 128; ++seed) {
    fec::scrambler_sequence_into(seed, seq);
    bool match = true;
    for (std::size_t i = 0; i < 7; ++i) {
      if (seq[i] != (first7[i] & 1U)) {
        match = false;
        break;
      }
    }
    if (match) return seed;
  }
  return fec::kDefaultScramblerSeed;
}

void reset_snr(chanest::SnrEstimate& s) {
  s.snr_db = 0.0;
  s.signal_power = 0.0;
  s.noise_variance = 0.0;
  s.per_bin_db.clear();
  s.per_bin_valid.clear();
}

void reset_packet(core::RxPacket& pkt) {
  pkt.lsig_ok = false;
  pkt.htsig_ok = false;
  pkt.fcs_ok = false;
  pkt.error = RxError::kNoSync;
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

template <typename T>
bool same_bits(const T& a, const T& b) {
  return std::memcmp(&a, &b, sizeof(T)) == 0;
}

template <typename T>
bool same_bits(const std::vector<T>& a, const std::vector<T>& b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(), a.size() * sizeof(T)) == 0);
}

bool same_snr(const chanest::SnrEstimate& a, const chanest::SnrEstimate& b) {
  return same_bits(a.snr_db, b.snr_db) && same_bits(a.signal_power, b.signal_power) &&
         same_bits(a.noise_variance, b.noise_variance) &&
         same_bits(a.per_bin_db, b.per_bin_db) &&
         a.per_bin_valid == b.per_bin_valid;
}

}  // namespace

bool same_packet(const core::RxPacket& a, const core::RxPacket& b) {
  if (a.lsig_ok != b.lsig_ok || a.htsig_ok != b.htsig_ok || a.fcs_ok != b.fcs_ok ||
      a.error != b.error || !(a.lsig == b.lsig) || !(a.htsig == b.htsig) ||
      a.psdu != b.psdu || a.sync.packet_start != b.sync.packet_start ||
      !same_bits(a.sync.cfo_norm, b.sync.cfo_norm) ||
      !same_bits(a.sync.coarse_cfo_norm, b.sync.coarse_cfo_norm) ||
      !same_bits(a.sync.detect_metric, b.sync.detect_metric) ||
      !same_snr(a.snr, b.snr) || !same_snr(a.pilot_snr, b.pilot_snr) ||
      !same_bits(a.residual_cfo_norm, b.residual_cfo_norm) ||
      !same_bits(a.stream_sinr_db, b.stream_sinr_db) ||
      a.n_stream_sinr != b.n_stream_sinr || a.channel.nrx != b.channel.nrx ||
      a.channel.nss != b.channel.nss) {
    return false;
  }
  for (std::size_t r = 0; r < a.channel.nrx; ++r) {
    for (std::size_t s = 0; s < a.channel.nss; ++s) {
      if (!same_bits(a.channel.h[r][s], b.channel.h[r][s])) return false;
    }
  }
  return true;
}

Replayer::Replayer(const core::PhyConfig& cfg, std::size_t nrx)
    : cfg_(cfg),
      nrx_(nrx),
      synchronizer_(sync::FrameSyncConfig{.scan = sync::ScanMode{},
                                          .mode = cfg.timing_mode}),
      legacy_demod_(ofdm::CarrierPlan::kLegacy),
      ht_demod_(ofdm::CarrierPlan::kHt) {
  if (!cfg.batched_decode || !cfg.fec_enabled || cfg.decision_tracking ||
      cfg.equalizer == eq::EqualizerType::kMaxLikelihood) {
    throw std::invalid_argument("Replayer: unsupported receiver configuration");
  }
}

void Replayer::decode_sig_llrs(const dsp::SampleGrid& grids,
                               const std::vector<std::vector<cf32>>& h_legacy,
                               float noise_var, bool qbpsk, core::RxWorkspace& ws,
                               std::vector<float>& out) const {
  const auto& data_bins = legacy_demod_.map().data_bins();
  ws.mrc.resize(data_bins.size());
  for (std::size_t i = 0; i < data_bins.size(); ++i) {
    const std::size_t bin = data_bins[i];
    dsp::cf64 num{0.0, 0.0};
    for (std::size_t r = 0; r < nrx_; ++r) {
      num += dsp::cf64(grids(r, bin)) * std::conj(dsp::cf64(h_legacy[r][bin]));
    }
    ws.mrc[i] = cf32(static_cast<float>(num.real()), static_cast<float>(num.imag()));
  }
  wifi::demap_sig_field_into(ws.mrc, noise_var, qbpsk, ws.sig_axis_llrs, out);
}

bool Replayer::receive(std::span<const std::span<const cf32>> capture,
                       core::RxWorkspace& ws, Tracer& tr,
                       std::size_t& derotated) const {
  if (capture.size() != nrx_) {
    throw std::invalid_argument("Replayer: capture antenna count mismatch");
  }
  const Tracer::Scope root(tr, "rx");
  core::RxPacket& pkt = ws.packet;
  reset_packet(pkt);

  std::optional<sync::FrameSyncResult> sync_res;
  {
    const Tracer::Scope s(tr, "sync");
    sync_res = synchronizer_.synchronize(capture, ws.sync);
  }
  if (!sync_res) {
    if (ws.sync.rejected_candidate) {
      pkt.sync.packet_start = *ws.sync.rejected_candidate;
      pkt.error = ws.sync.rejected_truncated ? RxError::kTruncated
                                             : RxError::kFalseSync;
    }
    return false;
  }
  pkt.sync = *sync_res;

  const std::size_t start = sync_res->packet_start;
  const std::size_t avail = capture[0].size() - start;
  core::FrameLayout probe;
  if (avail < probe.htltf_offset() + wifi::kHtLtfLen) {
    pkt.error = RxError::kTruncated;
    return false;
  }

  {
    const Tracer::Scope s(tr, "channel.cfo");
    ws.rx.resize(nrx_);
    for (std::size_t a = 0; a < nrx_; ++a) {
      const auto tail = capture[a].subspan(start);
      ws.rx[a].assign(tail.begin(), tail.end());
      channel::apply_cfo(ws.rx[a], -sync_res->cfo_norm);
    }
    derotated += avail;
  }

  const dsp::FftPlan& fft64 = ws.fft_cache.plan(ofdm::kFftSize);
  float nv_bin = 0.0F;
  {
    const Tracer::Scope s(tr, "chanest");
    const std::size_t lltf_payload = probe.lltf_offset() + 32;
    ws.lltf_grids.resize(nrx_, 2, ofdm::kFftSize);
    {
      const Tracer::Scope f(tr, "ofdm.fft");
      for (std::size_t a = 0; a < nrx_; ++a) {
        for (std::size_t rep = 0; rep < 2; ++rep) {
          fft64.forward(
              std::span<const cf32>(ws.rx[a]).subspan(lltf_payload + rep * 64, 64),
              ws.lltf_grids.row(a, rep));
        }
      }
    }
    chanest::LsChannelEstimator::estimate_legacy_into(ws.lltf_grids, ws.h_legacy);
    ws.spans.clear();
    for (const auto& a : ws.rx) {
      ws.spans.emplace_back(std::span<const cf32>(a).subspan(lltf_payload, 128));
    }
    chanest::snr_from_lltf_into(ws.spans, pkt.snr);
    nv_bin = static_cast<float>(64.0 * std::max(pkt.snr.noise_variance, 1e-12));
  }

  ws.sig_grid.resize(nrx_, ofdm::kFftSize);
  const auto demod_symbol_grids = [&](std::size_t offset) {
    const Tracer::Scope f(tr, "ofdm.fft");
    for (std::size_t a = 0; a < nrx_; ++a) {
      fft64.forward(std::span<const cf32>(ws.rx[a])
                        .subspan(offset + ofdm::kCpLen, ofdm::kFftSize),
                    ws.sig_grid.row(a));
    }
  };

  wifi::McsInfo mcs;
  bool stbc = false;
  std::size_t nsts = 0;
  core::FecType fec_type = core::FecType::kBcc;
  core::FrameLayout fl;
  {
    const Tracer::Scope s(tr, "wifi.sig");
    demod_symbol_grids(probe.lsig_offset());
    decode_sig_llrs(ws.sig_grid, ws.h_legacy, nv_bin, false, ws, ws.sig_llrs);
    viterbi_.decode_soft_into(ws.sig_llrs, true, ws.sig_bits, ws.viterbi);
    if (const auto lsig = wifi::decode_lsig(ws.sig_bits)) {
      pkt.lsig = *lsig;
      pkt.lsig_ok = true;
    }
    ws.htsig_llrs.clear();
    for (std::size_t s2 = 0; s2 < 2; ++s2) {
      demod_symbol_grids(probe.htsig_offset() + s2 * ofdm::kSymLen);
      decode_sig_llrs(ws.sig_grid, ws.h_legacy, nv_bin, true, ws, ws.sig_llrs);
      ws.htsig_llrs.insert(ws.htsig_llrs.end(), ws.sig_llrs.begin(),
                           ws.sig_llrs.end());
    }
    viterbi_.decode_soft_into(ws.htsig_llrs, true, ws.sig_bits, ws.viterbi);
    const auto htsig = wifi::decode_htsig(ws.sig_bits);
    if (!htsig) {
      pkt.error = pkt.lsig_ok ? RxError::kHtsigFail : RxError::kFalseSync;
      return true;
    }
    pkt.htsig = *htsig;
    pkt.htsig_ok = true;
    try {
      mcs = wifi::mcs_info(pkt.htsig.mcs);
    } catch (const std::invalid_argument&) {
      pkt.htsig_ok = false;
      pkt.error = RxError::kUnsupportedMcs;
      return true;
    }
    stbc = pkt.htsig.stbc != 0;
    if (stbc && (pkt.htsig.stbc != 1 || mcs.nss != 1)) {
      pkt.htsig_ok = false;
      pkt.error = RxError::kUnsupportedMcs;
      return true;
    }
    nsts = stbc ? 2 : mcs.nss;
    fec_type = pkt.htsig.fec_coding ? core::FecType::kLdpc : core::FecType::kBcc;
    fl.nss = nsts;
    fl.n_data_symbols = core::data_symbol_count(mcs, pkt.htsig.length,
                                                cfg_.fec_enabled, stbc, fec_type);
    if (avail < fl.total_samples()) {
      pkt.error = RxError::kTruncated;
      return true;
    }
  }

  chanest::MimoChannelEstimate& est = pkt.channel;
  {
    const Tracer::Scope s(tr, "chanest");
    const std::size_t n_ltf = fl.n_ht_ltfs();
    ws.ltf_grids.resize(nrx_, n_ltf, ofdm::kFftSize);
    {
      const Tracer::Scope f(tr, "ofdm.fft");
      for (std::size_t a = 0; a < nrx_; ++a) {
        for (std::size_t n = 0; n < n_ltf; ++n) {
          fft64.forward(
              std::span<const cf32>(ws.rx[a]).subspan(
                  fl.htltf_offset() + n * wifi::kHtLtfLen + ofdm::kCpLen, 64),
              ws.ltf_grids.row(a, n));
        }
      }
    }
    const chanest::LsChannelEstimator ls(nrx_, nsts);
    ls.estimate_into(ws.ltf_grids, est);
    if (cfg_.smoothing) {
      static const auto bins = occupied_ht_bins();
      ws.csd.resize(nsts);
      for (std::size_t s2 = 0; s2 < nsts; ++s2) {
        ws.csd[s2] = wifi::ht_csd_samples(s2, nsts);
      }
      chanest::smooth_frequency(est, bins, ws.csd);
    }
  }

  const mod::Constellation& constellation = mod::constellation_for(mcs.modulation);
  const unsigned bps = constellation.bits_per_symbol();
  const auto& data_bins = ht_demod_.map().data_bins();
  const auto& pilot_bins = ht_demod_.map().pilot_bins();

  chanest::PilotPhaseTracker tracker(est);
  ws.pilot_evm.reset();

  std::optional<eq::LinearEqualizer> lin_eq;
  {
    const Tracer::Scope s(tr, "eq");
    if (!stbc) lin_eq.emplace(cfg_.equalizer);
    ws.h_at.resize(ofdm::kFftSize);
    for (const std::size_t b : data_bins) est.at_bin_into(b, ws.h_at[b]);
    if (lin_eq) {
      ws.coeffs.resize(ofdm::kFftSize);
      for (const std::size_t b : data_bins) {
        lin_eq->prepare(ws.h_at[b], nv_bin, ws.coeffs[b]);
      }
      for (std::size_t s2 = 0; s2 < mcs.nss; ++s2) {
        double acc = 0.0;
        std::size_t cnt = 0;
        for (const std::size_t b : data_bins) {
          const float nv = ws.coeffs[b].noise_vars[s2];
          if (nv > 0.0F && nv < eq::kErasedNoiseVar) {
            acc += 1.0 / static_cast<double>(nv);
            ++cnt;
          }
        }
        pkt.stream_sinr_db[s2] =
            cnt > 0 ? 10.0 * std::log10(acc / static_cast<double>(cnt)) : 0.0;
      }
      pkt.n_stream_sinr = mcs.nss;
    }
  }

  const bool batched = !stbc;
  if (!batched) {
    ws.stream_llrs.resize(mcs.nss);
    for (auto& v : ws.stream_llrs) {
      v.clear();
      v.reserve(fl.n_data_symbols * wifi::kHtDataCarriers * bps);
    }
    ws.data_grid.resize(nrx_, ofdm::kFftSize);
    ws.y.resize(nrx_);
  }
  ws.llr_buf.resize(mcs.nss * bps);
  ws.rx_pilots.resize(nrx_);

  // Pilot CPE tracking + EVM for data symbol n whose pilots are staged in
  // ws.rx_pilots; returns the derotation phasor.
  const auto track_symbol = [&](std::size_t n) {
    cf32 derotate{1.0F, 0.0F};
    if (cfg_.phase_tracking) {
      const double raw = tracker.estimate_cpe(ws.rx_pilots, n);
      const double theta = tracker.track(raw);
      derotate = dsp::phasor(static_cast<float>(-theta));
    }
    for (std::size_t a = 0; a < nrx_; ++a) {
      for (std::size_t p = 0; p < 4; ++p) {
        dsp::cf64 expected{0.0, 0.0};
        for (std::size_t s2 = 0; s2 < nsts; ++s2) {
          const auto pv = ofdm::ht_data_pilots(nsts, s2, n);
          expected += dsp::cf64(est.h[a][s2][pilot_bins[p]]) * dsp::cf64(pv[p]);
        }
        ws.pilot_evm.add(pilot_bins[p], ws.rx_pilots[a][p] * derotate,
                         cf32(static_cast<float>(expected.real()),
                              static_cast<float>(expected.imag())));
      }
    }
    return derotate;
  };

  const wifi::StreamParser parser(mcs.bits_per_subcarrier(), mcs.nss);
  const std::size_t n_info_bits = fl.n_data_symbols * mcs.data_bits_per_symbol();
  const bool bcc_stream = batched && fec_type == core::FecType::kBcc;
  std::size_t llrs_fed = 0;

  if (batched) {
    const std::size_t n_bins = data_bins.size();
    const std::size_t block = n_bins * bps;
    if (bcc_stream) {
      ws.depunct_stream.reset(mcs.rate);
      viterbi_.stream_begin(ws.viterbi_stream, ws.viterbi, n_info_bits);
    } else {
      ws.merged.clear();
      ws.merged.reserve(fl.n_data_symbols * block * mcs.nss);
    }
    ws.eq_out.resize(mcs.nss);
    ws.nv_out.resize(mcs.nss);
    ws.chunk_llrs.resize(mcs.nss);
    ws.chunk_deint.resize(mcs.nss);
    ws.merge_views.resize(mcs.nss);

    for (std::size_t n0 = 0; n0 < fl.n_data_symbols; n0 += core::kDecodeBatchSymbols) {
      const std::size_t chunk =
          std::min<std::size_t>(core::kDecodeBatchSymbols, fl.n_data_symbols - n0);
      {
        const Tracer::Scope s(tr, "ofdm.fft");
        ws.batch_grids.resize(nrx_, chunk, ofdm::kFftSize);
        const std::size_t off = fl.data_offset() + n0 * ofdm::kSymLen;
        for (std::size_t a = 0; a < nrx_; ++a) {
          ht_demod_.demodulate_grids_into(
              std::span<const cf32>(ws.rx[a]).subspan(off, chunk * ofdm::kSymLen),
              chunk,
              std::span<cf32>(ws.batch_grids.data() + a * chunk * ofdm::kFftSize,
                              chunk * ofdm::kFftSize));
        }
      }
      {
        const Tracer::Scope s(tr, "chanest.track");
        ws.derotate.resize(chunk);
        for (std::size_t j = 0; j < chunk; ++j) {
          for (std::size_t a = 0; a < nrx_; ++a) {
            for (std::size_t p = 0; p < 4; ++p) {
              ws.rx_pilots[a][p] = ws.batch_grids(a, j, pilot_bins[p]);
            }
          }
          ws.derotate[j] = track_symbol(n0 + j);
        }
      }
      {
        const Tracer::Scope s(tr, "eq");
        for (std::size_t s2 = 0; s2 < mcs.nss; ++s2) {
          ws.eq_out[s2].resize(chunk * n_bins);
          ws.nv_out[s2].resize(chunk * n_bins);
          ws.chunk_llrs[s2].resize(chunk * block);
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
          eq::LinearEqualizer::apply_run(ws.coeffs[bin], ws.y_batch, chunk,
                                         ws.eq_slab, ws.nv_slab);
          for (std::size_t j = 0; j < chunk; ++j) {
            for (std::size_t s2 = 0; s2 < mcs.nss; ++s2) {
              ws.eq_out[s2][j * n_bins + i] = ws.eq_slab[j * mcs.nss + s2];
              ws.nv_out[s2][j * n_bins + i] = ws.nv_slab[j * mcs.nss + s2];
            }
          }
        }
      }
      for (std::size_t s2 = 0; s2 < mcs.nss; ++s2) {
        {
          const Tracer::Scope s(tr, "mod.demap");
          constellation.demap_soft_run(ws.eq_out[s2], ws.nv_out[s2],
                                       ws.chunk_llrs[s2]);
        }
        const Tracer::Scope s(tr, "wifi.deint");
        const wifi::Interleaver& il =
            wifi::cached_interleaver(mcs.bits_per_subcarrier(), s2, mcs.nss);
        ws.chunk_deint[s2].resize(chunk * block);
        il.deinterleave_into(ws.chunk_llrs[s2], std::span<float>(ws.chunk_deint[s2]));
        ws.merge_views[s2] = ws.chunk_deint[s2];
      }
      {
        const Tracer::Scope s(tr, "wifi.deint");
        ws.chunk_merged.resize(chunk * block * mcs.nss);
        parser.merge_into(std::span<const std::span<const float>>(ws.merge_views),
                          std::span<float>(ws.chunk_merged));
      }
      const Tracer::Scope s(tr, "fec.viterbi");
      if (bcc_stream) {
        ws.depunct_stream.consume(ws.chunk_merged, ws.chunk_depunct);
        const std::size_t take =
            std::min(ws.chunk_depunct.size(), 2 * n_info_bits - llrs_fed);
        viterbi_.stream_consume(ws.viterbi_stream, ws.viterbi,
                                std::span<const float>(ws.chunk_depunct).first(take));
        llrs_fed += take;
      } else {
        ws.merged.insert(ws.merged.end(), ws.chunk_merged.begin(),
                         ws.chunk_merged.end());
      }
    }
  } else {
    // Alamouti pairs: FFT + pilot tracking per symbol, then the combiner and
    // the scalar demap per bin.
    ws.data_grid2.resize(nrx_, ofdm::kFftSize);
    ws.y2.resize(nrx_);
    ws.llrs_first.resize(data_bins.size() * bps);
    ws.llrs_second.resize(data_bins.size() * bps);
    const auto demod_data_symbol = [&](std::size_t n, dsp::SampleGrid& out) {
      const std::size_t off = fl.data_offset() + n * ofdm::kSymLen;
      {
        const Tracer::Scope s(tr, "ofdm.fft");
        for (std::size_t a = 0; a < nrx_; ++a) {
          fft64.forward(std::span<const cf32>(ws.rx[a]).subspan(off + ofdm::kCpLen, 64),
                        out.row(a));
        }
      }
      const Tracer::Scope s(tr, "chanest.track");
      for (std::size_t a = 0; a < nrx_; ++a) {
        for (std::size_t p = 0; p < 4; ++p) ws.rx_pilots[a][p] = out(a, pilot_bins[p]);
      }
      return track_symbol(n);
    };
    for (std::size_t n = 0; n + 1 < fl.n_data_symbols + 1; n += 2) {
      const cf32 derot1 = demod_data_symbol(n, ws.data_grid);
      const cf32 derot2 = demod_data_symbol(n + 1, ws.data_grid2);
      const Tracer::Scope s(tr, "eq");
      for (std::size_t i = 0; i < data_bins.size(); ++i) {
        const std::size_t bin = data_bins[i];
        for (std::size_t a = 0; a < nrx_; ++a) {
          ws.y[a] = ws.data_grid(a, bin) * derot1;
          ws.y2[a] = ws.data_grid2(a, bin) * derot2;
        }
        const auto dec = eq::alamouti_combine(ws.h_at[bin], ws.y, ws.y2, nv_bin);
        constellation.demap_soft(dec.d1, dec.noise_var,
                                 std::span<float>(ws.llrs_first).subspan(i * bps, bps));
        constellation.demap_soft(dec.d2, dec.noise_var,
                                 std::span<float>(ws.llrs_second).subspan(i * bps, bps));
      }
      ws.stream_llrs[0].insert(ws.stream_llrs[0].end(), ws.llrs_first.begin(),
                               ws.llrs_first.end());
      ws.stream_llrs[0].insert(ws.stream_llrs[0].end(), ws.llrs_second.begin(),
                               ws.llrs_second.end());
    }
  }

  {
    const Tracer::Scope s(tr, "chanest.track");
    ws.pilot_evm.estimate_into(pkt.pilot_snr);
    pkt.residual_cfo_norm = tracker.residual_cfo_norm();
  }

  if (!batched) {
    const Tracer::Scope s(tr, "wifi.deint");
    ws.deinterleaved.resize(mcs.nss);
    for (std::size_t s2 = 0; s2 < mcs.nss; ++s2) {
      const wifi::Interleaver& il =
          wifi::cached_interleaver(mcs.bits_per_subcarrier(), s2, mcs.nss);
      il.deinterleave_into(ws.stream_llrs[s2], ws.deinterleaved[s2]);
    }
    parser.merge_into(ws.deinterleaved, ws.merged);
  }

  {
    const Tracer::Scope s(tr, "fec.viterbi");
    if (fec_type == core::FecType::kLdpc) {
      static const fec::LdpcCode code;
      const std::size_t n_cw = core::ldpc_codeword_count(pkt.htsig.length);
      if (ws.merged.size() < n_cw * core::kLdpcN) {
        pkt.error = RxError::kTruncated;
        return true;
      }
      ws.scrambled.clear();
      ws.scrambled.reserve(n_cw * core::kLdpcK);
      for (std::size_t cw = 0; cw < n_cw; ++cw) {
        const auto word = code.decode(
            std::span<const float>(ws.merged).subspan(cw * core::kLdpcN, core::kLdpcN));
        ws.scrambled.insert(ws.scrambled.end(), word.begin(),
                            word.begin() + static_cast<long>(core::kLdpcK));
      }
    } else if (bcc_stream) {
      std::array<float, 128> zeros{};
      while (llrs_fed < 2 * n_info_bits) {
        const std::size_t take = std::min(zeros.size(), 2 * n_info_bits - llrs_fed);
        viterbi_.stream_consume(ws.viterbi_stream, ws.viterbi,
                                std::span<const float>(zeros).first(take));
        llrs_fed += take;
      }
      viterbi_.stream_finish(ws.viterbi_stream, ws.viterbi, false, ws.scrambled);
    } else {
      fec::depuncture_into(ws.merged, mcs.rate, ws.depunctured);
      ws.depunctured.resize(2 * n_info_bits, 0.0F);
      viterbi_.decode_soft_into(ws.depunctured, false, ws.scrambled, ws.viterbi);
    }
  }

  const Tracer::Scope s(tr, "wifi.fcs");
  const std::size_t psdu_bits = 8 * static_cast<std::size_t>(pkt.htsig.length);
  if (ws.scrambled.size() < core::kServiceBits + psdu_bits) {
    pkt.error = RxError::kTruncated;
    return true;
  }
  const std::uint32_t seed = recover_scrambler_seed(std::span(ws.scrambled).first(7));
  fec::scramble_in_place(ws.scrambled, seed);
  wifi::bits_to_bytes_into(
      std::span<const std::uint8_t>(ws.scrambled).subspan(core::kServiceBits, psdu_bits),
      pkt.psdu);
  pkt.fcs_ok = wifi::psdu_fcs_ok(pkt.psdu);
  pkt.error = !pkt.fcs_ok ? RxError::kFcsFail
              : pkt.lsig_ok ? RxError::kOk
                            : RxError::kLsigFail;
  return true;
}

}  // namespace perfbench
