#include "core/receiver.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <optional>
#include <span>
#include <stdexcept>

#include "channel/impairments.hpp"
#include "chanest/phase_tracker.hpp"
#include "core/rx_stages.hpp"
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
  rx::reset_snr(pkt.snr);
  rx::reset_snr(pkt.pilot_snr);
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

  // One oscillator: one phasor per sample for every antenna. The phase
  // after the first sig_end samples continues the derotation below.
  const std::size_t sig_end = probe.htstf_offset();
  const double cfo_phase =
      rx::copy_frame(capture, start, 0, sig_end, sync_res->cfo_norm, 0.0, ws);

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
  const float nv_bin = rx::lltf_noise_var(ws, pkt.snr);

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
  // The FEC family is announced in HT-SIG, so the receiver self-configures.
  const FecType fec_type = pkt.htsig.fec_coding ? FecType::kLdpc : FecType::kBcc;
  FrameLayout fl;
  fl.nss = stbc ? 2 : mcs.nss;  // space-time streams
  fl.n_data_symbols = data_symbol_count(mcs, pkt.htsig.length, cfg_.fec_enabled,
                                        stbc, fec_type);
  if (avail < fl.total_samples()) {  // truncated capture
    pkt.error = metrics::RxError::kTruncated;
    return true;
  }

  // Extend the aligned copy to the announced frame, continuing the
  // derotation from the phase the preamble copy ended on.
  rx::copy_frame(capture, start, sig_end, fl.total_samples(), sync_res->cfo_norm,
                 cfo_phase, ws);

  chanest::MimoChannelEstimate& est = pkt.channel;
  rx::estimate_channel(fl, cfg_.smoothing, ws, est);

  // ---- Data symbols. ----
  const mod::Constellation& constellation = mod::constellation_for(mcs.modulation);
  const unsigned bps = constellation.bits_per_symbol();
  const auto& data_bins = ht_demod_.map().data_bins();
  rx::SymbolPlane plane(ht_demod_, cfg_, mcs, fl, mcs.nss, est, nv_bin,
                        stbc ? rx::Detect::kNone : rx::Detect::kConfigured,
                        cfg_.decision_tracking);
  pkt.n_stream_sinr = plane.prepare(ws, pkt.stream_sinr_db);

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

  // Demodulate data symbol `n` into `out_grids` and return the pilot
  // tracker's derotation phasor for it.
  const auto demod_data_symbol = [&](std::size_t n, dsp::SampleGrid& out_grids) {
    const std::size_t off = fl.data_offset() + n * ofdm::kSymLen;
    for (std::size_t a = 0; a < nrx_; ++a) {
      fft64.forward(std::span<const cf32>(ws.rx[a]).subspan(off + ofdm::kCpLen, 64),
                    out_grids.row(a));
    }
    return plane.track_pilots(n, out_grids.data(), ofdm::kFftSize, ws);
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
    // ---- Batched symbol-plane decode over chunks of kDecodeBatchSymbols
    // OFDM symbols, then the stream merge. The parser group divides the
    // interleaver block, so chunk-wise merges concatenate to the
    // whole-payload result exactly. ----
    const std::size_t block = data_bins.size() * bps;  // coded bits/symbol/stream
    if (bcc_stream) {
      ws.depunct_stream.reset(mcs.rate);
      viterbi_.stream_begin(ws.viterbi_stream, ws.viterbi, n_info_bits);
    } else {
      ws.merged.clear();
      ws.merged.reserve(fl.n_data_symbols * block * mcs.nss);
    }
    ws.merge_views.resize(mcs.nss);  // spans: resizing never allocates once warm

    for (std::size_t n0 = 0; n0 < fl.n_data_symbols; n0 += kDecodeBatchSymbols) {
      const std::size_t chunk =
          std::min<std::size_t>(kDecodeBatchSymbols, fl.n_data_symbols - n0);
      plane.demod_chunk(n0, chunk, ws);
      for (std::size_t s = 0; s < mcs.nss; ++s) ws.merge_views[s] = ws.chunk_deint[s];
      ws.chunk_merged.resize(chunk * block * mcs.nss);
      parser.merge_into(std::span<const std::span<const float>>(ws.merge_views),
                        std::span<float>(ws.chunk_merged));

      // Stream the chunk into the FEC consumer: Viterbi ACS runs while
      // later chunks are still in flight.
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

        if (const eq::MlDetector* ml = plane.ml()) {
          ml->demap(ws.h_at[bin], ws.y, nv_bin, ws.llr_buf);
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
          if (plane.decision_tracking()) {
            plane.track_decisions(bin, ws.y,
                                  std::span<const cf32>(eq_syms).first(mcs.nss), ws);
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
  pkt.residual_cfo_norm = plane.residual_cfo_norm();

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
    // Each codeword decodes in place: its parity bits land where the next
    // codeword's information bits go, which overwrite them.
    ws.scrambled.resize(n_cw * kLdpcK + (kLdpcN - kLdpcK));
    for (std::size_t cw = 0; cw < n_cw; ++cw) {
      code.decode_into(std::span<const float>(ws.merged).subspan(cw * kLdpcN, kLdpcN),
                       std::span(ws.scrambled).subspan(cw * kLdpcK, kLdpcN), ws.ldpc);
    }
    ws.scrambled.resize(n_cw * kLdpcK);
  } else if (bcc_stream) {
    // Pad the trellis with zero-LLR erasures up to the 2 * n_info budget
    // (the one-shot path's resize does the same), then trace back.
    std::array<float, 128> zeros{};
    while (llrs_fed < 2 * n_info_bits) {
      const std::size_t take = std::min(zeros.size(), 2 * n_info_bits - llrs_fed);
      viterbi_.stream_consume(ws.viterbi_stream, ws.viterbi,
                              std::span<const float>(zeros).first(take));
      llrs_fed += take;
    }
    viterbi_.stream_finish(ws.viterbi_stream, ws.viterbi,
                           /*terminated=*/false, ws.scrambled);
  } else {
    rx::decode_bcc(viterbi_, ws.merged, mcs.rate, n_info_bits, cfg_.fec_enabled, ws);
  }

  const auto fcs = rx::descramble_psdu(pkt.htsig.length, ws, pkt.psdu);
  if (!fcs) {
    pkt.error = metrics::RxError::kTruncated;
    return true;
  }
  pkt.fcs_ok = *fcs;
  // A frame delivered past a failed L-SIG still reports the anomaly; a
  // failed FCS is the terminal data-stage classification either way.
  pkt.error = !pkt.fcs_ok ? metrics::RxError::kFcsFail
              : pkt.lsig_ok ? metrics::RxError::kOk
                            : metrics::RxError::kLsigFail;
  return true;
}

namespace rx {

void reset_snr(chanest::SnrEstimate& s) {
  s.snr_db = 0.0;
  s.signal_power = 0.0;
  s.noise_variance = 0.0;
  s.per_bin_db.clear();
  s.per_bin_valid.clear();
}

double copy_frame(std::span<const std::span<const cf32>> capture, std::size_t start,
                  std::size_t begin, std::size_t end, double cfo_norm, double phase,
                  RxWorkspace& ws) {
  const std::size_t nrx = capture.size();
  ws.rx.resize(nrx);
  std::array<std::span<cf32>, 4> derot{};  // nrx <= 4
  for (std::size_t a = 0; a < nrx; ++a) {
    const auto src = capture[a].subspan(start + begin, end - begin);
    ws.rx[a].resize(begin);
    ws.rx[a].insert(ws.rx[a].end(), src.begin(), src.end());
    derot[a] = std::span<cf32>(ws.rx[a]).subspan(begin);
  }
  return channel::apply_cfo(std::span<const std::span<cf32>>(derot.data(), nrx),
                            -cfo_norm, phase);
}

float lltf_noise_var(RxWorkspace& ws, chanest::SnrEstimate& snr) {
  const std::size_t lltf_payload = FrameLayout{}.lltf_offset() + 32;
  ws.spans.clear();
  for (const auto& a : ws.rx) {
    ws.spans.emplace_back(std::span<const cf32>(a).subspan(lltf_payload, 128));
  }
  chanest::snr_from_lltf_into(ws.spans, snr);
  return static_cast<float>(64.0 * std::max(snr.noise_variance, 1e-12));
}

void estimate_channel(const FrameLayout& fl, bool smooth, RxWorkspace& ws,
                      chanest::MimoChannelEstimate& est) {
  const dsp::FftPlan& fft64 = ws.fft_cache.plan(ofdm::kFftSize);
  const std::size_t nrx = ws.rx.size();
  const std::size_t n_ltf = fl.n_ht_ltfs();
  ws.ltf_grids.resize(nrx, n_ltf, ofdm::kFftSize);
  for (std::size_t a = 0; a < nrx; ++a) {
    for (std::size_t n = 0; n < n_ltf; ++n) {
      fft64.forward(std::span<const cf32>(ws.rx[a]).subspan(
                        fl.htltf_offset() + n * wifi::kHtLtfLen + ofdm::kCpLen, 64),
                    ws.ltf_grids.row(a, n));
    }
  }
  chanest::LsChannelEstimator(nrx, fl.nss).estimate_into(ws.ltf_grids, est);
  if (!smooth) return;
  static const auto bins = occupied_ht_bins();
  ws.csd.resize(fl.nss);
  for (std::size_t s = 0; s < fl.nss; ++s) ws.csd[s] = wifi::ht_csd_samples(s, fl.nss);
  chanest::smooth_frequency(est, bins, ws.csd);
}

SymbolPlane::SymbolPlane(const ofdm::SymbolDemodulator& demod, const PhyConfig& cfg,
                         const wifi::McsInfo& mcs, const FrameLayout& fl,
                         std::size_t nss, const chanest::MimoChannelEstimate& est,
                         float nv_bin, Detect detect, bool decision_tracking)
    : demod_(demod),
      data_bins_(demod.map().data_bins()),
      pilot_bins_(demod.map().pilot_bins()),
      fl_(fl),
      est_(est),
      constellation_(mod::constellation_for(mcs.modulation)),
      bps_(constellation_.bits_per_symbol()),
      nss_(nss),
      nv_bin_(nv_bin),
      phase_tracking_(cfg.phase_tracking),
      dd_mu_(cfg.decision_tracking_mu),
      tracker_(est) {
  const bool ml = cfg.equalizer == eq::EqualizerType::kMaxLikelihood;
  if (detect == Detect::kConfigured && ml && nss <= 2) {
    ml_.emplace(constellation_, nss);
  } else if (detect != Detect::kNone) {
    lin_eq_.emplace(ml ? eq::EqualizerType::kMmse : cfg.equalizer);
  }
  dd_ = decision_tracking && lin_eq_.has_value();
}

std::size_t SymbolPlane::prepare(RxWorkspace& ws, std::span<double> sinr_db) const {
  ws.pilot_evm.reset();
  ws.rx_pilots.resize(ws.rx.size());
  ws.llr_buf.resize(nss_ * bps_);
  ws.sliced.resize(nss_);
  // The channel is constant across symbols unless decision tracking
  // rewrites a bin, which track_decisions re-prepares right after the
  // update (bit-identical to equalizing with the updated matrix).
  ws.h_at.resize(ofdm::kFftSize);
  for (const std::size_t b : data_bins_) est_.at_bin_into(b, ws.h_at[b]);
  if (!lin_eq_) return 0;
  ws.coeffs.resize(ofdm::kFftSize);
  for (const std::size_t b : data_bins_) {
    lin_eq_->prepare(ws.h_at[b], nv_bin_, ws.coeffs[b]);
  }
  // Per-stream post-eq SINR from the prepared CSI, before any
  // decision-tracking updates: the link-adaptation observable.
  for (std::size_t s = 0; s < nss_; ++s) {
    double acc = 0.0;
    std::size_t cnt = 0;
    for (const std::size_t b : data_bins_) {
      const float nv = ws.coeffs[b].noise_vars[s];
      if (nv > 0.0F && nv < eq::kErasedNoiseVar) {
        acc += 1.0 / static_cast<double>(nv);
        ++cnt;
      }
    }
    sinr_db[s] = cnt > 0 ? 10.0 * std::log10(acc / static_cast<double>(cnt)) : 0.0;
  }
  return nss_;
}

cf32 SymbolPlane::track_pilots(std::size_t n, const cf32* grid, std::size_t rx_stride,
                               RxWorkspace& ws) {
  const std::size_t nrx = ws.rx.size();
  for (std::size_t a = 0; a < nrx; ++a) {
    for (std::size_t p = 0; p < 4; ++p) {
      ws.rx_pilots[a][p] = grid[a * rx_stride + pilot_bins_[p]];
    }
  }
  cf32 derotate{1.0F, 0.0F};
  if (phase_tracking_) {
    const double raw = tracker_.estimate_cpe(ws.rx_pilots, n);
    const double theta = tracker_.track(raw);
    derotate = dsp::phasor(static_cast<float>(-theta));
  }
  // Pilot EVM (after derotation) feeds the fine-grained SNR estimate.
  const std::size_t nsts = est_.nss;
  for (std::size_t a = 0; a < nrx; ++a) {
    for (std::size_t p = 0; p < 4; ++p) {
      dsp::cf64 expected{0.0, 0.0};
      for (std::size_t s = 0; s < nsts; ++s) {
        const auto pv = ofdm::ht_data_pilots(nsts, s, n);
        expected += dsp::cf64(est_.h[a][s][pilot_bins_[p]]) * dsp::cf64(pv[p]);
      }
      ws.pilot_evm.add(pilot_bins_[p], ws.rx_pilots[a][p] * derotate,
                       cf32(static_cast<float>(expected.real()),
                            static_cast<float>(expected.imag())));
    }
  }
  return derotate;
}

void SymbolPlane::demod_chunk(std::size_t n0, std::size_t chunk, RxWorkspace& ws) {
  // Stage-wise passes over the chunk. Per-(symbol, bin) operations are
  // independent, so the symbol-major -> bin-major reorder is bit-exact;
  // decision tracking's only cross-symbol dependency is per bin, which the
  // bin-major walk keeps in sequence.
  const std::size_t nrx = ws.rx.size();
  const std::size_t n_bins = data_bins_.size();
  const std::size_t block = n_bins * bps_;  // coded bits/symbol/stream
  grow_streams(ws.eq_out, nss_);
  grow_streams(ws.nv_out, nss_);
  grow_streams(ws.chunk_llrs, nss_);
  grow_streams(ws.chunk_deint, nss_);

  // One batched FFT pass per antenna over the chunk.
  const std::size_t grid_len = chunk * ofdm::kFftSize;
  ws.batch_grids.resize(nrx, chunk, ofdm::kFftSize);
  const std::size_t off = fl_.data_offset() + n0 * ofdm::kSymLen;
  for (std::size_t a = 0; a < nrx; ++a) {
    demod_.demodulate_grids_into(
        std::span<const cf32>(ws.rx[a]).subspan(off, chunk * ofdm::kSymLen), chunk,
        std::span<cf32>(ws.batch_grids.data() + a * grid_len, grid_len));
  }

  // Pilot tracking, sequential in symbol order.
  ws.derotate.resize(chunk);
  for (std::size_t j = 0; j < chunk; ++j) {
    ws.derotate[j] = track_pilots(n0 + j, ws.batch_grids.row(0, j).data(), grid_len, ws);
  }

  // Detect bin-major across the chunk, scattering the per-stream outputs
  // symbol-major so the demap input is already in stream-LLR order.
  for (std::size_t s = 0; s < nss_; ++s) {
    ws.eq_out[s].resize(chunk * n_bins);
    ws.nv_out[s].resize(chunk * n_bins);
    ws.chunk_llrs[s].resize(chunk * block);
  }
  ws.y_batch.resize(chunk * nrx);
  ws.eq_slab.resize(chunk * nss_);
  ws.nv_slab.resize(chunk * nss_);
  std::array<cf32, eq::CMatrix::kMaxDim> eq_syms{};
  std::array<float, eq::CMatrix::kMaxDim> eq_nvars{};
  for (std::size_t i = 0; i < n_bins; ++i) {
    const std::size_t bin = data_bins_[i];
    for (std::size_t j = 0; j < chunk; ++j) {
      for (std::size_t a = 0; a < nrx; ++a) {
        ws.y_batch[j * nrx + a] = ws.batch_grids(a, j, bin) * ws.derotate[j];
      }
    }
    if (ml_) {
      for (std::size_t j = 0; j < chunk; ++j) {
        ml_->demap(ws.h_at[bin], std::span<const cf32>(ws.y_batch).subspan(j * nrx, nrx),
                   nv_bin_, ws.llr_buf);
        for (std::size_t s = 0; s < nss_; ++s) {
          for (unsigned b = 0; b < bps_; ++b) {
            ws.chunk_llrs[s][(j * n_bins + i) * bps_ + b] = ws.llr_buf[s * bps_ + b];
          }
        }
      }
    } else if (dd_) {
      // Per-bin LMS updates force a sequential walk over the chunk's
      // symbols for this bin: the per-symbol path's update sequence.
      for (std::size_t j = 0; j < chunk; ++j) {
        const auto y = std::span<const cf32>(ws.y_batch).subspan(j * nrx, nrx);
        eq::LinearEqualizer::apply(ws.coeffs[bin], y,
                                   std::span<cf32>(eq_syms).first(nss_),
                                   std::span<float>(eq_nvars).first(nss_));
        for (std::size_t s = 0; s < nss_; ++s) {
          ws.eq_out[s][j * n_bins + i] = eq_syms[s];
          ws.nv_out[s][j * n_bins + i] = eq_nvars[s];
        }
        track_decisions(bin, y, std::span<const cf32>(eq_syms).first(nss_), ws);
      }
    } else {
      eq::LinearEqualizer::apply_run(ws.coeffs[bin], ws.y_batch, chunk, ws.eq_slab,
                                     ws.nv_slab);
      for (std::size_t j = 0; j < chunk; ++j) {
        for (std::size_t s = 0; s < nss_; ++s) {
          ws.eq_out[s][j * n_bins + i] = ws.eq_slab[j * nss_ + s];
          ws.nv_out[s][j * n_bins + i] = ws.nv_slab[j * nss_ + s];
        }
      }
    }
  }

  // SIMD demap and deinterleave per stream. The interleaver block is one
  // symbol per stream, so chunk-wise passes concatenate exactly.
  for (std::size_t s = 0; s < nss_; ++s) {
    if (!ml_) {
      constellation_.demap_soft_run(ws.eq_out[s], ws.nv_out[s], ws.chunk_llrs[s]);
    }
    ws.chunk_deint[s].resize(chunk * block);
    wifi::cached_interleaver(bps_, s, nss_)
        .deinterleave_into(ws.chunk_llrs[s], std::span<float>(ws.chunk_deint[s]));
  }
}

void SymbolPlane::track_decisions(std::size_t bin, std::span<const cf32> y_obs,
                                  std::span<const cf32> eq_symbols,
                                  RxWorkspace& ws) const {
  // Slice the equalized symbols, form the reconstruction error per antenna
  // and nudge H toward explaining the observation. Counters intra-packet
  // fading.
  auto& h = ws.h_at[bin];
  for (std::size_t s = 0; s < nss_; ++s) {
    ws.sliced[s] = dsp::cf64(
        constellation_.points()[constellation_.hard_decision(eq_symbols[s])]);
  }
  const double mu = static_cast<double>(dd_mu_) / static_cast<double>(nss_);
  for (std::size_t a = 0; a < y_obs.size(); ++a) {
    dsp::cf64 pred{0.0, 0.0};
    for (std::size_t s = 0; s < nss_; ++s) pred += h(a, s) * ws.sliced[s];
    const dsp::cf64 err = dsp::cf64(y_obs[a]) - pred;
    for (std::size_t s = 0; s < nss_; ++s) {
      // Unit-energy constellations: |x|^2 ~ 1, so no normalizer needed.
      h(a, s) += mu * err * std::conj(ws.sliced[s]);
    }
  }
  lin_eq_->prepare(h, nv_bin_, ws.coeffs[bin]);
}

void decode_bcc(const fec::ViterbiDecoder& viterbi, std::span<const float> llrs,
                fec::CodeRate rate, std::size_t n_info_bits, bool fec_enabled,
                RxWorkspace& ws) {
  if (!fec_enabled) {
    ws.scrambled.resize(llrs.size());
    for (std::size_t i = 0; i < llrs.size(); ++i) {
      ws.scrambled[i] = (llrs[i] < 0.0F) ? 1 : 0;
    }
    return;
  }
  fec::depuncture_into(llrs, rate, ws.depunctured);
  ws.depunctured.resize(2 * n_info_bits, 0.0F);
  viterbi.decode_soft_into(ws.depunctured, /*terminated=*/false, ws.scrambled,
                           ws.viterbi);
}

std::optional<bool> descramble_psdu(std::size_t psdu_bytes, RxWorkspace& ws,
                                    std::vector<std::uint8_t>& psdu) {
  const std::size_t psdu_bits = 8 * psdu_bytes;
  if (ws.scrambled.size() < kServiceBits + psdu_bits) return std::nullopt;
  const std::uint32_t seed =
      fec::recover_scrambler_seed(std::span(ws.scrambled).first(7));
  fec::scramble_in_place(ws.scrambled, seed);
  wifi::bits_to_bytes_into(
      std::span<const std::uint8_t>(ws.scrambled).subspan(kServiceBits, psdu_bits),
      psdu);
  return wifi::psdu_fcs_ok(psdu);
}

}  // namespace rx

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
