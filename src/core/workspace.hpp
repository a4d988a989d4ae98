// Per-worker scratch arenas for the allocation-free sample plane.
//
// A TxWorkspace/RxWorkspace pair is owned by each Monte-Carlo worker (or any
// other caller that processes packets in a loop). Every buffer is resized,
// never reallocated once warm, so the steady-state transmit/receive path
// performs no heap allocation. Workspaces are NOT thread-safe: one workspace
// per thread.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "chanest/snr_estimator.hpp"
#include "core/harq_buffer.hpp"
#include "core/receiver.hpp"
#include "dsp/fft_cache.hpp"
#include "dsp/sample_grid.hpp"
#include "dsp/types.hpp"
#include "eq/equalizer.hpp"
#include "eq/matrix.hpp"
#include "fec/ldpc.hpp"
#include "fec/viterbi.hpp"
#include "sync/frame_sync.hpp"

namespace mimonet::core {

/// Transmit-side arena: staging buffers for the encode -> parse ->
/// interleave -> map -> modulate pipeline plus the per-chain output samples.
struct TxWorkspace {
  std::vector<std::uint8_t> bits;        ///< SERVICE + PSDU + tail, scrambled
  std::vector<std::uint8_t> psdu_bits;   ///< PSDU expanded to bits
  std::vector<std::uint8_t> coded;       ///< rate-1/2 encoder output
  std::vector<std::uint8_t> punctured;   ///< after puncturing
  std::vector<std::vector<std::uint8_t>> streams;  ///< per-stream coded bits
  std::vector<std::uint8_t> interleaved; ///< one stream, interleaved
  std::vector<dsp::cf32> symbols;        ///< mapped constellation points
  std::vector<dsp::cf32> time_scratch;   ///< IFFT staging

  /// Cache key for the SIG-field carriers below: they depend only on the
  /// PSDU length and the transmitter's (mcs, fec, stbc) configuration, all
  /// constant across a Monte-Carlo run, so they are built once per key.
  struct SigKey {
    std::size_t psdu_len = static_cast<std::size_t>(-1);
    int mcs = -1;
    bool ldpc = false;
    bool stbc = false;
    bool operator==(const SigKey&) const = default;
  };
  SigKey sig_key;
  std::vector<dsp::cf32> lsig_carriers;   ///< 48 L-SIG carriers
  std::vector<dsp::cf32> htsig_carriers;  ///< 96 HT-SIG carriers

  /// The built PPDU, one sample vector per TX chain. Valid after
  /// Transmitter::transmit_into returns.
  std::vector<std::vector<dsp::cf32>> chains;

  /// Cache key for the virtual-stream preamble fields below: the uplink
  /// "stream iss of n_sts" preamble tables depend only on (iss, n_sts),
  /// constant across a Monte-Carlo run, so they are built once per key and
  /// warm transmit_virtual_into calls stay allocation-free.
  struct VirtualKey {
    std::size_t iss = static_cast<std::size_t>(-1);
    std::size_t n_sts = 0;
    bool operator==(const VirtualKey&) const = default;
  };
  VirtualKey virtual_key;
  std::vector<dsp::cf32> v_lstf;
  std::vector<dsp::cf32> v_lltf;
  std::vector<dsp::cf32> v_htstf;
  std::vector<dsp::cf32> v_htltfs;
};

/// Multi-user downlink transmit arena: per-user single-stream workspaces for
/// the user PPDUs plus the precoded base-station chains. Owned per worker,
/// like TxWorkspace.
struct MuTxWorkspace {
  std::vector<TxWorkspace> per_user;
  /// The precoded PPDU, one sample vector per BS antenna. Valid after
  /// Transmitter::transmit_mu_into returns.
  std::vector<std::vector<dsp::cf32>> chains;
};

/// Receive-side arena: everything Receiver::receive needs between packets.
/// After Receiver::receive(capture, ws) returns true, `packet` holds the
/// decoded packet; its nested buffers (psdu, channel.h, snr.per_bin_*) are
/// reused across packets. When receive returned before channel estimation,
/// packet.channel.nrx == 0 marks the estimate as absent (the storage may
/// still hold the previous packet's values).
struct RxWorkspace {
  dsp::FftPlanCache fft_cache;           ///< size-keyed FFT plans
  sync::SyncScratch sync;                ///< frame-sync scratch

  /// Aligned, CFO-corrected frame: the preamble through HT-SIG, then
  /// extended to the HT-SIG-announced extent — never the capture beyond it.
  std::vector<std::vector<dsp::cf32>> rx;
  std::vector<std::span<const dsp::cf32>> spans;  ///< span staging
  /// Staging for the vector->span receive adapter and the stream scan loop.
  std::vector<std::span<const dsp::cf32>> capture_spans;

  dsp::IqTensor lltf_grids;              ///< [rx][rep][bin] L-LTF FFTs
  std::vector<std::vector<dsp::cf32>> h_legacy;  ///< [rx][bin]

  dsp::SampleGrid sig_grid;              ///< [rx][bin] one legacy symbol
  std::vector<dsp::cf32> mrc;            ///< MRC-combined SIG carriers
  std::vector<float> sig_axis_llrs;      ///< pre-deinterleave SIG LLRs
  std::vector<float> sig_llrs;           ///< one SIG symbol's LLRs
  std::vector<float> htsig_llrs;         ///< both HT-SIG symbols
  std::vector<std::uint8_t> sig_bits;    ///< Viterbi-decoded SIG bits
  fec::ViterbiDecoder::Scratch viterbi;  ///< survivor decision words

  dsp::IqTensor ltf_grids;               ///< [rx][ltf][bin] HT-LTF FFTs
  std::vector<int> csd;                  ///< per-stream CSD for smoothing

  std::vector<eq::CMatrix> h_at;         ///< per-bin channel matrices
  std::vector<eq::EqCoeffs> coeffs;      ///< per-bin prepared equalizer
  std::vector<std::vector<float>> stream_llrs;  ///< per-stream soft bits
  dsp::SampleGrid data_grid;             ///< [rx][bin] one data symbol
  dsp::SampleGrid data_grid2;            ///< second symbol of an STBC pair
  std::vector<dsp::cf32> y;              ///< per-antenna observation
  std::vector<dsp::cf32> y2;
  std::vector<float> llr_buf;
  std::vector<float> llrs_first;         ///< STBC pair staging
  std::vector<float> llrs_second;
  std::vector<std::array<dsp::cf32, 4>> rx_pilots;  ///< [rx][pilot]
  std::vector<dsp::cf64> sliced;         ///< decision-tracking slicer output
  chanest::EvmSnrEstimator pilot_evm;    ///< pilot-EVM accumulator

  std::vector<std::vector<float>> deinterleaved;  ///< per-stream LLRs
  std::vector<float> merged;             ///< stream-merged LLRs
  std::vector<float> depunctured;        ///< full rate-1/2 LLR stream
  std::vector<std::uint8_t> scrambled;   ///< decoded, still-scrambled bits
  fec::LdpcCode::Scratch ldpc;           ///< LDPC decoder messages

  // ---- Batched symbol-plane decode slabs (chunks of kDecodeBatchSymbols
  // OFDM symbols move through the stage-wise pipeline together; every slab
  // is resized per chunk with capacity kept, so the steady state stays
  // allocation-free). ----
  dsp::IqTensor batch_grids;             ///< [rx][sym][bin] chunk FFT outputs
  std::vector<dsp::cf32> derotate;       ///< per-symbol CPE derotation phasor
  std::vector<dsp::cf32> y_batch;        ///< [sym][rx] one bin across a chunk
  std::vector<dsp::cf32> eq_slab;        ///< [sym][ss] apply_run staging
  std::vector<float> nv_slab;            ///< [sym][ss] apply_run staging
  std::vector<std::vector<dsp::cf32>> eq_out;  ///< per-stream [sym*52+bin_i]
  std::vector<std::vector<float>> nv_out;      ///< per-stream CSI, same shape
  std::vector<std::vector<float>> chunk_llrs;  ///< per-stream demapped chunk
  std::vector<std::vector<float>> chunk_deint; ///< per-stream deinterleaved
  std::vector<std::span<const float>> merge_views;  ///< span staging for merge
  std::vector<float> chunk_merged;       ///< stream-merged chunk LLRs
  std::vector<float> chunk_depunct;      ///< depunctured chunk LLRs
  fec::StreamingDepuncturer depunct_stream;      ///< mask phase across chunks
  fec::ViterbiDecoder::StreamState viterbi_stream;  ///< live path metrics

  // ---- HARQ soft-combining plane (DESIGN.md "The soft-combining plane"):
  // retained per-frame combined LLR streams keyed by ARQ seq number, plus
  // the staging vector a combining receive() exports into. Both keep their
  // capacity across packets, so steady-state HARQ decodes allocate
  // nothing. ----
  HarqBuffer harq;                       ///< per-frame retained soft state
  std::vector<float> harq_combined;      ///< combined-LLR export staging

  RxPacket packet;                       ///< the result of the last receive
};

}  // namespace mimonet::core
