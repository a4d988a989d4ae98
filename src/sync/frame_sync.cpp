#include "sync/frame_sync.hpp"

#include <algorithm>
#include <stdexcept>

#include "channel/impairments.hpp"
#include "wifi/preamble.hpp"

namespace mimonet::sync {

namespace {
// Field offsets within the packet (samples from L-STF start).
constexpr std::size_t kLltfOffset = wifi::kLstfLen;                   // 160
constexpr std::size_t kLsigOffset = kLltfOffset + wifi::kLltfLen;     // 320
}  // namespace

FrameSynchronizer::FrameSynchronizer(FrameSyncConfig cfg)
    : cfg_(cfg), detector_(cfg.detector, cfg.scan) {
  if (cfg.vdb_slack >= 40) {
    throw std::invalid_argument(
        "FrameSynchronizer: vdb_slack must be < 40 (mod-80 timing ambiguity)");
  }
}

std::optional<FrameSyncResult> FrameSynchronizer::synchronize(
    const std::vector<std::vector<cf32>>& rx) const {
  SyncScratch scratch;
  return synchronize(rx, scratch);
}

std::optional<FrameSyncResult> FrameSynchronizer::synchronize(
    const std::vector<std::vector<cf32>>& rx, SyncScratch& scratch) const {
  scratch.capture_spans.assign(rx.begin(), rx.end());
  return synchronize(scratch.capture_spans, scratch);
}

std::optional<FrameSyncResult> FrameSynchronizer::synchronize(
    std::span<const std::span<const cf32>> rx, SyncScratch& scratch) const {
  if (rx.empty()) throw std::invalid_argument("synchronize: no antennas");
  const std::size_t len = rx[0].size();
  for (const auto& a : rx) {
    if (a.size() != len) throw std::invalid_argument("synchronize: ragged captures");
  }
  scratch.rejected_candidate.reset();
  scratch.rejected_truncated = false;
  scratch.rejected_start_deficit = 0;

  const auto det = detector_.detect_mimo(rx, scratch.detect);
  if (!det) return std::nullopt;

  // Work on a coarse-CFO-corrected copy of the region from the detection
  // point through the SIG fields (plus slack).
  const std::size_t region_len =
      kLsigOffset + 3 * 80 + cfg_.vdb_slack + 80 + 64;  // through HT-SIG2 + margin
  if (det->start + region_len > len) {
    scratch.rejected_candidate = det->start;
    scratch.rejected_truncated = true;
    return std::nullopt;
  }

  auto& corrected = scratch.corrected;
  corrected.resize(rx.size());
  for (std::size_t a = 0; a < rx.size(); ++a) {
    corrected[a].assign(rx[a].begin() + static_cast<std::ptrdiff_t>(det->start),
                        rx[a].begin() + static_cast<std::ptrdiff_t>(det->start + region_len));
  }
  // One oscillator: one phasor per sample for every antenna.
  scratch.cfo_views.assign(corrected.begin(), corrected.end());
  channel::apply_cfo(scratch.cfo_views, -det->cfo_norm);
  auto& cspans = scratch.spans;
  cspans.assign(corrected.begin(), corrected.end());

  FrameSyncResult res;
  res.coarse_cfo_norm = det->cfo_norm;
  res.detect_metric = det->peak_metric;

  if (cfg_.mode == TimingMode::kLtfCrossCorr) {
    const auto fine = fine_.locate(cspans, scratch.fine);
    if (!fine) {
      scratch.rejected_candidate = det->start;  // plateau without an L-LTF
      return std::nullopt;
    }
    if (det->start + fine->lltf_start < kLltfOffset) {
      scratch.rejected_candidate = det->start;
      scratch.rejected_start_deficit =
          kLltfOffset - (det->start + fine->lltf_start);
      return std::nullopt;
    }
    res.packet_start = det->start + fine->lltf_start - kLltfOffset;
    res.cfo_norm = det->cfo_norm + fine->cfo_norm;
    return res;
  }

  // Van de Beek over the three consecutive 80-sample SIG symbols
  // (L-SIG, HT-SIG1, HT-SIG2). The coarse detector places `det->start`
  // near the true L-STF start, so L-SIG is expected near kLsigOffset
  // within the corrected region; search +/- vdb_slack around it.
  VdbConfig vcfg;
  vcfg.n_symbols = 3;
  vcfg.rho = cfg_.vdb_rho;
  const VanDeBeekEstimator vdb(vcfg);

  const std::size_t search_from =
      (kLsigOffset > cfg_.vdb_slack) ? kLsigOffset - cfg_.vdb_slack : 0;
  const std::size_t span_len = 2 * cfg_.vdb_slack + vdb.min_span();
  if (search_from + span_len > region_len) {
    scratch.rejected_candidate = det->start;
    return std::nullopt;
  }

  cspans.clear();
  for (const auto& c : corrected) {
    cspans.emplace_back(std::span<const cf32>(c).subspan(search_from, span_len));
  }
  const auto est = vdb.estimate_mimo(cspans);

  const std::size_t lsig_pos = det->start + search_from + est.timing;
  if (lsig_pos < kLsigOffset) {
    scratch.rejected_candidate = det->start;
    return std::nullopt;
  }
  res.packet_start = lsig_pos - kLsigOffset;
  res.cfo_norm = det->cfo_norm + est.cfo_norm;
  return res;
}

}  // namespace mimonet::sync
