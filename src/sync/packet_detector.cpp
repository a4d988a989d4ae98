#include "sync/packet_detector.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "dsp/correlator.hpp"

namespace mimonet::sync {

namespace {

// Decimated positions per chunk in the streaming coarse pass (the full-rate
// chunk is PacketDetector::kFullChunk). Chunking bounds the per-call
// scratch to O(chunk) regardless of span length.
constexpr std::size_t kCoarseChunk = 512;

// Coarse trigger = threshold * kCoarseThresholdScale. Loose on purpose: a
// coarse miss is the only way two-pass can diverge from exhaustive, while a
// coarse false alarm just costs a bounded full-rate region.
constexpr float kCoarseThresholdScale = 0.6F;
// Consecutive decimated positions the coarse metric must stay above the
// coarse trigger before a region is opened.
constexpr std::size_t kCoarseMinRun = 3;

/// Antenna-combined sliding statistic at one position: coherent correlation
/// sum and the correctly normalized metric
/// |sum_a c_a|^2 / ((sum_a P_lead,a) * (sum_a P_lag,a)).
/// The denominator must sum the lead and lag window powers separately —
/// summing the per-antenna geometric means sqrt(P_lead*P_lag) and squaring
/// (the old combine) gives a smaller denominator whenever antennas see
/// different lead/lag ratios (AM-GM), inflating the metric past what
/// Cauchy-Schwarz allows and firing on noise under asymmetric gains.
struct Combined {
  dsp::cf64 corr{0.0, 0.0};
  float metric = 0.0F;
};

Combined combine(const std::vector<dsp::AutocorrResult>& per_ant,
                 std::size_t i) {
  Combined c;
  double pow_lead = 0.0;
  double pow_lag = 0.0;
  for (const auto& ant : per_ant) {
    c.corr += dsp::cf64(ant.corr[i]);
    pow_lead += static_cast<double>(ant.pow_lead[i]);
    pow_lag += static_cast<double>(ant.pow_lag[i]);
  }
  const double pp = pow_lead * pow_lag;
  c.metric = (pp > 0.0) ? static_cast<float>(dsp::mag_sqr(c.corr) / pp) : 0.0F;
  return c;
}

/// Threshold-run tracker shared by every scan strategy, so the combine
/// arithmetic and the run bookkeeping exist exactly once. Deferred-report
/// form: a qualifying plateau is reported when it ends — at the first
/// below-threshold position, or at end of data via flush(), which is what
/// makes a plateau reaching min_plateau on the very last position still
/// report. Positions must be pushed consecutively.
class PlateauScanner {
 public:
  PlateauScanner(float threshold, std::size_t min_plateau, std::size_t lag)
      : threshold_(threshold), min_plateau_(min_plateau),
        lag_(static_cast<double>(lag)) {}

  [[nodiscard]] bool in_run() const noexcept { return run_ > 0; }

  std::optional<Detection> push(std::size_t pos, const Combined& c) {
    if (c.metric >= threshold_) {
      if (run_ == 0) run_start_ = pos;
      ++run_;
      if (c.metric > peak_) {
        peak_ = c.metric;
        peak_corr_ = c.corr;
      }
      return std::nullopt;
    }
    return end_run();
  }

  /// End of data: report the plateau still in progress, if it qualifies.
  std::optional<Detection> flush() { return end_run(); }

 private:
  std::optional<Detection> end_run() {
    std::optional<Detection> det;
    if (run_ >= min_plateau_) {
      Detection d;
      d.start = run_start_;
      d.peak_metric = peak_;
      // angle(corr) = -2*pi*cfo*lag  =>  cfo = -angle/(2*pi*lag).
      d.cfo_norm = -std::arg(peak_corr_) / (dsp::two_pi_d * lag_);
      det = d;
    }
    run_ = 0;
    peak_ = 0.0F;
    peak_corr_ = dsp::cf64{0.0, 0.0};
    return det;
  }

  float threshold_;
  std::size_t min_plateau_;
  double lag_;
  std::size_t run_ = 0;
  std::size_t run_start_ = 0;
  float peak_ = 0.0F;
  dsp::cf64 peak_corr_{0.0, 0.0};
};

void check_spans(std::span<const std::span<const cf32>> rx) {
  if (rx.empty()) throw std::invalid_argument("detect_mimo: no antennas");
  const std::size_t len = rx[0].size();
  for (const auto& a : rx) {
    if (a.size() != len) throw std::invalid_argument("detect_mimo: ragged spans");
  }
}

}  // namespace

PacketDetector::PacketDetector(DetectorConfig cfg, ScanMode scan)
    : cfg_(cfg), scan_(scan) {
  if (cfg.lag == 0 || cfg.window == 0 || cfg.min_plateau == 0) {
    throw std::invalid_argument("PacketDetector: zero dimension");
  }
  if (cfg.threshold <= 0.0F || cfg.threshold >= 1.0F) {
    throw std::invalid_argument("PacketDetector: threshold must be in (0, 1)");
  }
  if (scan.decimation == 0) {
    throw std::invalid_argument("PacketDetector: zero scan dimension");
  }
  if (cfg.lag % scan.decimation != 0) {
    throw std::invalid_argument(
        "PacketDetector: decimation must divide the correlation lag");
  }
}

std::size_t PacketDetector::coarse_window() const noexcept {
  const std::size_t d = scan_.decimation;
  const std::size_t rounded = ((cfg_.window + d - 1) / d) * d;
  return std::max(rounded, 12 * d);
}

std::optional<Detection> PacketDetector::detect(std::span<const cf32> rx) const {
  const std::span<const cf32> one[] = {rx};
  return detect_mimo(one);
}

std::optional<Detection> PacketDetector::detect_mimo(
    std::span<const std::span<const cf32>> rx_antennas) const {
  DetectScratch scratch;
  return detect_mimo(rx_antennas, scratch);
}

std::optional<Detection> PacketDetector::detect_mimo(
    std::span<const std::span<const cf32>> rx_antennas,
    DetectScratch& scratch) const {
  check_spans(rx_antennas);
  const std::size_t len = rx_antennas[0].size();
  if (len < cfg_.lag + cfg_.window) return std::nullopt;
  if (scan_.decimation > 1 && len >= cfg_.lag + coarse_window()) {
    return detect_two_pass(rx_antennas, scratch);
  }
  // Exhaustive mode, or a span too short for even one coarse position —
  // fall through to the reference scan so short-tail behavior matches.
  return detect_mimo(rx_antennas, scratch.full);
}

std::optional<Detection> PacketDetector::detect_mimo(
    std::span<const std::span<const cf32>> rx_antennas,
    std::vector<dsp::AutocorrResult>& scratch) const {
  check_spans(rx_antennas);
  const std::size_t len = rx_antennas[0].size();
  if (len < cfg_.lag + cfg_.window) return std::nullopt;

  // Per-antenna sliding sums, combined coherently (correlations add in
  // phase because all antennas see the same CFO-induced rotation), resumed
  // chunk by chunk until the first qualifying plateau.
  scratch.resize(rx_antennas.size());
  for (auto& ant : scratch) ant.sums = {};
  PlateauScanner scanner(cfg_.threshold, cfg_.min_plateau, cfg_.lag);
  for (std::size_t pos = 0;;) {
    std::size_t n_chunk = 0;
    for (std::size_t a = 0; a < rx_antennas.size(); ++a) {
      n_chunk = dsp::lag_autocorrelate_resume(rx_antennas[a], cfg_.lag,
                                              cfg_.window, kFullChunk, scratch[a]);
    }
    if (n_chunk == 0) break;
    for (std::size_t i = 0; i < n_chunk; ++i) {
      if (auto det = scanner.push(pos + i, combine(scratch, i))) return det;
    }
    pos += n_chunk;
  }
  return scanner.flush();
}

std::size_t PacketDetector::scan_coarse(
    std::span<const std::span<const cf32>> rx_antennas, DetectScratch& scratch,
    std::vector<CoarseRegion>& regions) const {
  check_spans(rx_antennas);
  const std::size_t len = rx_antennas[0].size();
  const std::size_t d = scan_.decimation;
  const std::size_t cw = coarse_window();
  if (len < cfg_.lag + cw) return 0;

  scratch.coarse.resize(rx_antennas.size());
  for (std::size_t a = 0; a < rx_antennas.size(); ++a) {
    dsp::lag_autocorrelate_strided_into(rx_antennas[a], cfg_.lag, cw, d,
                                        scratch.coarse[a]);
  }
  const std::size_t n_pos = scratch.coarse[0].metric.size();
  const float trigger = cfg_.threshold * kCoarseThresholdScale;

  std::size_t run = 0;
  std::size_t run_start = 0;
  for (std::size_t i = 0; i < n_pos; ++i) {
    const Combined c = combine(scratch.coarse, i);
    if (c.metric >= trigger) {
      if (run == 0) run_start = i;
      ++run;
    } else {
      if (run >= kCoarseMinRun) {
        regions.push_back({run_start * d, i * d});
      }
      run = 0;
    }
  }
  if (run >= kCoarseMinRun) regions.push_back({run_start * d, n_pos * d});
  return n_pos;
}

std::optional<Detection> PacketDetector::detect_two_pass(
    std::span<const std::span<const cf32>> rx_antennas,
    DetectScratch& scratch) const {
  const std::size_t len = rx_antennas[0].size();
  const std::size_t n_ant = rx_antennas.size();
  const std::size_t d = scan_.decimation;
  const std::size_t cw = coarse_window();
  const float trigger = cfg_.threshold * kCoarseThresholdScale;

  scratch.full.resize(n_ant);
  scratch.coarse.resize(n_ant);

  // Full-rate margins around a coarse hit at sample positions [cs, ce):
  // the plateau may start up to one coarse window + lag before the first
  // coarse trigger, and the full-rate run needs room to accumulate
  // min_plateau positions past the last one. Runs may only START below
  // hard_end but are followed to their natural end beyond it.
  const std::size_t back_margin = cw + cfg_.lag;
  const std::size_t fwd_margin = cfg_.window + cfg_.lag + cfg_.min_plateau;
  const std::size_t n_full_pos = len - cfg_.lag - cfg_.window + 1;

  // Full-rate sweep of the candidate region starting at `rb`; new runs are
  // accepted while they start before `hard_end`.
  const auto scan_region = [&](std::size_t rb,
                               std::size_t hard_end) -> std::optional<Detection> {
    PlateauScanner scanner(cfg_.threshold, cfg_.min_plateau, cfg_.lag);
    std::size_t pos = rb;
    while (pos < n_full_pos) {
      const std::size_t n_chunk = std::min(kFullChunk, n_full_pos - pos);
      const std::size_t sub_len = n_chunk - 1 + cfg_.lag + cfg_.window;
      for (std::size_t a = 0; a < n_ant; ++a) {
        dsp::lag_autocorrelate_into(rx_antennas[a].subspan(pos, sub_len),
                                    cfg_.lag, cfg_.window, scratch.full[a]);
      }
      for (std::size_t i = 0; i < n_chunk; ++i) {
        if (auto det = scanner.push(pos + i, combine(scratch.full, i))) {
          if (det->start < hard_end) return det;
          scanner = PlateauScanner(cfg_.threshold, cfg_.min_plateau, cfg_.lag);
        }
      }
      pos += n_chunk;
      // Past the hard end, keep going only to finish a plateau in progress.
      if (pos >= hard_end && !scanner.in_run()) return std::nullopt;
    }
    if (auto det = scanner.flush()) {
      if (det->start < hard_end) return det;
    }
    return std::nullopt;
  };

  // Streaming coarse pass: chunked so scratch stays O(chunk), stopping at
  // the first qualifying coarse run (the region either detects — done — or
  // the pass resumes past it, so total coarse work over a long scan stays
  // one decimated sweep of the span).
  std::size_t cpos = 0;  // next coarse position (sample units, multiple of d)
  std::size_t crun = 0;
  std::size_t cstart = 0;
  const std::size_t last_start = len - cfg_.lag - cw;  // last valid coarse pos
  while (cpos <= last_start) {
    const std::size_t want = std::min(kCoarseChunk, (last_start - cpos) / d + 1);
    const std::size_t sub_len =
        std::min(len - cpos, (want - 1) * d + cfg_.lag + cw);
    for (std::size_t a = 0; a < n_ant; ++a) {
      dsp::lag_autocorrelate_strided_into(rx_antennas[a].subspan(cpos, sub_len),
                                          cfg_.lag, cw, d, scratch.coarse[a]);
    }
    const std::size_t n_c = scratch.coarse[0].metric.size();
    std::size_t next_cpos = cpos + n_c * d;
    bool resumed = false;
    for (std::size_t i = 0; i < n_c; ++i) {
      const std::size_t p = cpos + i * d;
      const Combined c = combine(scratch.coarse, i);
      if (c.metric < trigger) {
        crun = 0;
        continue;
      }
      if (crun == 0) cstart = p;
      ++crun;
      if (crun < kCoarseMinRun) continue;

      const std::size_t rb = (cstart > back_margin) ? cstart - back_margin : 0;
      const std::size_t hard_end = p + d + fwd_margin;
      if (auto det = scan_region(rb, hard_end)) return det;

      // Region rejected: resume the coarse pass past it, aligned to the
      // decimation grid. hard_end > p guarantees progress.
      crun = 0;
      next_cpos = ((hard_end + d - 1) / d) * d;
      resumed = true;
      break;
    }
    cpos = next_cpos;
    if (!resumed && n_c == 0) break;  // defensive: no positions fit
  }
  return std::nullopt;
}

}  // namespace mimonet::sync
