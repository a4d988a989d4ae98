// Synchronization: Van de Beek (SISO + MIMO), STF packet detection, fine
// timing, and the composed frame synchronizer.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <random>
#include <string>

#include "channel/impairments.hpp"
#include "channel/mimo_channel.hpp"
#include "core/transmitter.hpp"
#include "dsp/rng.hpp"
#include "dsp/vector_ops.hpp"
#include "ofdm/symbol.hpp"
#include "sync/fine_sync.hpp"
#include "sync/frame_sync.hpp"
#include "sync/packet_detector.hpp"
#include "sync/van_de_beek.hpp"
#include "wifi/preamble.hpp"

namespace {

using namespace mimonet;
using dsp::cf32;

// A run of `n_symbols` random OFDM symbols (with CP), starting at `offset`
// noise-only samples, at the given SNR; returns (signal, noise_var).
std::vector<cf32> ofdm_burst(std::size_t n_symbols, std::size_t offset,
                             double snr_db, double cfo_norm, unsigned seed) {
  const ofdm::SymbolModulator mod(ofdm::CarrierPlan::kHt);
  std::mt19937 rng(seed);
  std::uniform_int_distribution<int> coin(0, 1);
  std::vector<cf32> burst;
  const float gain = wifi::tone_gain(56);
  for (std::size_t s = 0; s < n_symbols; ++s) {
    std::vector<cf32> data(52);
    for (auto& v : data) {
      v = cf32(coin(rng) != 0 ? 1.0F : -1.0F, 0.0F);
    }
    const std::array<cf32, 4> pilots{cf32{1, 0}, cf32{1, 0}, cf32{1, 0},
                                     cf32{-1, 0}};
    const std::size_t base = burst.size();
    mod.modulate(data, pilots, burst);
    for (std::size_t i = base; i < burst.size(); ++i) burst[i] *= gain;
  }
  if (cfo_norm != 0.0) channel::apply_cfo(burst, cfo_norm);
  const double nv = dsp::from_db(-snr_db);
  auto out = channel::pad_with_noise(burst, offset, 100, nv, seed + 1);
  dsp::ComplexGaussian noise(seed + 2, nv);
  noise.add_to(std::span<cf32>(out).subspan(offset, burst.size()));
  return out;
}

TEST(VanDeBeek, FindsSymbolTimingCleanly) {
  const auto rx = ofdm_burst(4, 50, 30.0, 0.0, 1);
  sync::VdbConfig cfg;
  cfg.n_symbols = 3;
  const sync::VanDeBeekEstimator vdb(cfg);
  const auto est = vdb.estimate(std::span<const cf32>(rx).first(50 + 300));
  // Peak should be at the first CP start (offset 50), mod 80 ambiguity aside.
  EXPECT_NEAR(static_cast<double>(est.timing), 50.0, 2.0);
}

TEST(VanDeBeek, EstimatesFractionalCfo) {
  const double cfo = 0.5 / 64.0 * 0.6;  // 60% of the unambiguous range
  const auto rx = ofdm_burst(6, 20, 35.0, cfo, 2);
  sync::VdbConfig cfg;
  cfg.n_symbols = 4;
  const sync::VanDeBeekEstimator vdb(cfg);
  const auto est = vdb.estimate(std::span<const cf32>(rx).first(20 + 60 + vdb.min_span()));
  EXPECT_NEAR(est.cfo_norm, cfo, 5e-4);
}

TEST(VanDeBeek, MimoCombiningReducesTimingVariance) {
  // At low SNR, combining two antennas should reduce timing error variance.
  sync::VdbConfig cfg;
  cfg.n_symbols = 2;
  const sync::VanDeBeekEstimator vdb(cfg);
  constexpr std::size_t kOffset = 40;
  constexpr int kTrials = 60;

  double var_siso = 0.0;
  double var_mimo = 0.0;
  for (int t = 0; t < kTrials; ++t) {
    const auto a = ofdm_burst(3, kOffset, 2.0, 0.0, 100 + 3 * t);
    auto b = ofdm_burst(3, kOffset, 2.0, 0.0, 100 + 3 * t);  // same symbols
    // Decorrelate antenna b's noise (different pad seed via re-noise).
    dsp::ComplexGaussian extra(7000 + t, dsp::from_db(-2.0));
    // (b already has noise; adding more makes b worse but independent-ish.)
    const auto ea = vdb.estimate(a);
    const std::span<const cf32> both[] = {std::span<const cf32>(a),
                                          std::span<const cf32>(b)};
    const auto eb = vdb.estimate_mimo(both);
    const double da = static_cast<double>(ea.timing) - kOffset;
    const double db = static_cast<double>(eb.timing) - kOffset;
    var_siso += da * da;
    var_mimo += db * db;
  }
  EXPECT_LE(var_mimo, var_siso + 1e-9);
}

TEST(VanDeBeek, Validation) {
  EXPECT_THROW(sync::VanDeBeekEstimator({.fft_len = 0}), std::invalid_argument);
  EXPECT_THROW(sync::VanDeBeekEstimator({.rho = 1.5}), std::invalid_argument);
  const sync::VanDeBeekEstimator vdb({});
  std::vector<cf32> tiny(10);
  EXPECT_THROW((void)vdb.estimate(tiny), std::invalid_argument);
}

TEST(PacketDetector, FindsStfBurst) {
  const auto stf = wifi::make_lstf(0, 1);
  const double nv = dsp::from_db(-15.0);
  auto rx = channel::pad_with_noise(stf, 500, 500, nv, 3);
  dsp::ComplexGaussian noise(4, nv);
  noise.add_to(std::span<cf32>(rx).subspan(500, stf.size()));

  const sync::PacketDetector det(sync::DetectorConfig{});
  const auto d = det.detect(rx);
  ASSERT_TRUE(d.has_value());
  // The plateau detector is a *coarse* trigger: it fires as the correlation
  // windows slide into the burst, so a few tens of samples of early bias is
  // expected (fine timing is the job of sync::FineSynchronizer).
  EXPECT_NEAR(static_cast<double>(d->start), 500.0, 40.0);
  EXPECT_GT(d->peak_metric, 0.5F);
}

TEST(PacketDetector, SilenceGivesNoDetection) {
  std::vector<cf32> rx(5000);
  dsp::ComplexGaussian noise(5, 1.0);
  noise.fill(rx);
  const sync::PacketDetector det(sync::DetectorConfig{});
  EXPECT_FALSE(det.detect(rx).has_value());
}

TEST(PacketDetector, EstimatesCoarseCfo) {
  auto stf = wifi::make_lstf(0, 1);
  // Use several STFs back to back for a long plateau.
  std::vector<cf32> sig;
  for (int i = 0; i < 2; ++i) sig.insert(sig.end(), stf.begin(), stf.end());
  const double cfo = 3e-3;
  channel::apply_cfo(sig, cfo);
  auto rx = channel::pad_with_noise(sig, 300, 300, dsp::from_db(-25.0), 6);
  const sync::PacketDetector det(sync::DetectorConfig{});
  const auto d = det.detect(rx);
  ASSERT_TRUE(d.has_value());
  EXPECT_NEAR(d->cfo_norm, cfo, 2e-4);
}

TEST(PacketDetector, Validation) {
  EXPECT_THROW(sync::PacketDetector({.lag = 0}), std::invalid_argument);
  EXPECT_THROW(sync::PacketDetector({.threshold = 1.5F}), std::invalid_argument);
}

TEST(FineSync, LocatesLltfExactly) {
  std::vector<cf32> sig;
  const auto stf = wifi::make_lstf(0, 1);
  const auto ltf = wifi::make_lltf(0, 1);
  sig.insert(sig.end(), stf.begin(), stf.end());
  sig.insert(sig.end(), ltf.begin(), ltf.end());
  auto rx = channel::pad_with_noise(sig, 0, 200, dsp::from_db(-30.0), 7);

  const sync::FineSynchronizer fine;
  const std::span<const cf32> spans[] = {std::span<const cf32>(rx)};
  const auto res = fine.locate(spans);
  ASSERT_TRUE(res.has_value());
  EXPECT_EQ(res->lltf_start, stf.size());
  EXPECT_GT(res->peak, 0.8);
}

// The L-LTF search on the dispatched cross-correlation kernel and on the
// forced-scalar loop, over faded 1x1 and 2x2 captures: lltf_start, peak
// and cfo_norm must carry the same bits.
TEST(FineSync, LocateIsBitIdenticalOnScalarCorrelation) {
  std::size_t located = 0;
  for (const unsigned mcs : {3U, 11U}) {
    core::PhyConfig phy;
    phy.mcs = mcs;
    const core::Transmitter tx(phy);
    const std::size_t n = phy.mcs_info().nss;
    for (unsigned seed = 1; seed <= 12; ++seed) {
      SCOPED_TRACE("mcs " + std::to_string(mcs) + " seed " + std::to_string(seed));
      channel::ChannelConfig ccfg;
      ccfg.ntx = n;
      ccfg.nrx = n;
      ccfg.fading = true;
      ccfg.profile = channel::DelayProfile::kTypical;
      ccfg.snr_db = 4.0 + 2.0 * seed;
      ccfg.cfo_norm = 3e-4;
      ccfg.timing_pad = 40 + 7 * seed;
      ccfg.tail_pad = 800;
      ccfg.seed = 900 + seed;
      channel::MimoChannel chan(ccfg);
      const auto rx = chan.transmit(tx.transmit(std::vector<std::uint8_t>(100, 0x3C)));
      std::vector<std::span<const cf32>> spans;
      for (const auto& a : rx) spans.emplace_back(std::span<const cf32>(a).first(736));

      const sync::FineSynchronizer fine;
      const auto dispatch = fine.locate(spans);
      dsp::detail::force_scalar_xcorr(true);
      const auto scalar = fine.locate(spans);
      dsp::detail::force_scalar_xcorr(false);
      ASSERT_EQ(dispatch.has_value(), scalar.has_value());
      if (!scalar) continue;
      ++located;
      EXPECT_EQ(dispatch->lltf_start, scalar->lltf_start);
      EXPECT_EQ(0, std::memcmp(&dispatch->peak, &scalar->peak, sizeof(double)));
      EXPECT_EQ(0, std::memcmp(&dispatch->cfo_norm, &scalar->cfo_norm, sizeof(double)));
    }
  }
  EXPECT_GE(located, 20U) << "the faded captures should mostly lock";
}

TEST(FineSync, CfoFromLtfRepetitions) {
  auto ltf = wifi::make_lltf(0, 1);
  const double cfo = 1.2e-3;
  channel::apply_cfo(ltf, cfo);
  const sync::FineSynchronizer fine;
  const std::span<const cf32> spans[] = {std::span<const cf32>(ltf)};
  EXPECT_NEAR(fine.estimate_cfo(spans, 32), cfo, 1e-4);
}

class FrameSyncModes : public ::testing::TestWithParam<sync::TimingMode> {};

TEST_P(FrameSyncModes, SynchronizesRealPpdu) {
  core::PhyConfig phy;
  phy.mcs = 0;
  const core::Transmitter tx(phy);
  const auto psdu = std::vector<std::uint8_t>(64, 0x5A);
  const auto streams = tx.transmit(psdu);

  channel::ChannelConfig ccfg;
  ccfg.snr_db = 20.0;
  ccfg.cfo_norm = 8e-4;
  ccfg.timing_pad = 600;
  ccfg.tail_pad = 200;
  channel::MimoChannel chan(ccfg);
  const auto rx = chan.transmit(streams);

  sync::FrameSyncConfig scfg;
  scfg.mode = GetParam();
  const sync::FrameSynchronizer fs(scfg);
  const auto res = fs.synchronize(rx);
  ASSERT_TRUE(res.has_value());
  EXPECT_NEAR(static_cast<double>(res->packet_start), 600.0, 6.0);
  // The CP-ML (Van de Beek) CFO estimate correlates only 16-sample guard
  // windows, so its variance is a few times the LTF method's.
  const double cfo_tol =
      (GetParam() == sync::TimingMode::kVanDeBeekMimo) ? 4e-4 : 1e-4;
  EXPECT_NEAR(res->cfo_norm, 8e-4, cfo_tol);
}

INSTANTIATE_TEST_SUITE_P(Modes, FrameSyncModes,
                         ::testing::Values(sync::TimingMode::kLtfCrossCorr,
                                           sync::TimingMode::kVanDeBeekMimo));

TEST(FrameSync, NoPacketInNoise) {
  std::vector<std::vector<cf32>> rx(1, std::vector<cf32>(8000));
  dsp::ComplexGaussian noise(8, 0.5);
  noise.fill(rx[0]);
  const sync::FrameSynchronizer fs(sync::FrameSyncConfig{});
  EXPECT_FALSE(fs.synchronize(rx).has_value());
}

TEST(FrameSync, RejectsExcessiveSlack) {
  sync::FrameSyncConfig cfg;
  cfg.vdb_slack = 60;
  EXPECT_THROW(sync::FrameSynchronizer{cfg}, std::invalid_argument);
}

// ---- Span-arithmetic boundary regressions (ISSUE 2): every guard that
// precedes a std::size_t subtraction, checked with inputs exactly at the
// boundary and one below it. ----

TEST(VanDeBeek, SpanExactlyAtMinSpanWorks) {
  sync::VdbConfig cfg;
  cfg.n_symbols = 3;
  const sync::VanDeBeekEstimator vdb(cfg);
  const auto rx = ofdm_burst(4, 0, 30.0, 0.0, 21);
  ASSERT_GE(rx.size(), vdb.min_span());
  // len == min_span(): exactly one candidate position; len - min_span() + 1
  // must evaluate to 1, not wrap.
  const auto est =
      vdb.estimate(std::span<const cf32>(rx).first(vdb.min_span()));
  EXPECT_EQ(est.trace.size(), 1U);
  EXPECT_EQ(est.timing, 0U);
  EXPECT_TRUE(std::isfinite(est.metric));
  EXPECT_TRUE(std::isfinite(est.cfo_norm));
}

TEST(VanDeBeek, SpanOneBelowMinSpanThrows) {
  sync::VdbConfig cfg;
  cfg.n_symbols = 3;
  const sync::VanDeBeekEstimator vdb(cfg);
  const std::vector<cf32> rx(vdb.min_span() - 1);
  EXPECT_THROW((void)vdb.estimate(rx), std::invalid_argument);
}

TEST(VanDeBeek, AllZeroSpanGivesFiniteEstimate) {
  sync::VdbConfig cfg;
  cfg.n_symbols = 2;
  const sync::VanDeBeekEstimator vdb(cfg);
  const std::vector<cf32> rx(vdb.min_span() + 37, cf32{0.0F, 0.0F});
  const auto est = vdb.estimate(rx);
  EXPECT_TRUE(std::isfinite(est.metric));
  EXPECT_TRUE(std::isfinite(est.cfo_norm));
  EXPECT_LT(est.timing, rx.size());
}

TEST(PacketDetector, SpanShorterThanOneWindowIsNoDetect) {
  const sync::PacketDetector det(sync::DetectorConfig{});
  const auto cfg = sync::DetectorConfig{};
  // One below the lag + window minimum: must return nullopt, not wrap the
  // sliding-sum arithmetic.
  std::vector<cf32> rx(cfg.lag + cfg.window - 1, cf32{1.0F, 0.0F});
  EXPECT_FALSE(det.detect(rx).has_value());
  // Exactly at the minimum: one metric position, defined result.
  rx.assign(cfg.lag + cfg.window, cf32{1.0F, 0.0F});
  const auto d = det.detect(rx);
  if (d) {  // plateau length permitting, either outcome must be sane
    EXPECT_TRUE(std::isfinite(d->peak_metric));
    EXPECT_TRUE(std::isfinite(d->cfo_norm));
  }
}

TEST(PacketDetector, AllZeroSpanIsNoDetect) {
  const sync::PacketDetector det(sync::DetectorConfig{});
  const std::vector<cf32> rx(4096, cf32{0.0F, 0.0F});
  EXPECT_FALSE(det.detect(rx).has_value());
}

TEST(FineSync, SpanAtAndBelowMinimumLength) {
  const sync::FineSynchronizer fine;
  // Minimum locate() span is kGuard + 2 * kPeriod = 160 samples.
  std::vector<cf32> below(159, cf32{0.1F, 0.0F});
  const std::span<const cf32> sb[] = {std::span<const cf32>(below)};
  EXPECT_FALSE(fine.locate(sb).has_value());

  const auto lltf = wifi::make_lltf(0, 1);
  std::vector<cf32> at(lltf.begin(), lltf.begin() + 160);
  const std::span<const cf32> sa[] = {std::span<const cf32>(at)};
  const auto res = fine.locate(sa);  // either outcome, but defined
  if (res) {
    EXPECT_TRUE(std::isfinite(res->peak));
    EXPECT_TRUE(std::isfinite(res->cfo_norm));
    EXPECT_LT(res->lltf_start, at.size());
  }
}

// ---- Multi-antenna metric normalization (ISSUE 7 headline bugfix). The
// old combine summed per-antenna sqrt(P_lead*P_lag) and squared the sum;
// when antennas see different lead/lag power ratios that denominator is
// strictly smaller than (sum P_lead)*(sum P_lag) (AM-GM), inflating the
// metric past the Cauchy-Schwarz bound and firing where it should not. ----

// Two antennas observing the same 32-periodic pseudo-noise, with opposite
// 10 dB amplitude steps at the lag boundary. The span is sized so every
// correlation position has its lead window entirely in the pre-step region
// and its lag window entirely in the post-step region: per antenna the
// windows are perfectly correlated, but the correct combined metric is
// 4*eps/(1+eps)^2 ~= 0.33 (eps = 0.1) while the old formula evaluates to
// exactly 1.0 — the two sides of the detection threshold.
TEST(PacketDetector, MimoNormalizationRejectsImbalancedGainStep) {
  sync::DetectorConfig cfg;
  cfg.lag = 32;
  cfg.window = 16;
  cfg.threshold = 0.45F;
  cfg.min_plateau = 4;
  const sync::PacketDetector det(cfg);

  constexpr std::size_t kLen = 64;  // every position straddles the step
  constexpr float kLow = 0.316228F;  // -10 dB amplitude
  std::mt19937 rng(97);
  std::uniform_real_distribution<float> dist(-1.0F, 1.0F);
  std::vector<cf32> base(cfg.lag);
  for (auto& v : base) v = cf32(dist(rng), dist(rng));

  std::vector<cf32> x1(kLen);
  std::vector<cf32> x2(kLen);
  for (std::size_t k = 0; k < kLen; ++k) {
    const float g1 = (k < cfg.lag) ? 1.0F : kLow;
    const float g2 = (k < cfg.lag) ? kLow : 1.0F;
    x1[k] = g1 * base[k % cfg.lag];
    x2[k] = g2 * base[k % cfg.lag];
  }
  const std::span<const cf32> spans[] = {std::span<const cf32>(x1),
                                         std::span<const cf32>(x2)};

  // Fixed normalization: nothing crosses the threshold, no detection.
  EXPECT_FALSE(det.detect_mimo(spans).has_value());

  // Regression oracle: recompute both formulas from the exposed per-antenna
  // power sums and show the old one would have fired on every position —
  // i.e. this test fails against the pre-fix metric.
  const auto r1 = dsp::lag_autocorrelate(x1, cfg.lag, cfg.window);
  const auto r2 = dsp::lag_autocorrelate(x2, cfg.lag, cfg.window);
  ASSERT_GE(r1.metric.size(), cfg.min_plateau);
  for (std::size_t i = 0; i < r1.metric.size(); ++i) {
    const dsp::cf64 c = dsp::cf64(r1.corr[i]) + dsp::cf64(r2.corr[i]);
    const double old_denom =
        std::sqrt(static_cast<double>(r1.pow_lead[i]) * r1.pow_lag[i]) +
        std::sqrt(static_cast<double>(r2.pow_lead[i]) * r2.pow_lag[i]);
    const double old_metric = dsp::mag_sqr(c) / (old_denom * old_denom);
    const double new_denom =
        (static_cast<double>(r1.pow_lead[i]) + r2.pow_lead[i]) *
        (static_cast<double>(r1.pow_lag[i]) + r2.pow_lag[i]);
    const double new_metric = dsp::mag_sqr(c) / new_denom;
    EXPECT_GT(old_metric, cfg.threshold) << "position " << i;
    EXPECT_NEAR(old_metric, 1.0, 1e-3) << "position " << i;
    EXPECT_LT(new_metric, cfg.threshold) << "position " << i;
    EXPECT_NEAR(new_metric, 4.0 * 0.1 / (1.1 * 1.1), 1e-3) << "position " << i;
  }
}

// Flat (position-independent) antenna gain imbalance leaves each antenna's
// lead/lag ratio intact, so the fix must not cost detection of a real
// packet heard 10 dB weaker on one antenna.
TEST(PacketDetector, MimoStillDetectsUnderFlatGainImbalance) {
  const auto stf = wifi::make_lstf(0, 1);
  const double nv = dsp::from_db(-15.0);
  auto a1 = channel::pad_with_noise(stf, 500, 500, nv, 31);
  dsp::ComplexGaussian n1(32, nv);
  n1.add_to(std::span<cf32>(a1).subspan(500, stf.size()));
  // Antenna 2: same burst 10 dB down, independent noise at the same floor.
  std::vector<cf32> weak(stf.begin(), stf.end());
  for (auto& v : weak) v *= 0.316228F;
  auto a2 = channel::pad_with_noise(weak, 500, 500, nv, 33);
  dsp::ComplexGaussian n2(34, nv);
  n2.add_to(std::span<cf32>(a2).subspan(500, stf.size()));

  const sync::PacketDetector det(sync::DetectorConfig{});
  const std::span<const cf32> spans[] = {std::span<const cf32>(a1),
                                         std::span<const cf32>(a2)};
  const auto d = det.detect_mimo(spans);
  ASSERT_TRUE(d.has_value());
  EXPECT_NEAR(static_cast<double>(d->start), 500.0, 40.0);
}

// A plateau still above threshold at the last correlation position must
// report (deferred-report scanner flushes at end of data).
TEST(PacketDetector, PlateauReachingEndOfDataStillReports) {
  const sync::DetectorConfig cfg{};
  std::vector<cf32> rx(1200);
  dsp::ComplexGaussian noise(35, dsp::from_db(-20.0));
  noise.fill(rx);
  // 16-periodic signal from sample 600 through the very end: the metric
  // never drops below threshold again, so only an end-of-data flush can
  // report the run.
  for (std::size_t i = 600; i < rx.size(); ++i) {
    rx[i] += dsp::phasor(2.0F * dsp::pi_f * static_cast<float>(i % 16) / 16.0F);
  }
  const sync::PacketDetector det(cfg);
  const auto d = det.detect(rx);
  ASSERT_TRUE(d.has_value());
  EXPECT_NEAR(static_cast<double>(d->start), 600.0, 40.0);
}

TEST(PacketDetector, ExhaustiveScanWorkEndsAtFirstPlateau) {
  // The exhaustive sweep runs in chunks and returns at the first qualifying
  // plateau, so a ~1M-sample noise tail behind the packet changes neither
  // the detection nor the scratch the detector needed for it.
  const auto stf = wifi::make_lstf(0, 1);
  std::vector<cf32> sig;
  for (int i = 0; i < 2; ++i) sig.insert(sig.end(), stf.begin(), stf.end());
  channel::apply_cfo(sig, 1e-3);
  const double nv = dsp::from_db(-20.0);
  const auto short_tail = channel::pad_with_noise(sig, 3000, 1000, nv, 64);
  auto long_tail = short_tail;
  long_tail.resize(short_tail.size() + (std::size_t{1} << 20));
  dsp::ComplexGaussian noise(65, nv);
  noise.fill(std::span<cf32>(long_tail).subspan(short_tail.size()));

  const sync::PacketDetector det(sync::DetectorConfig{});
  const auto detect = [&det](const std::vector<cf32>& rx) {
    std::vector<dsp::AutocorrResult> scratch;
    const std::span<const cf32> one[] = {std::span<const cf32>(rx)};
    const auto d = det.detect_mimo(one, scratch);
    constexpr std::size_t kBound = 2 * sync::PacketDetector::kFullChunk;
    EXPECT_LE(scratch[0].corr.capacity(), kBound);
    EXPECT_LE(scratch[0].metric.capacity(), kBound);
    EXPECT_LE(scratch[0].scratch.prod_re.capacity(), kBound);
    EXPECT_LE(scratch[0].scratch.mag.capacity(), kBound);
    return d;
  };
  const auto ref = detect(short_tail);
  ASSERT_TRUE(ref.has_value());
  const auto got = detect(long_tail);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->start, ref->start);
  EXPECT_EQ(got->cfo_norm, ref->cfo_norm);
  EXPECT_EQ(got->peak_metric, ref->peak_metric);
}

// ---- Two-pass decimated scan (ISSUE 7 tentpole, detector level). ----

TEST(PacketDetector, ScanModeValidation) {
  sync::ScanMode scan;
  scan.decimation = 5;  // does not divide lag 16
  EXPECT_THROW(sync::PacketDetector(sync::DetectorConfig{}, scan),
               std::invalid_argument);
  scan.decimation = 0;
  EXPECT_THROW(sync::PacketDetector(sync::DetectorConfig{}, scan),
               std::invalid_argument);
}

TEST(PacketDetector, TwoPassMatchesExhaustiveOnStfBurst) {
  const auto stf = wifi::make_lstf(0, 1);
  std::vector<cf32> sig;
  for (int i = 0; i < 2; ++i) sig.insert(sig.end(), stf.begin(), stf.end());
  const double cfo = 2e-3;
  channel::apply_cfo(sig, cfo);
  auto rx = channel::pad_with_noise(sig, 3000, 2000, dsp::from_db(-20.0), 36);

  const sync::PacketDetector exhaustive(sync::DetectorConfig{});
  const auto ref = exhaustive.detect(rx);
  ASSERT_TRUE(ref.has_value());

  for (const std::size_t d : {2U, 4U, 8U}) {
    sync::ScanMode scan;
    scan.decimation = d;
    const sync::PacketDetector twopass(sync::DetectorConfig{}, scan);
    const auto det = twopass.detect(rx);
    ASSERT_TRUE(det.has_value()) << "decimation " << d;
    // The candidate-region full sweep warms its sliding sums at the region
    // edge instead of the span start, so per-position float rounding can
    // differ by ulps; the detection itself must agree.
    EXPECT_EQ(det->start, ref->start) << "decimation " << d;
    EXPECT_NEAR(det->cfo_norm, ref->cfo_norm, 1e-6) << "decimation " << d;
    EXPECT_NEAR(det->peak_metric, ref->peak_metric, 1e-4F) << "decimation " << d;
  }
}

TEST(PacketDetector, TwoPassQuietSpanHasNoDetection) {
  std::vector<cf32> rx(100000);
  dsp::ComplexGaussian noise(37, 1.0);
  noise.fill(rx);
  sync::ScanMode scan;
  scan.decimation = 8;
  const sync::PacketDetector det(sync::DetectorConfig{}, scan);
  EXPECT_FALSE(det.detect(rx).has_value());
}

TEST(PacketDetector, ScanCoarseFlagsBurstRegions) {
  const auto stf = wifi::make_lstf(0, 1);
  std::vector<cf32> rx(20000);
  dsp::ComplexGaussian noise(38, dsp::from_db(-20.0));
  noise.fill(rx);
  const std::size_t starts[] = {4000, 12000};
  for (const auto s : starts) {
    for (std::size_t i = 0; i < stf.size(); ++i) rx[s + i] += stf[i];
  }

  sync::ScanMode scan;
  scan.decimation = 8;
  const sync::PacketDetector det(sync::DetectorConfig{}, scan);
  sync::DetectScratch scratch;
  std::vector<sync::CoarseRegion> regions;
  const std::span<const cf32> spans[] = {std::span<const cf32>(rx)};
  const std::size_t n_pos = det.scan_coarse(spans, scratch, regions);
  EXPECT_GT(n_pos, 0U);
  // The coarse pass is a recall gate: noise may open spurious regions
  // (bounded full-rate work), but every burst MUST be covered by one.
  for (const auto s : starts) {
    bool covered = false;
    for (const auto& r : regions) {
      covered = covered || (r.begin < s + stf.size() && r.end > s);
    }
    EXPECT_TRUE(covered) << "burst at " << s << " not flagged";
  }
}

TEST(FrameSync, AllZeroCaptureIsNoDetect) {
  const std::vector<std::vector<cf32>> rx(2, std::vector<cf32>(4000));
  for (const auto mode :
       {sync::TimingMode::kLtfCrossCorr, sync::TimingMode::kVanDeBeekMimo}) {
    sync::FrameSyncConfig cfg;
    cfg.mode = mode;
    const sync::FrameSynchronizer fs(cfg);
    EXPECT_FALSE(fs.synchronize(rx).has_value());
  }
}

}  // namespace
