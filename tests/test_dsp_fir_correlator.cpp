// FIR filters, filter design, and sliding correlators.
#include <gtest/gtest.h>

#include <cmath>
#include <random>
#include <string>

#include "dsp/correlator.hpp"
#include "dsp/fir.hpp"
#include "dsp/vector_ops.hpp"

namespace {

using namespace mimonet::dsp;

std::vector<cf32> random_signal(std::size_t n, unsigned seed) {
  std::mt19937 rng(seed);
  std::uniform_real_distribution<float> d(-1.0F, 1.0F);
  std::vector<cf32> v(n);
  for (auto& x : v) x = cf32(d(rng), d(rng));
  return v;
}

std::vector<cf32> naive_convolve(std::span<const cf32> x, std::span<const cf32> taps) {
  std::vector<cf32> y(x.size(), cf32{0.0F, 0.0F});
  for (std::size_t n = 0; n < x.size(); ++n) {
    cf64 acc{0.0, 0.0};
    for (std::size_t t = 0; t < taps.size() && t <= n; ++t) {
      acc += cf64(taps[t]) * cf64(x[n - t]);
    }
    y[n] = cf32(static_cast<float>(acc.real()), static_cast<float>(acc.imag()));
  }
  return y;
}

TEST(FirFilter, EmptyTapsThrow) {
  EXPECT_THROW(FirFilter({}), std::invalid_argument);
}

TEST(FirFilter, IdentityTapPassesSignal) {
  FirFilter f({cf32{1.0F, 0.0F}});
  const auto x = random_signal(50, 1);
  const auto y = f.process(x);
  EXPECT_LT(rms_error(x, y), 1e-6);
}

TEST(FirFilter, DelayTapShiftsSignal) {
  FirFilter f({cf32{0.0F, 0.0F}, cf32{0.0F, 0.0F}, cf32{1.0F, 0.0F}});
  const auto x = random_signal(20, 2);
  const auto y = f.process(x);
  for (std::size_t i = 2; i < x.size(); ++i) {
    EXPECT_NEAR(std::abs(y[i] - x[i - 2]), 0.0F, 1e-6F);
  }
  EXPECT_NEAR(std::abs(y[0]), 0.0F, 1e-6F);
  EXPECT_NEAR(std::abs(y[1]), 0.0F, 1e-6F);
}

TEST(FirFilter, MatchesNaiveConvolution) {
  const auto taps = random_signal(7, 3);
  const auto x = random_signal(64, 4);
  FirFilter f(taps);
  const auto y = f.process(x);
  const auto ref = naive_convolve(x, taps);
  EXPECT_LT(rms_error(y, ref), 1e-5);
}

TEST(FirFilter, ChunkedProcessingMatchesWhole) {
  const auto taps = random_signal(5, 5);
  const auto x = random_signal(100, 6);
  FirFilter whole(taps);
  const auto y_whole = whole.process(x);

  FirFilter chunked(taps);
  std::vector<cf32> y_chunks;
  for (std::size_t pos = 0; pos < x.size();) {
    const std::size_t n = std::min<std::size_t>(13, x.size() - pos);
    const auto part = chunked.process(std::span<const cf32>(x).subspan(pos, n));
    y_chunks.insert(y_chunks.end(), part.begin(), part.end());
    pos += n;
  }
  EXPECT_LT(rms_error(y_whole, y_chunks), 1e-6);
}

TEST(FirFilter, ResetClearsState) {
  const auto taps = random_signal(4, 7);
  FirFilter f(taps);
  const auto x = random_signal(10, 8);
  const auto y1 = f.process(x);
  f.reset();
  const auto y2 = f.process(x);
  EXPECT_LT(rms_error(y1, y2), 1e-6);
}

TEST(DesignLowpass, UnitDcGain) {
  const auto taps = design_lowpass(0.2, 31);
  double sum = 0.0;
  for (const auto t : taps) sum += t;
  EXPECT_NEAR(sum, 1.0, 1e-5);
}

TEST(DesignLowpass, AttenuatesHighFrequency) {
  const auto taps = design_lowpass(0.1, 63);
  std::vector<cf32> ctaps(taps.size());
  for (std::size_t i = 0; i < taps.size(); ++i) ctaps[i] = cf32(taps[i], 0.0F);
  FirFilter f(ctaps);
  // High-frequency tone at 0.4 cycles/sample.
  std::vector<cf32> x(512);
  for (std::size_t i = 0; i < x.size(); ++i) {
    x[i] = phasor(2.0F * pi_f * 0.4F * static_cast<float>(i));
  }
  const auto y = f.process(x);
  const double out_power =
      mean_power(std::span<const cf32>(y).subspan(taps.size(), y.size() - taps.size()));
  EXPECT_LT(out_power, 1e-3);
}

TEST(DesignLowpass, Validation) {
  EXPECT_THROW(design_lowpass(0.0, 31), std::invalid_argument);
  EXPECT_THROW(design_lowpass(0.6, 31), std::invalid_argument);
  EXPECT_THROW(design_lowpass(0.2, 30), std::invalid_argument);
}

TEST(Windows, HannEndpointsAndPeak) {
  const auto w = hann_window(9);
  EXPECT_NEAR(w[0], 0.0F, 1e-6F);
  EXPECT_NEAR(w[8], 0.0F, 1e-6F);
  EXPECT_NEAR(w[4], 1.0F, 1e-6F);
}

TEST(Windows, HammingEndpoints) {
  const auto w = hamming_window(11);
  EXPECT_NEAR(w[0], 0.08F, 1e-5F);
  EXPECT_NEAR(w[10], 0.08F, 1e-5F);
}

TEST(MovingSum, SlidingWindowTracksSum) {
  MovingSum ms(3);
  EXPECT_EQ(ms.push({1.0, 0.0}).real(), 1.0);
  EXPECT_EQ(ms.push({2.0, 0.0}).real(), 3.0);
  EXPECT_EQ(ms.push({3.0, 0.0}).real(), 6.0);
  EXPECT_EQ(ms.push({4.0, 0.0}).real(), 9.0);  // 2+3+4
  ms.reset();
  EXPECT_EQ(ms.value().real(), 0.0);
}

TEST(MovingSum, ZeroWindowThrows) {
  EXPECT_THROW(MovingSum(0), std::invalid_argument);
  EXPECT_THROW(MovingSumReal(0), std::invalid_argument);
}

TEST(LagAutocorrelate, PeriodicSignalGivesUnitMetric) {
  // 16-periodic signal: metric |c|^2/p^2 should be ~1 everywhere.
  std::vector<cf32> x(200);
  for (std::size_t i = 0; i < x.size(); ++i) {
    x[i] = phasor(2.0F * pi_f * static_cast<float>(i % 16) / 16.0F);
  }
  const auto res = lag_autocorrelate(x, 16, 32);
  ASSERT_FALSE(res.metric.empty());
  for (const auto m : res.metric) EXPECT_NEAR(m, 1.0F, 1e-3F);
}

TEST(LagAutocorrelate, RandomSignalGivesLowMetric) {
  const auto x = random_signal(4000, 11);
  const auto res = lag_autocorrelate(x, 16, 64);
  double mean = 0.0;
  for (const auto m : res.metric) mean += m;
  mean /= static_cast<double>(res.metric.size());
  EXPECT_LT(mean, 0.2);
}

TEST(LagAutocorrelate, TooShortInputGivesEmpty) {
  std::vector<cf32> x(10);
  const auto res = lag_autocorrelate(x, 16, 32);
  EXPECT_TRUE(res.metric.empty());
}

TEST(LagAutocorrelate, OutputSizeIsCorrect) {
  std::vector<cf32> x(100);
  const auto res = lag_autocorrelate(x, 16, 32);
  EXPECT_EQ(res.metric.size(), 100 - 16 - 32 + 1);
  EXPECT_EQ(res.corr.size(), res.metric.size());
  EXPECT_EQ(res.pow_lead.size(), res.metric.size());
  EXPECT_EQ(res.pow_lag.size(), res.metric.size());
}

TEST(LagAutocorrelate, PowerSumsMatchDirectComputation) {
  const auto x = random_signal(300, 21);
  const std::size_t lag = 16;
  const std::size_t window = 48;
  const auto res = lag_autocorrelate(x, lag, window);
  ASSERT_FALSE(res.metric.empty());
  for (std::size_t n = 0; n < res.metric.size(); n += 17) {
    double lead = 0.0;
    double lagp = 0.0;
    cf64 corr{0.0, 0.0};
    for (std::size_t k = 0; k < window; ++k) {
      lead += static_cast<double>(mag_sqr(x[n + k]));
      lagp += static_cast<double>(mag_sqr(x[n + k + lag]));
      corr += cf64(x[n + k]) * std::conj(cf64(x[n + k + lag]));
    }
    EXPECT_NEAR(res.pow_lead[n], static_cast<float>(lead), 1e-4F * static_cast<float>(lead));
    EXPECT_NEAR(res.pow_lag[n], static_cast<float>(lagp), 1e-4F * static_cast<float>(lagp));
    // Metric recomputed from the exposed sums must agree with the stored one.
    const double pp = static_cast<double>(res.pow_lead[n]) *
                      static_cast<double>(res.pow_lag[n]);
    EXPECT_NEAR(res.metric[n],
                static_cast<float>(mag_sqr(cf64(res.corr[n])) / pp), 2e-4F);
  }
}

TEST(LagAutocorrelate, SimdAndScalarPathsAreBitIdentical) {
  if (!detail::autocorr_simd_active()) {
    GTEST_SKIP() << "no AVX2 at runtime; scalar path is the only path";
  }
  // Odd length exercises the vector tails; the signal mixes a plateau-like
  // periodic head with noise so both high- and low-metric regions appear.
  auto x = random_signal(1237, 31);
  for (std::size_t i = 100; i < 400; ++i) {
    x[i] = phasor(2.0F * pi_f * static_cast<float>(i % 16) / 16.0F);
  }
  AutocorrResult simd;
  lag_autocorrelate_into(x, 16, 48, simd);

  detail::force_scalar_autocorr(true);
  AutocorrResult scalar;
  lag_autocorrelate_into(x, 16, 48, scalar);
  detail::force_scalar_autocorr(false);

  ASSERT_EQ(simd.metric.size(), scalar.metric.size());
  for (std::size_t i = 0; i < simd.metric.size(); ++i) {
    ASSERT_EQ(simd.corr[i], scalar.corr[i]) << "corr diverges at " << i;
    ASSERT_EQ(simd.pow_lead[i], scalar.pow_lead[i]) << "pow_lead at " << i;
    ASSERT_EQ(simd.pow_lag[i], scalar.pow_lag[i]) << "pow_lag at " << i;
    ASSERT_EQ(simd.metric[i], scalar.metric[i]) << "metric at " << i;
  }
}

TEST(LagAutocorrelate, ResumedChunksMatchWholeSpanBitExact) {
  // Random lengths split into random chunks, on the runtime-dispatched
  // kernel and on the forced-scalar one: every position of the resumed
  // sweep must carry the whole-span sweep's exact bits.
  std::mt19937 rng(61);
  for (const bool scalar : {false, true}) {
    detail::force_scalar_autocorr(scalar);
    for (unsigned trial = 0; trial < 24; ++trial) {
      SCOPED_TRACE((scalar ? "scalar trial " : "dispatch trial ") +
                   std::to_string(trial));
      const std::size_t len = std::uniform_int_distribution<std::size_t>(40, 4000)(rng);
      auto x = random_signal(len, 100 + trial);
      for (std::size_t i = len / 3; i < len / 2; ++i) {
        x[i] += phasor(2.0F * pi_f * static_cast<float>(i % 16) / 16.0F);
      }
      AutocorrResult whole;
      lag_autocorrelate_into(x, 16, 48, whole);

      AutocorrResult chunked;
      std::uniform_int_distribution<std::size_t> split(1, 700);
      std::size_t pos = 0;
      while (const std::size_t n =
                 lag_autocorrelate_resume(x, 16, 48, split(rng), chunked)) {
        ASSERT_LE(pos + n, whole.metric.size());
        for (std::size_t i = 0; i < n; ++i) {
          ASSERT_EQ(chunked.corr[i], whole.corr[pos + i]) << "corr at " << pos + i;
          ASSERT_EQ(chunked.pow_lead[i], whole.pow_lead[pos + i]) << pos + i;
          ASSERT_EQ(chunked.pow_lag[i], whole.pow_lag[pos + i]) << pos + i;
          ASSERT_EQ(chunked.metric[i], whole.metric[pos + i]) << pos + i;
        }
        pos += n;
      }
      EXPECT_EQ(pos, whole.metric.size());
    }
  }
  detail::force_scalar_autocorr(false);
}

TEST(LagAutocorrelateStrided, StrideOneMatchesFullRate) {
  const auto x = random_signal(500, 41);
  AutocorrResult full;
  lag_autocorrelate_into(x, 16, 48, full);
  AutocorrResult strided;
  lag_autocorrelate_strided_into(x, 16, 48, 1, strided);
  ASSERT_EQ(full.metric.size(), strided.metric.size());
  for (std::size_t i = 0; i < full.metric.size(); ++i) {
    EXPECT_EQ(full.metric[i], strided.metric[i]);
  }
}

TEST(LagAutocorrelateStrided, MatchesDecimatedReference) {
  // Stride-D output position i must equal a full-rate sweep of the manually
  // decimated sequence at position i.
  const auto x = random_signal(1000, 43);
  const std::size_t lag = 16;
  const std::size_t window = 96;
  for (const std::size_t d : {2U, 4U, 8U}) {
    AutocorrResult strided;
    lag_autocorrelate_strided_into(x, lag, window, d, strided);

    std::vector<cf32> dec;
    for (std::size_t i = 0; i < x.size(); i += d) dec.push_back(x[i]);
    AutocorrResult ref;
    lag_autocorrelate_into(dec, lag / d, window / d, ref);

    ASSERT_EQ(strided.metric.size(), ref.metric.size()) << "stride " << d;
    for (std::size_t i = 0; i < ref.metric.size(); ++i) {
      ASSERT_EQ(strided.metric[i], ref.metric[i]) << "stride " << d << " pos " << i;
      ASSERT_EQ(strided.corr[i], ref.corr[i]);
    }
  }
}

TEST(LagAutocorrelateStrided, DetectsDecimatedPlateau) {
  // A 16-periodic burst must still produce a near-unit metric when scanned
  // at stride 8 (the decimated sequence is 2-periodic).
  std::vector<cf32> x(1600, cf32{0.0F, 0.0F});
  std::mt19937 rng(47);
  std::uniform_real_distribution<float> dist(-0.1F, 0.1F);
  for (auto& v : x) v = cf32(dist(rng), dist(rng));
  for (std::size_t i = 400; i < 720; ++i) {
    x[i] += phasor(2.0F * pi_f * static_cast<float>(i % 16) / 16.0F);
  }
  AutocorrResult res;
  lag_autocorrelate_strided_into(x, 16, 96, 8, res);
  ASSERT_FALSE(res.metric.empty());
  // Position 416 samples in = decimated index 52: fully inside the burst.
  EXPECT_GT(res.metric[52], 0.9F);
  // Far outside the burst: noise-level metric.
  EXPECT_LT(res.metric[10], 0.4F);
}

TEST(LagAutocorrelateStrided, ValidatesStrideDivisibility) {
  std::vector<cf32> x(200);
  AutocorrResult res;
  EXPECT_THROW(lag_autocorrelate_strided_into(x, 16, 48, 0, res),
               std::invalid_argument);
  EXPECT_THROW(lag_autocorrelate_strided_into(x, 16, 48, 5, res),
               std::invalid_argument);  // 16 % 5 != 0
  EXPECT_THROW(lag_autocorrelate_strided_into(x, 16, 50, 4, res),
               std::invalid_argument);  // window 50 % stride 4 != 0
}

TEST(LagAutocorrelate, IntoReusesCapacityWithoutAllocation) {
  const auto x = random_signal(2000, 53);
  AutocorrResult res;
  lag_autocorrelate_into(x, 16, 48, res);  // warm: capacity established
  const auto* corr_data = res.corr.data();
  const auto* lead_data = res.pow_lead.data();
  lag_autocorrelate_into(x, 16, 48, res);  // same size: no reallocation
  EXPECT_EQ(res.corr.data(), corr_data);
  EXPECT_EQ(res.pow_lead.data(), lead_data);
}

TEST(LagAutocorrelate, CfoShowsUpInAngle) {
  // Periodic signal with CFO: angle(corr) = -2*pi*cfo*lag.
  const double cfo = 0.003;
  std::vector<cf32> x(300);
  for (std::size_t i = 0; i < x.size(); ++i) {
    x[i] = phasor(2.0F * pi_f * static_cast<float>(i % 16) / 16.0F);
  }
  mix(x, 0.0, two_pi_d * cfo);
  const auto res = lag_autocorrelate(x, 16, 64);
  const double est = -std::arg(res.corr[10]) / (two_pi_d * 16.0);
  EXPECT_NEAR(est, cfo, 1e-5);
}

}  // namespace
