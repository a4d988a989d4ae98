// Channel simulator: fading statistics, impairments, end-to-end SNR.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "channel/fading.hpp"
#include "channel/fault_plan.hpp"
#include "channel/impairments.hpp"
#include "channel/mimo_channel.hpp"
#include "dsp/vector_ops.hpp"

namespace {

using namespace mimonet::channel;
using mimonet::dsp::cf32;
using mimonet::dsp::cf64;

TEST(Profiles, TapCountsAndUnitPower) {
  for (const auto p : {DelayProfile::kFlat, DelayProfile::kShort,
                       DelayProfile::kTypical, DelayProfile::kLong}) {
    const auto powers = profile_powers(p);
    EXPECT_EQ(powers.size(), profile_taps(p));
    double total = 0.0;
    double prev = 2.0;
    for (const auto pw : powers) {
      EXPECT_GT(pw, 0.0);
      EXPECT_LT(pw, prev);  // monotone decay
      prev = pw;
      total += pw;
    }
    EXPECT_NEAR(total, 1.0, 1e-12);
  }
}

TEST(FadingGenerator, UnitAveragePowerPerPair) {
  FadingGenerator gen(2, 2, DelayProfile::kTypical, 42);
  double acc = 0.0;
  constexpr int kTrials = 2000;
  for (int t = 0; t < kTrials; ++t) {
    const auto re = gen.next();
    double pair_power = 0.0;
    for (const auto& tap : re.taps[0][1]) pair_power += mimonet::dsp::mag_sqr(tap);
    acc += pair_power;
  }
  EXPECT_NEAR(acc / kTrials, 1.0, 0.05);
}

TEST(FadingGenerator, RealizationsVary) {
  FadingGenerator gen(1, 1, DelayProfile::kFlat, 1);
  const auto a = gen.next();
  const auto b = gen.next();
  EXPECT_GT(mimonet::dsp::mag_sqr(a.taps[0][0][0] - b.taps[0][0][0]), 1e-9F);
}

TEST(FadingGenerator, CorrelationIncreasesSimilarity) {
  // With rho_rx ~ 1 the two RX antennas see nearly the same channel.
  FadingGenerator corr(1, 2, DelayProfile::kFlat, 3, 0.0, 0.98);
  FadingGenerator indep(1, 2, DelayProfile::kFlat, 3, 0.0, 0.0);
  double corr_diff = 0.0;
  double indep_diff = 0.0;
  for (int t = 0; t < 500; ++t) {
    const auto c = corr.next();
    const auto i = indep.next();
    corr_diff += mimonet::dsp::mag_sqr(c.taps[0][0][0] - c.taps[1][0][0]);
    indep_diff += mimonet::dsp::mag_sqr(i.taps[0][0][0] - i.taps[1][0][0]);
  }
  EXPECT_LT(corr_diff, indep_diff * 0.2);
}

TEST(FadingGenerator, Validation) {
  EXPECT_THROW(FadingGenerator(0, 1, DelayProfile::kFlat, 1), std::invalid_argument);
  EXPECT_THROW(FadingGenerator(1, 5, DelayProfile::kFlat, 1), std::invalid_argument);
  EXPECT_THROW(FadingGenerator(1, 1, DelayProfile::kFlat, 1, 1.0, 0.0),
               std::invalid_argument);
}

TEST(ChannelRealization, FrequencyResponseMatchesDft) {
  ChannelRealization re;
  re.ntx = 1;
  re.nrx = 1;
  re.taps = {{{cf32{0.6F, 0.0F}, cf32{0.0F, 0.0F}, cf32{0.8F, 0.0F}}}};
  const auto h = re.frequency_response(8);
  // H(k) = 0.6 + 0.8 e^{-j 2 pi 2 k / 8}
  for (std::size_t k = 0; k < 8; ++k) {
    const double theta = -2.0 * mimonet::dsp::pi_d * 2.0 * k / 8.0;
    const cf64 expected = 0.6 + 0.8 * mimonet::dsp::phasor_d(theta);
    EXPECT_NEAR(std::abs(cf64(h[0][0][k]) - expected), 0.0, 1e-5) << "bin " << k;
  }
}

TEST(IdentityChannel, IsDiracDiagonal) {
  const auto re = identity_channel(2);
  EXPECT_EQ(re.taps[0][0][0], (cf32{1.0F, 0.0F}));
  EXPECT_EQ(re.taps[0][1][0], (cf32{0.0F, 0.0F}));
  EXPECT_EQ(re.taps[1][1][0], (cf32{1.0F, 0.0F}));
}

TEST(Impairments, CfoShiftsToneFrequency) {
  std::vector<cf32> x(1000, cf32{1.0F, 0.0F});
  apply_cfo(x, 0.01);
  // After 100 samples the phase advanced by 2*pi (one full cycle).
  EXPECT_NEAR(std::abs(x[100] - x[0]), 0.0F, 1e-4F);
  EXPECT_NEAR(std::abs(x[50] + x[0]), 0.0F, 1e-4F);  // half cycle: opposite
}

TEST(Impairments, SfoChangesLength) {
  std::vector<cf32> x(10000, cf32{1.0F, 0.0F});
  const auto fast = apply_sfo(x, 200.0);   // reads faster -> fewer samples
  const auto slow = apply_sfo(x, -200.0);  // reads slower -> more samples
  EXPECT_LT(fast.size(), x.size());
  EXPECT_GE(slow.size(), x.size() - 1);
}

TEST(Impairments, SfoZeroIsNearIdentity) {
  std::vector<cf32> x(100);
  for (std::size_t i = 0; i < x.size(); ++i) {
    x[i] = cf32(static_cast<float>(i), 0.0F);
  }
  const auto y = apply_sfo(x, 0.0);
  for (std::size_t i = 0; i < y.size(); ++i) {
    EXPECT_NEAR(y[i].real(), x[i].real(), 1e-4F);
  }
}

TEST(Impairments, QuantizeSnapsToGrid) {
  std::vector<cf32> x{{0.1003F, -0.2497F}, {3.9F, -4.5F}};
  quantize(x, 8, 1.0F);
  const float lsb = 1.0F / 128.0F;
  for (const auto& v : x) {
    EXPECT_NEAR(std::fmod(std::abs(v.real()), lsb), 0.0F, 1e-5F);
    EXPECT_LE(v.real(), 1.0F);
    EXPECT_GE(v.real(), -1.0F);
  }
}

TEST(Impairments, PadWithNoiseGeometry) {
  std::vector<cf32> x(10, cf32{5.0F, 0.0F});
  const auto padded = pad_with_noise(x, 100, 50, 0.01, 1);
  EXPECT_EQ(padded.size(), 160U);
  EXPECT_NEAR(padded[100].real(), 5.0F, 1e-6F);
  const double head_power =
      mimonet::dsp::mean_power(std::span<const cf32>(padded).first(100));
  EXPECT_NEAR(head_power, 0.01, 0.01);
}

TEST(MimoChannel, AwgnSnrIsAccurate) {
  ChannelConfig cfg;
  cfg.ntx = 1;
  cfg.nrx = 1;
  cfg.snr_db = 10.0;
  MimoChannel chan(cfg);
  // Unit-power TX stream.
  std::vector<std::vector<cf32>> tx(1, std::vector<cf32>(50000, cf32{1.0F, 0.0F}));
  const auto rx = chan.transmit(tx);
  // Signal+noise power should be 1 + 0.1.
  EXPECT_NEAR(mimonet::dsp::mean_power(rx[0]), 1.1, 0.02);
  EXPECT_NEAR(chan.noise_variance(), 0.1, 1e-12);
}

TEST(MimoChannel, OutputGeometryWithPads) {
  ChannelConfig cfg;
  cfg.ntx = 2;
  cfg.nrx = 2;
  cfg.timing_pad = 300;
  cfg.tail_pad = 70;
  MimoChannel chan(cfg);
  std::vector<std::vector<cf32>> tx(2, std::vector<cf32>(1000));
  const auto rx = chan.transmit(tx);
  EXPECT_EQ(rx.size(), 2U);
  EXPECT_EQ(rx[0].size(), 300 + 1000 + 70U);  // 1-tap identity channel
  EXPECT_EQ(chan.truth().packet_start, 300U);
}

TEST(MimoChannel, FixedRealizationIsReused) {
  ChannelConfig cfg;
  cfg.ntx = 1;
  cfg.nrx = 1;
  cfg.fading = true;
  cfg.snr_db = 100.0;
  MimoChannel chan(cfg);
  std::vector<std::vector<cf32>> tx(1, std::vector<cf32>(10, cf32{1.0F, 0.0F}));

  auto re = identity_channel(1);
  re.taps[0][0][0] = cf32{0.5F, 0.5F};
  chan.fix_realization(re);
  const auto rx1 = chan.transmit(tx);
  const auto rx2 = chan.transmit(tx);
  EXPECT_NEAR(std::abs(rx1[0][5] - rx2[0][5]), 0.0F, 1e-4F);
  EXPECT_NEAR(rx1[0][5].real(), 0.5F, 1e-3F);

  chan.unfix_realization();
  const auto rx3 = chan.transmit(tx);
  EXPECT_GT(std::abs(rx3[0][5] - rx1[0][5]), 1e-4F);
}

TEST(MimoChannel, PinnedRealizationMustFitTheAgedTaps) {
  // Doppler aging updates the profile's count of taps on every pair, so a
  // pinned or aged realization with fewer taps would be indexed out of
  // bounds.
  ChannelConfig cfg;
  cfg.ntx = 2;
  cfg.nrx = 2;
  cfg.fading = true;
  cfg.profile = DelayProfile::kTypical;
  cfg.doppler_norm = 1e-4;
  MimoChannel aging(cfg);
  EXPECT_THROW(aging.fix_realization(identity_channel(2)), std::invalid_argument);
  EXPECT_THROW((void)aging.aged_realization(identity_channel(2), 3), std::invalid_argument);
  auto ragged = aging.draw_realization();
  ragged.taps[1][0].pop_back();
  EXPECT_THROW(aging.fix_realization(ragged), std::invalid_argument);
  EXPECT_NO_THROW(aging.fix_realization(aging.aged_realization(aging.draw_realization(), 3)));

  // Without aging, any common tap count convolves.
  cfg.doppler_norm = 0.0;
  MimoChannel still(cfg);
  still.fix_realization(identity_channel(2));
  const std::vector<std::vector<cf32>> tx(2, std::vector<cf32>(50, cf32{1.0F, 0.0F}));
  EXPECT_EQ(still.transmit(tx)[0].size(), 50U);
}

TEST(MimoChannel, RejectsBadConfigs) {
  ChannelConfig cfg;
  cfg.ntx = 2;
  cfg.nrx = 1;  // identity channel but ntx != nrx
  EXPECT_THROW(MimoChannel{cfg}, std::invalid_argument);

  ChannelConfig ok;
  MimoChannel chan(ok);
  EXPECT_THROW(chan.transmit({}), std::invalid_argument);
}

TEST(MimoChannel, CfoGroundTruthRecorded) {
  ChannelConfig cfg;
  cfg.cfo_norm = 2.5e-4;
  MimoChannel chan(cfg);
  std::vector<std::vector<cf32>> tx(1, std::vector<cf32>(100));
  (void)chan.transmit(tx);
  EXPECT_DOUBLE_EQ(chan.truth().cfo_norm, 2.5e-4);
}

// ---- Degenerate impairment modes (ISSUE 2) ----

TEST(Impairments, ClippingBoundsAmplitude) {
  std::vector<cf32> x{{3.0F, 4.0F}, {0.1F, 0.0F}, {-2.0F, 0.0F}, {0.0F, 0.0F}};
  apply_clipping(x, 1.0F);
  for (const auto& v : x) {
    EXPECT_LE(std::abs(v), 1.0F + 1e-6F);
  }
  // Phase preserved on the clipped sample, small samples untouched.
  EXPECT_NEAR(x[0].real() / x[0].imag(), 3.0F / 4.0F, 1e-5F);
  EXPECT_NEAR(x[1].real(), 0.1F, 1e-7F);
  // Non-finite samples must not survive clipping as NaN/Inf escape hatches.
  std::vector<cf32> bad{{std::numeric_limits<float>::infinity(), 0.0F}};
  apply_clipping(bad, 1.0F);
  EXPECT_TRUE(std::isfinite(bad[0].real()));
}

TEST(Impairments, BurstErasureZeroesClampedRegion) {
  std::vector<cf32> x(10, cf32{1.0F, -1.0F});
  apply_burst_erasure(x, 3, 4);
  for (std::size_t i = 0; i < x.size(); ++i) {
    const bool erased = i >= 3 && i < 7;
    EXPECT_EQ(x[i] == cf32{}, erased) << "index " << i;
  }
  // Start or length past the end must clamp, not wrap or write OOB.
  std::vector<cf32> y(5, cf32{1.0F, 0.0F});
  apply_burst_erasure(y, 3, 100);
  EXPECT_EQ(y[2], (cf32{1.0F, 0.0F}));
  EXPECT_EQ(y[4], cf32{});
  apply_burst_erasure(y, 50, 4);  // fully out of range: no-op
  EXPECT_EQ(y[0], (cf32{1.0F, 0.0F}));
}

TEST(Impairments, SfoBelowMinusOneMillionPpmThrows) {
  std::vector<cf32> x(32, cf32{1.0F, 0.0F});
  EXPECT_THROW(apply_sfo(x, -1e6), std::invalid_argument);
  EXPECT_THROW(apply_sfo(x, -2e6), std::invalid_argument);
  EXPECT_NO_THROW(apply_sfo(x, -100.0));
}

TEST(MimoChannel, ZeroPowerPacketIsPureNoise) {
  ChannelConfig cfg;
  cfg.snr_db = 20.0;
  cfg.power_scale = 0.0;
  MimoChannel chan(cfg);
  std::vector<std::vector<cf32>> tx(1, std::vector<cf32>(2000, cf32{1.0F, 0.0F}));
  const auto rx = chan.transmit(tx);
  double p = 0.0;
  for (const auto& v : rx[0]) p += mimonet::dsp::mag_sqr(v);
  p /= static_cast<double>(rx[0].size());
  // Signal gone: residual power is the configured noise floor, not ~1.
  EXPECT_NEAR(p, chan.noise_variance(), 0.3 * chan.noise_variance());
}

TEST(MimoChannel, ClipLevelBoundsCapture) {
  ChannelConfig cfg;
  cfg.snr_db = 30.0;
  cfg.clip_level = 0.5F;
  MimoChannel chan(cfg);
  std::vector<std::vector<cf32>> tx(1, std::vector<cf32>(500, cf32{2.0F, 2.0F}));
  const auto rx = chan.transmit(tx);
  for (const auto& v : rx[0]) {
    EXPECT_LE(std::abs(v), 0.5F + 1e-5F);
  }
}

TEST(MimoChannel, BurstErasureReachesCapture) {
  ChannelConfig cfg;
  cfg.timing_pad = 10;
  cfg.erasure_start = 10;
  cfg.erasure_len = 20;
  MimoChannel chan(cfg);
  std::vector<std::vector<cf32>> tx(1, std::vector<cf32>(100, cf32{1.0F, 0.0F}));
  const auto rx = chan.transmit(tx);
  for (std::size_t i = 10; i < 30; ++i) {
    EXPECT_EQ(rx[0][i], cf32{}) << "index " << i;
  }
  EXPECT_GT(std::abs(rx[0][40]), 0.1F);
}

TEST(MimoChannel, RejectsNonFiniteDegenerateKnobs) {
  ChannelConfig bad_scale;
  bad_scale.power_scale = -1.0;
  EXPECT_THROW(MimoChannel{bad_scale}, std::invalid_argument);
  ChannelConfig bad_clip;
  bad_clip.clip_level = std::numeric_limits<float>::quiet_NaN();
  EXPECT_THROW(MimoChannel{bad_clip}, std::invalid_argument);
}

// ---- FaultPlan unit behavior ----

std::vector<cf32> ones(std::size_t n) {
  return std::vector<cf32>(n, cf32{1.0F, 0.0F});
}

TEST(FaultPlan, BuildersRecordEventsInOrder) {
  FaultPlan plan;
  plan.tone_burst(10, 20, 2.0, 0.1)
      .noise_burst(30, 5, 0.5)
      .gain_step(40, 0, 0.25)
      .sample_drop(50, 4)
      .sample_insert(60, 4)
      .phase_jump(70, 1.5)
      .erasure(80, 8);
  ASSERT_EQ(plan.events.size(), 7U);
  EXPECT_FALSE(plan.empty());
  EXPECT_EQ(plan.events[0].kind, FaultKind::kToneBurst);
  EXPECT_EQ(plan.events[3].kind, FaultKind::kSampleDrop);
  EXPECT_EQ(plan.events[6].kind, FaultKind::kErasure);
  EXPECT_DOUBLE_EQ(plan.events[0].freq_norm, 0.1);
  EXPECT_DOUBLE_EQ(plan.events[2].magnitude, 0.25);
}

TEST(FaultPlan, ClockSlipsResizeTheCapture) {
  auto x = ones(100);
  FaultPlan drop;
  drop.sample_drop(10, 30);
  apply_fault_plan(x, drop, 1);
  EXPECT_EQ(x.size(), 70U);

  auto y = ones(100);
  y[20] = cf32{0.5F, -0.5F};
  FaultPlan ins;
  ins.sample_insert(20, 7);
  apply_fault_plan(y, ins, 1);
  ASSERT_EQ(y.size(), 107U);
  // Sample-and-hold: the inserted run repeats the sample at the slip point.
  for (std::size_t i = 20; i < 28; ++i) {
    EXPECT_EQ(y[i], (cf32{0.5F, -0.5F})) << i;
  }
}

TEST(FaultPlan, GainStepZeroLengthRunsToTheEnd) {
  auto x = ones(50);
  FaultPlan plan;
  plan.gain_step(30, 0, 0.5);
  apply_fault_plan(x, plan, 1);
  EXPECT_FLOAT_EQ(x[29].real(), 1.0F);
  for (std::size_t i = 30; i < 50; ++i) EXPECT_FLOAT_EQ(x[i].real(), 0.5F);
}

TEST(FaultPlan, EventsPastTheEndAreClampedNotUb) {
  auto x = ones(20);
  FaultPlan plan;
  plan.tone_burst(15, 100, 1.0, 0.05)
      .noise_burst(200, 10, 1.0)
      .erasure(18, 100)
      .sample_drop(19, 50)
      .phase_jump(500, 1.0)
      .sample_insert(500, 3);
  apply_fault_plan(x, plan, 7);
  EXPECT_EQ(x.size(), 19U);  // only the in-range tail of the drop happened
  EXPECT_EQ(x[18], (cf32{0.0F, 0.0F}));  // erased before the drop
}

TEST(FaultPlan, NoiseBurstIsSeedDeterministic) {
  auto a = ones(64), b = ones(64), c = ones(64);
  FaultPlan plan;
  plan.noise_burst(8, 32, 2.0);
  apply_fault_plan(a, plan, 11);
  apply_fault_plan(b, plan, 11);
  apply_fault_plan(c, plan, 12);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  // Samples outside the burst are untouched either way.
  EXPECT_EQ(a[0], (cf32{1.0F, 0.0F}));
  EXPECT_EQ(a[63], (cf32{1.0F, 0.0F}));
}

TEST(FaultPlan, NonFiniteParametersThrow) {
  auto x = ones(16);
  FaultPlan plan;
  plan.phase_jump(0, std::numeric_limits<double>::quiet_NaN());
  EXPECT_THROW(apply_fault_plan(x, plan, 1), std::invalid_argument);
}

TEST(MimoChannel, FaultPlanAppliedAndEchoedAsTruth) {
  ChannelConfig cfg;
  cfg.ntx = 1;
  cfg.nrx = 1;
  cfg.snr_db = 100.0;  // effectively noiseless: the erasure dominates
  cfg.timing_pad = 10;
  cfg.seed = 5;
  cfg.faults.erasure(20, 30);
  MimoChannel chan(cfg);
  const auto rx = chan.transmit({std::vector<cf32>(100, cf32{1.0F, 0.0F})});
  ASSERT_EQ(rx.size(), 1U);
  ASSERT_EQ(chan.truth().faults.events.size(), 1U);
  EXPECT_EQ(chan.truth().faults.events[0].kind, FaultKind::kErasure);
  EXPECT_EQ(chan.truth().faults.events[0].start, 20U);
  for (std::size_t i = 20; i < 50; ++i) {
    EXPECT_EQ(rx[0][i], (cf32{0.0F, 0.0F})) << i;
  }
  EXPECT_GT(std::abs(rx[0][55].real()), 0.5F);
}

}  // namespace
