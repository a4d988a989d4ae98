// Vector primitive correctness: reductions, mixing, correlation.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <random>
#include <string>

#include "dsp/vector_ops.hpp"

namespace {

using namespace mimonet::dsp;

TEST(VectorOps, EnergyAndMeanPower) {
  std::vector<cf32> v{{3, 4}, {0, 0}, {1, 0}};
  EXPECT_DOUBLE_EQ(energy(v), 25.0 + 0.0 + 1.0);
  EXPECT_DOUBLE_EQ(mean_power(v), 26.0 / 3.0);
  EXPECT_DOUBLE_EQ(mean_power(std::span<const cf32>{}), 0.0);
}

TEST(VectorOps, ScaleMultipliesInPlace) {
  std::vector<cf32> v{{1, 2}, {-3, 0}};
  scale(v, 2.0F);
  EXPECT_FLOAT_EQ(v[0].real(), 2.0F);
  EXPECT_FLOAT_EQ(v[0].imag(), 4.0F);
  EXPECT_FLOAT_EQ(v[1].real(), -6.0F);
}

TEST(VectorOps, MultiplyConjComputesCorrectly) {
  std::vector<cf32> a{{1, 1}};
  std::vector<cf32> b{{0, 1}};
  std::vector<cf32> out(1);
  multiply_conj(a, b, out);
  // (1+j) * conj(j) = (1+j) * (-j) = 1 - j
  EXPECT_FLOAT_EQ(out[0].real(), 1.0F);
  EXPECT_FLOAT_EQ(out[0].imag(), -1.0F);
}

TEST(VectorOps, MultiplyConjRejectsMismatch) {
  std::vector<cf32> a(2);
  std::vector<cf32> b(3);
  std::vector<cf32> out(2);
  EXPECT_THROW(multiply_conj(a, b, out), std::invalid_argument);
}

TEST(VectorOps, DotConjOfSelfIsEnergy) {
  std::vector<cf32> a{{1, 2}, {3, -1}};
  const cf64 d = dot_conj(a, a);
  EXPECT_NEAR(d.real(), energy(a), 1e-9);
  EXPECT_NEAR(d.imag(), 0.0, 1e-9);
}

TEST(VectorOps, MixAppliesExpectedRotation) {
  // Constant signal mixed with phase increment pi/2 -> 1, j, -1, -j.
  std::vector<cf32> v(4, cf32{1.0F, 0.0F});
  mix(v, 0.0, pi_d / 2.0);
  EXPECT_NEAR(v[0].real(), 1.0F, 1e-6F);
  EXPECT_NEAR(v[1].imag(), 1.0F, 1e-6F);
  EXPECT_NEAR(v[2].real(), -1.0F, 1e-6F);
  EXPECT_NEAR(v[3].imag(), -1.0F, 1e-6F);
}

TEST(VectorOps, MixPhaseContinuesAcrossChunks) {
  std::vector<cf32> whole(100, cf32{1.0F, 0.0F});
  auto part1 = std::vector<cf32>(whole.begin(), whole.begin() + 37);
  auto part2 = std::vector<cf32>(whole.begin() + 37, whole.end());
  const double inc = 0.123;
  mix(whole, 0.0, inc);
  const double mid = mix(part1, 0.0, inc);
  mix(part2, mid, inc);
  for (std::size_t i = 0; i < 37; ++i) {
    EXPECT_NEAR(std::abs(whole[i] - part1[i]), 0.0F, 1e-5F);
  }
  for (std::size_t i = 0; i < part2.size(); ++i) {
    EXPECT_NEAR(std::abs(whole[37 + i] - part2[i]), 0.0F, 1e-5F);
  }
}

TEST(VectorOps, MixReturnsWrappedPhase) {
  std::vector<cf32> v(1000, cf32{1.0F, 0.0F});
  const double phase = mix(v, 0.0, 1.0);  // would accumulate to 1000 rad
  EXPECT_LE(phase, pi_d + 1e-9);
  EXPECT_GE(phase, -pi_d - 1e-9);
}

TEST(VectorOps, CrossCorrelatePeaksAtEmbeddedReference) {
  std::vector<cf32> ref{{1, 0}, {-1, 0}, {1, 0}, {1, 0}};
  std::vector<cf32> x(20, cf32{0.0F, 0.0F});
  for (std::size_t i = 0; i < ref.size(); ++i) x[7 + i] = ref[i];
  const auto c = cross_correlate(x, ref);
  std::size_t peak = 0;
  for (std::size_t i = 1; i < c.size(); ++i) {
    if (std::abs(c[i]) > std::abs(c[peak])) peak = i;
  }
  EXPECT_EQ(peak, 7U);
  EXPECT_NEAR(std::abs(c[7]), 4.0F, 1e-5F);
}

TEST(VectorOps, CrossCorrelateRejectsBadSizes) {
  std::vector<cf32> x(3);
  std::vector<cf32> ref(5);
  EXPECT_THROW(cross_correlate(x, ref), std::invalid_argument);
  EXPECT_THROW(cross_correlate(x, std::span<const cf32>{}), std::invalid_argument);
}

/// Forces cross_correlate_into onto the scalar path for its lifetime.
struct ForceScalarXcorr {
  ForceScalarXcorr() { detail::force_scalar_xcorr(true); }
  ~ForceScalarXcorr() { detail::force_scalar_xcorr(false); }
};

/// cross_correlate_into on the scalar path and on the dispatched one;
/// asserts the two outputs carry the same bits.
void expect_xcorr_paths_identical(std::span<const cf32> x, std::span<const cf32> ref) {
  std::vector<cf32> scalar;
  {
    const ForceScalarXcorr force;
    cross_correlate_into(x, ref, scalar);
  }
  std::vector<cf32> dispatch;
  cross_correlate_into(x, ref, dispatch);
  ASSERT_EQ(dispatch.size(), scalar.size());
  for (std::size_t k = 0; k < scalar.size(); ++k) {
    ASSERT_EQ(0, std::memcmp(&dispatch[k], &scalar[k], sizeof(cf32)))
        << "lag " << k << " of " << scalar.size() << ": " << dispatch[k]
        << " vs " << scalar[k];
  }
}

TEST(CrossCorrelate, SimdAndScalarPathsAreBitIdentical) {
  if (!detail::xcorr_simd_active()) {
    GTEST_SKIP() << "no AVX2 at runtime; scalar path is the only path";
  }
  // Random x lengths and reference lengths, so every lag count mod 8 (the
  // kernel's group) and every tap count up to the staged maximum appear;
  // amplitudes spread over 12 decades to exercise rounding at every scale.
  std::mt19937 rng(2111);
  std::normal_distribution<float> gauss;
  std::uniform_real_distribution<float> decade(-6.0F, 6.0F);
  std::uniform_int_distribution<std::size_t> x_len(64, 2048);
  std::uniform_int_distribution<std::size_t> ref_len(1, 64);
  const auto fill = [&](std::vector<cf32>& v, std::size_t n) {
    const float scale = std::pow(10.0F, decade(rng));
    v.resize(n);
    for (auto& s : v) s = cf32(scale * gauss(rng), scale * gauss(rng));
  };
  std::vector<cf32> x;
  std::vector<cf32> ref;
  for (unsigned trial = 0; trial < 160; ++trial) {
    SCOPED_TRACE("trial " + std::to_string(trial));
    fill(x, x_len(rng));
    fill(ref, trial < 64 ? trial + 1 : ref_len(rng));
    expect_xcorr_paths_identical(x, ref);
  }
  // Rounding to cf32 hides most double-level reordering, so also use
  // signed powers of two 2^-30, 1 and 2^30: products are exact, equal
  // magnitudes cancel often, and a sum that met 2^30 loses the small
  // terms. After a cancellation the survivors show at float precision
  // whether each add happened in the scalar loop's order.
  std::uniform_int_distribution<int> binade(-1, 1);
  std::uniform_int_distribution<int> sign(0, 1);
  const auto pow2 = [&] {
    return std::ldexp(sign(rng) != 0 ? 1.0F : -1.0F, 30 * binade(rng));
  };
  for (unsigned trial = 0; trial < 40; ++trial) {
    SCOPED_TRACE("power-of-two trial " + std::to_string(trial));
    x.resize(x_len(rng));
    for (auto& v : x) v = cf32(pow2(), pow2());
    ref.resize(ref_len(rng));
    for (auto& v : ref) v = cf32(pow2(), pow2());
    expect_xcorr_paths_identical(x, ref);
  }
  // Past the staged maximum the dispatcher keeps the scalar loop.
  fill(x, 700);
  fill(ref, 65);
  expect_xcorr_paths_identical(x, ref);
}

TEST(CrossCorrelate, NonFiniteInputsMatchScalarBitForBit) {
  // std::complex multiplication sends a product whose parts both come out
  // NaN through __muldc3, which recovers an infinity where the plain
  // formula leaves NaN: an infinite x sample against a reference tap with a
  // zero part, or an infinite reference tap against an x sample with a zero
  // part. The dispatcher must route such inputs to the scalar loop, from
  // whichever operand holds them.
  constexpr float kInf = std::numeric_limits<float>::infinity();
  constexpr float kNan = std::numeric_limits<float>::quiet_NaN();
  std::mt19937 rng(2112);
  std::normal_distribution<float> gauss;
  std::vector<cf32> x;
  std::vector<cf32> ref(64);
  for (unsigned trial = 0; trial < 24; ++trial) {
    SCOPED_TRACE("trial " + std::to_string(trial));
    // 735 samples leave the last three to the finite check's tail, while
    // 672 lags (a whole number of vector groups) still reach them.
    x.resize(trial % 8 < 4 ? 736 : 735);
    for (auto& s : x) s = cf32(gauss(rng), gauss(rng));
    for (auto& s : ref) s = cf32(gauss(rng), gauss(rng));
    const float inf = (trial % 2 == 0) ? kInf : -kInf;
    const std::size_t at = (trial % 8 == 4) ? x.size() - 1 : (trial * 97) % x.size();
    switch (trial % 4) {
      case 0:  // infinite x sample, reference taps with a zero part
        x[at] = cf32(inf, kInf);
        ref[trial % ref.size()] = cf32(0.0F, 0.7F);
        ref[(trial + 5) % ref.size()] = cf32(-0.4F, 0.0F);
        ref.back() = cf32(0.0F, -0.3F);  // the only tap the last sample meets
        break;
      case 1:  // infinite reference tap, x samples with a zero part
        ref[trial % ref.size()] = cf32(inf, kInf);
        for (std::size_t i = at; i < at + 8 && i < x.size(); ++i) x[i].real(0.0F);
        break;
      case 2:  // NaN in x
        x[at] = cf32(kNan, 0.25F);
        break;
      default:  // one infinite part in x
        x[at] = cf32(-0.25F, inf);
        break;
    }
    expect_xcorr_paths_identical(x, ref);
  }
}

TEST(VectorOps, RmsError) {
  std::vector<cf32> a{{1, 0}, {0, 0}};
  std::vector<cf32> b{{0, 0}, {0, 0}};
  EXPECT_NEAR(rms_error(a, b), std::sqrt(0.5), 1e-9);
  EXPECT_THROW((void)rms_error(a, std::vector<cf32>(3)), std::invalid_argument);
}

}  // namespace
