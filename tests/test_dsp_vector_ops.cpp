// Vector primitive correctness: reductions, mixing, correlation.
#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstring>
#include <limits>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "dsp/fir.hpp"
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

/// Forces tdl_convolve_add onto the scalar path for its lifetime.
struct ForceScalarTdl {
  ForceScalarTdl() { detail::force_scalar_tdl(true); }
  ~ForceScalarTdl() { detail::force_scalar_tdl(false); }
};

/// tdl_convolve_add of outputs [first, first + n) onto `base`, on the
/// scalar path and on the dispatched one; asserts the same bits.
void expect_tdl_paths_identical(std::span<const cf32> x, std::span<const cf32> h,
                                std::size_t first, const std::vector<cf32>& base) {
  std::vector<cf32> scalar = base;
  {
    const ForceScalarTdl force;
    tdl_convolve_add(x, h, first, scalar);
  }
  std::vector<cf32> dispatch = base;
  tdl_convolve_add(x, h, first, dispatch);
  for (std::size_t i = 0; i < base.size(); ++i) {
    ASSERT_EQ(0, std::memcmp(&dispatch[i], &scalar[i], sizeof(cf32)))
        << "output " << first + i << " (x " << x.size() << ", taps " << h.size()
        << "): " << dispatch[i] << " vs " << scalar[i];
  }
}

TEST(TdlConvolution, SimdAndScalarPathsAreBitIdentical) {
  if (!detail::tdl_simd_active()) {
    GTEST_SKIP() << "no AVX2 at runtime; scalar path is the only path";
  }
  // Random lengths 1-4000, 1-12 taps, output ranges starting anywhere (not
  // only at multiples of 4) and running into the convolution tail, added
  // onto random values; amplitudes spread over 12 decades.
  std::mt19937 rng(2201);
  std::normal_distribution<float> gauss;
  std::uniform_real_distribution<float> decade(-6.0F, 6.0F);
  std::uniform_int_distribution<std::size_t> x_len(1, 4000);
  std::uniform_int_distribution<std::size_t> n_taps(1, 12);
  const auto fill = [&](std::vector<cf32>& v, std::size_t n) {
    const float scale = std::pow(10.0F, decade(rng));
    v.resize(n);
    for (auto& s : v) s = cf32(scale * gauss(rng), scale * gauss(rng));
  };
  std::vector<cf32> x;
  std::vector<cf32> h;
  std::vector<cf32> base;
  for (unsigned trial = 0; trial < 300; ++trial) {
    SCOPED_TRACE("trial " + std::to_string(trial));
    fill(x, trial < 12 ? trial + 1 : x_len(rng));
    fill(h, trial < 120 ? trial % 12 + 1 : n_taps(rng));
    const std::size_t conv = x.size() + h.size() - 1;
    // The whole convolution, a Doppler-style 80-output block at an odd
    // start, and a random range.
    const std::size_t odd = std::min<std::size_t>(conv - 1, 80 * (trial % 7) + 1 + trial % 3);
    const std::size_t first = std::uniform_int_distribution<std::size_t>(0, conv - 1)(rng);
    const std::size_t n = std::uniform_int_distribution<std::size_t>(1, conv - first)(rng);
    for (const auto& [f, count] : {std::pair{std::size_t{0}, conv},
                                   std::pair{odd, std::min<std::size_t>(80, conv - odd)},
                                   std::pair{first, n}}) {
      fill(base, count);
      expect_tdl_paths_identical(x, h, f, base);
    }
  }
  // Signed powers of two 2^-30, 1 and 2^30: exact products that cancel
  // often, so any reordered add shows at float precision.
  std::uniform_int_distribution<int> binade(-1, 1);
  std::uniform_int_distribution<int> sign(0, 1);
  const auto pow2 = [&] {
    return std::ldexp(sign(rng) != 0 ? 1.0F : -1.0F, 30 * binade(rng));
  };
  for (unsigned trial = 0; trial < 40; ++trial) {
    SCOPED_TRACE("power-of-two trial " + std::to_string(trial));
    x.resize(x_len(rng));
    for (auto& v : x) v = cf32(pow2(), pow2());
    h.resize(n_taps(rng));
    for (auto& v : h) v = cf32(pow2(), pow2());
    base.assign(x.size() + h.size() - 1, cf32{});
    expect_tdl_paths_identical(x, h, 0, base);
  }
}

TEST(TdlConvolution, NonFiniteInputsMatchScalarBitForBit) {
  // A NaN product goes through __muldc3 in the scalar loop only, so a
  // block that reads a non-finite sample, or any non-finite tap, must run
  // there. Blocks that do not read the bad sample keep the kernel.
  constexpr float kInf = std::numeric_limits<float>::infinity();
  constexpr float kNan = std::numeric_limits<float>::quiet_NaN();
  std::mt19937 rng(2202);
  std::normal_distribution<float> gauss;
  std::vector<cf32> x(1000);
  std::vector<cf32> h(6);
  for (unsigned trial = 0; trial < 24; ++trial) {
    SCOPED_TRACE("trial " + std::to_string(trial));
    for (auto& s : x) s = cf32(gauss(rng), gauss(rng));
    for (auto& s : h) s = cf32(gauss(rng), gauss(rng));
    const float inf = (trial % 2 == 0) ? kInf : -kInf;
    const std::size_t at = (trial * 131) % x.size();
    switch (trial % 4) {
      case 0:  // infinite sample against taps with a zero part
        x[at] = cf32(inf, kInf);
        h[trial % h.size()] = cf32(0.0F, 0.7F);
        break;
      case 1:  // infinite tap against samples with a zero part
        h[trial % h.size()] = cf32(inf, kInf);
        for (std::size_t i = at; i < at + 8 && i < x.size(); ++i) x[i].real(0.0F);
        break;
      case 2:  // NaN sample
        x[at] = cf32(kNan, 0.25F);
        break;
      default:  // NaN tap part
        h[trial % h.size()] = cf32(-0.25F, kNan);
        break;
    }
    const std::size_t conv = x.size() + h.size() - 1;
    expect_tdl_paths_identical(x, h, 0, std::vector<cf32>(conv));
    for (std::size_t start = 0; start < conv; start += 80) {
      expect_tdl_paths_identical(x, h, start,
                                 std::vector<cf32>(std::min<std::size_t>(80, conv - start)));
    }
  }
}

TEST(TdlConvolution, MatchesZeroHistoryFirWhenTapsAreFinite) {
  // A zero-history FIR over the stream plus a zero tail sums every tap,
  // against zeros too; those extra products are exact zeros for finite
  // taps, so the full convolution is bit-identical. MimoChannel's static
  // path relies on it.
  std::mt19937 rng(2203);
  std::normal_distribution<float> gauss;
  for (const std::size_t taps : {1UL, 3UL, 6UL, 12UL}) {
    std::vector<cf32> x(777);
    std::vector<cf32> h(taps);
    for (auto& s : x) s = cf32(gauss(rng), gauss(rng));
    for (auto& s : h) s = cf32(gauss(rng), gauss(rng));
    std::vector<cf32> padded = x;
    padded.resize(x.size() + taps - 1, cf32{});
    const std::vector<cf32> fir = FirFilter(h).process(padded);
    std::vector<cf32> tdl(padded.size(), cf32{});
    tdl_convolve_add(x, h, 0, tdl);
    ASSERT_EQ(0, std::memcmp(tdl.data(), fir.data(), fir.size() * sizeof(cf32)))
        << taps << " taps";
  }
}

TEST(TdlConvolution, RejectsOutputsPastTheTail) {
  const std::vector<cf32> x(10, cf32{1.0F, 0.0F});
  const std::vector<cf32> h(3, cf32{1.0F, 0.0F});
  std::vector<cf32> out(13);
  EXPECT_THROW(tdl_convolve_add(x, h, 0, out), std::invalid_argument);
  EXPECT_THROW(tdl_convolve_add(x, {}, 0, std::span(out).first(4)), std::invalid_argument);
  EXPECT_NO_THROW(tdl_convolve_add(x, h, 0, std::span(out).first(12)));
}

TEST(Mix, MultiSpanMatchesPerSpan) {
  // Every span of a multi-span mix must carry the bits mix() gives it
  // alone, NaN samples included, and the phase must step and wrap the same
  // way: large increments wrap the accumulator every few samples.
  std::mt19937 rng(2204);
  std::normal_distribution<float> gauss;
  for (const double inc : {1e-3, -0.02, 2.9, -3.1}) {
    for (std::size_t n_spans = 1; n_spans <= 4; ++n_spans) {
      const std::size_t len = 500 + 37 * n_spans;
      std::vector<std::vector<cf32>> ref(n_spans, std::vector<cf32>(len));
      for (auto& v : ref) {
        for (auto& s : v) s = cf32(gauss(rng), gauss(rng));
      }
      ref[n_spans - 1][len / 3] = cf32(std::numeric_limits<float>::quiet_NaN(), 1.0F);
      auto multi = ref;
      const double phase0 = 3.0;
      double phase_ref = 0.0;
      for (auto& v : ref) phase_ref = mix(v, phase0, inc);
      std::vector<std::span<cf32>> views(multi.begin(), multi.end());
      const double phase = mix(views, phase0, inc);
      EXPECT_EQ(0, std::memcmp(&phase, &phase_ref, sizeof phase)) << inc;
      for (std::size_t a = 0; a < n_spans; ++a) {
        ASSERT_EQ(0, std::memcmp(multi[a].data(), ref[a].data(), len * sizeof(cf32)))
            << "span " << a << " of " << n_spans << ", inc " << inc;
      }
    }
  }
  std::vector<cf32> a(4);
  std::vector<cf32> b(5);
  const std::array<std::span<cf32>, 2> ragged{std::span<cf32>(a), std::span<cf32>(b)};
  EXPECT_THROW(mix(ragged, 0.0, 0.1), std::invalid_argument);
  EXPECT_EQ(mix(std::span<const std::span<cf32>>{}, 0.5, 0.1), 0.5);
}

TEST(VectorOps, RmsError) {
  std::vector<cf32> a{{1, 0}, {0, 0}};
  std::vector<cf32> b{{0, 0}, {0, 0}};
  EXPECT_NEAR(rms_error(a, b), std::sqrt(0.5), 1e-9);
  EXPECT_THROW((void)rms_error(a, std::vector<cf32>(3)), std::invalid_argument);
}

}  // namespace
