// FFT plan correctness: transform identities, known small DFTs, and
// round-trip properties across sizes.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <random>

#include "dsp/fft.hpp"
#include "dsp/vector_ops.hpp"

namespace {

using mimonet::dsp::cf32;
using mimonet::dsp::FftPlan;

std::vector<cf32> random_vector(std::size_t n, unsigned seed) {
  std::mt19937 rng(seed);
  std::uniform_real_distribution<float> d(-1.0F, 1.0F);
  std::vector<cf32> v(n);
  for (auto& x : v) x = cf32(d(rng), d(rng));
  return v;
}

TEST(FftPlan, RejectsNonPowerOfTwo) {
  EXPECT_THROW(FftPlan(0), std::invalid_argument);
  EXPECT_THROW(FftPlan(1), std::invalid_argument);
  EXPECT_THROW(FftPlan(3), std::invalid_argument);
  EXPECT_THROW(FftPlan(48), std::invalid_argument);
}

TEST(FftPlan, RejectsWrongBufferSize) {
  FftPlan plan(8);
  std::vector<cf32> in(4);
  std::vector<cf32> out(8);
  EXPECT_THROW(plan.forward(in, out), std::invalid_argument);
}

TEST(FftPlan, ImpulseGivesFlatSpectrum) {
  FftPlan plan(64);
  std::vector<cf32> in(64, cf32{0.0F, 0.0F});
  in[0] = cf32{1.0F, 0.0F};
  std::vector<cf32> out(64);
  plan.forward(in, out);
  for (const auto& v : out) {
    EXPECT_NEAR(v.real(), 1.0F, 1e-5F);
    EXPECT_NEAR(v.imag(), 0.0F, 1e-5F);
  }
}

TEST(FftPlan, DcGivesSingleBin) {
  FftPlan plan(32);
  std::vector<cf32> in(32, cf32{1.0F, 0.0F});
  std::vector<cf32> out(32);
  plan.forward(in, out);
  EXPECT_NEAR(out[0].real(), 32.0F, 1e-4F);
  for (std::size_t k = 1; k < 32; ++k) {
    EXPECT_NEAR(std::abs(out[k]), 0.0F, 1e-4F);
  }
}

TEST(FftPlan, SingleToneLandsInRightBin) {
  constexpr std::size_t n = 64;
  constexpr std::size_t tone = 5;
  FftPlan plan(n);
  std::vector<cf32> in(n);
  for (std::size_t i = 0; i < n; ++i) {
    const float theta = 2.0F * mimonet::dsp::pi_f * tone * i / n;
    in[i] = cf32(std::cos(theta), std::sin(theta));
  }
  std::vector<cf32> out(n);
  plan.forward(in, out);
  EXPECT_NEAR(std::abs(out[tone]), static_cast<float>(n), 1e-3F);
  for (std::size_t k = 0; k < n; ++k) {
    if (k != tone) {
      EXPECT_NEAR(std::abs(out[k]), 0.0F, 1e-3F) << "bin " << k;
    }
  }
}

TEST(FftPlan, Known4PointDft) {
  FftPlan plan(4);
  std::vector<cf32> in{{1, 0}, {2, 0}, {3, 0}, {4, 0}};
  std::vector<cf32> out(4);
  plan.forward(in, out);
  // X = [10, -2+2j, -2, -2-2j]
  EXPECT_NEAR(out[0].real(), 10.0F, 1e-5F);
  EXPECT_NEAR(out[1].real(), -2.0F, 1e-5F);
  EXPECT_NEAR(out[1].imag(), 2.0F, 1e-5F);
  EXPECT_NEAR(out[2].real(), -2.0F, 1e-5F);
  EXPECT_NEAR(out[2].imag(), 0.0F, 1e-5F);
  EXPECT_NEAR(out[3].real(), -2.0F, 1e-5F);
  EXPECT_NEAR(out[3].imag(), -2.0F, 1e-5F);
}

TEST(FftPlan, InPlaceMatchesOutOfPlace) {
  auto in = random_vector(128, 42);
  FftPlan plan(128);
  std::vector<cf32> out(128);
  plan.forward(in, out);
  auto buf = in;
  plan.forward(std::span<cf32>(buf));
  for (std::size_t i = 0; i < 128; ++i) {
    EXPECT_NEAR(std::abs(buf[i] - out[i]), 0.0F, 1e-4F);
  }
}

TEST(FftPlan, LinearityHolds) {
  constexpr std::size_t n = 64;
  FftPlan plan(n);
  const auto a = random_vector(n, 1);
  const auto b = random_vector(n, 2);
  std::vector<cf32> sum(n);
  for (std::size_t i = 0; i < n; ++i) sum[i] = 2.0F * a[i] + 3.0F * b[i];

  std::vector<cf32> fa(n);
  std::vector<cf32> fb(n);
  std::vector<cf32> fsum(n);
  plan.forward(a, fa);
  plan.forward(b, fb);
  plan.forward(sum, fsum);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_NEAR(std::abs(fsum[i] - (2.0F * fa[i] + 3.0F * fb[i])), 0.0F, 1e-3F);
  }
}

TEST(Fftshift, SwapsHalves) {
  std::vector<cf32> v{{0, 0}, {1, 0}, {2, 0}, {3, 0}};
  mimonet::dsp::fftshift(v);
  EXPECT_FLOAT_EQ(v[0].real(), 2.0F);
  EXPECT_FLOAT_EQ(v[1].real(), 3.0F);
  EXPECT_FLOAT_EQ(v[2].real(), 0.0F);
  EXPECT_FLOAT_EQ(v[3].real(), 1.0F);
}

// The AVX2 butterfly kernel must be bit-identical to the pinned scalar
// fallback — not merely close. Forward and inverse, across sizes covering
// scalar-only stages (half < 4) and vector stages, in-place and
// out-of-place. On machines without AVX2 both runs take the scalar path and
// the test degenerates to a determinism check.
TEST(FftPlan, DispatchKernelBitIdenticalToForcedScalar) {
  for (const std::size_t n : {2UL, 4UL, 8UL, 64UL, 256UL, 1024UL}) {
    FftPlan plan(n);
    const auto in = random_vector(n, static_cast<unsigned>(0xF0 + n));
    std::vector<cf32> fwd_dispatch(n);
    std::vector<cf32> fwd_scalar(n);
    std::vector<cf32> inv_dispatch(n);
    std::vector<cf32> inv_scalar(n);

    mimonet::dsp::force_scalar_fft(false);
    plan.forward(in, fwd_dispatch);
    plan.inverse(fwd_dispatch, inv_dispatch);
    mimonet::dsp::force_scalar_fft(true);
    plan.forward(in, fwd_scalar);
    plan.inverse(fwd_scalar, inv_scalar);
    mimonet::dsp::force_scalar_fft(false);

    EXPECT_EQ(0, std::memcmp(fwd_dispatch.data(), fwd_scalar.data(),
                             n * sizeof(cf32)))
        << "forward n=" << n;
    EXPECT_EQ(0, std::memcmp(inv_dispatch.data(), inv_scalar.data(),
                             n * sizeof(cf32)))
        << "inverse n=" << n;

    // In-place must match the out-of-place result exactly too.
    auto buf = in;
    plan.forward(std::span<cf32>(buf));
    EXPECT_EQ(0, std::memcmp(buf.data(), fwd_dispatch.data(), n * sizeof(cf32)))
        << "in-place n=" << n;
  }
}

class FftRoundTrip : public ::testing::TestWithParam<std::size_t> {};

TEST_P(FftRoundTrip, InverseOfForwardIsIdentity) {
  const std::size_t n = GetParam();
  const auto in = random_vector(n, static_cast<unsigned>(n));
  FftPlan plan(n);
  std::vector<cf32> freq(n);
  std::vector<cf32> back(n);
  plan.forward(in, freq);
  plan.inverse(freq, back);
  EXPECT_LT(mimonet::dsp::rms_error(in, back), 1e-4);
}

TEST_P(FftRoundTrip, ParsevalHolds) {
  const std::size_t n = GetParam();
  const auto in = random_vector(n, static_cast<unsigned>(n) + 1);
  FftPlan plan(n);
  std::vector<cf32> freq(n);
  plan.forward(in, freq);
  const double time_e = mimonet::dsp::energy(in);
  const double freq_e = mimonet::dsp::energy(freq) / static_cast<double>(n);
  EXPECT_NEAR(freq_e, time_e, 1e-3 * time_e + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Sizes, FftRoundTrip,
                         ::testing::Values(2, 4, 8, 16, 32, 64, 128, 256, 512, 1024));

}  // namespace
