// Matrix kernel and MIMO equalizers.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <random>

#include "eq/equalizer.hpp"
#include "eq/matrix.hpp"

namespace {

using namespace mimonet::eq;
using mimonet::dsp::cf32;
using mimonet::dsp::mag_sqr;
using mimonet::mod::Constellation;
using mimonet::mod::Modulation;

CMatrix random_matrix(std::size_t n, std::size_t m, unsigned seed) {
  std::mt19937 rng(seed);
  std::uniform_real_distribution<double> d(-1.0, 1.0);
  CMatrix out(n, m);
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t c = 0; c < m; ++c) out(r, c) = cf64(d(rng), d(rng));
  }
  return out;
}

TEST(CMatrix, IdentityAndMultiply) {
  const auto i3 = CMatrix::identity(3);
  const auto a = random_matrix(3, 3, 1);
  const auto prod = a * i3;
  for (std::size_t r = 0; r < 3; ++r) {
    for (std::size_t c = 0; c < 3; ++c) {
      EXPECT_NEAR(std::abs(prod(r, c) - a(r, c)), 0.0, 1e-12);
    }
  }
}

TEST(CMatrix, HermitianTransposesAndConjugates) {
  CMatrix a(2, 3);
  a(0, 1) = cf64{1.0, 2.0};
  const auto h = a.hermitian();
  EXPECT_EQ(h.rows(), 3U);
  EXPECT_EQ(h.cols(), 2U);
  EXPECT_EQ(h(1, 0), (cf64{1.0, -2.0}));
}

class MatrixInverse : public ::testing::TestWithParam<std::size_t> {};

TEST_P(MatrixInverse, InverseTimesSelfIsIdentity) {
  const std::size_t n = GetParam();
  const auto a = random_matrix(n, n, static_cast<unsigned>(n) + 10);
  const auto inv = a.inverse();
  const auto prod = a * inv;
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t c = 0; c < n; ++c) {
      const double expect = (r == c) ? 1.0 : 0.0;
      EXPECT_NEAR(prod(r, c).real(), expect, 1e-9);
      EXPECT_NEAR(prod(r, c).imag(), 0.0, 1e-9);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, MatrixInverse, ::testing::Values(1, 2, 3, 4));

TEST(CMatrix, SingularMatrixThrows) {
  CMatrix a(2, 2);
  a(0, 0) = cf64{1.0, 0.0};
  a(0, 1) = cf64{2.0, 0.0};
  a(1, 0) = cf64{2.0, 0.0};
  a(1, 1) = cf64{4.0, 0.0};
  EXPECT_THROW((void)a.inverse(), std::runtime_error);
}

TEST(CMatrix, DimensionChecks) {
  CMatrix a(2, 3);
  CMatrix b(2, 3);
  EXPECT_THROW((void)(a * b), std::invalid_argument);
  EXPECT_THROW((void)a.inverse(), std::invalid_argument);
  std::vector<cf64> x(2);
  EXPECT_THROW((void)a.apply(x), std::invalid_argument);
}

TEST(CMatrix, ApplyComputesMatVec) {
  CMatrix a(2, 2);
  a(0, 0) = cf64{1.0, 0.0};
  a(0, 1) = cf64{0.0, 1.0};
  a(1, 0) = cf64{2.0, 0.0};
  a(1, 1) = cf64{0.0, 0.0};
  const std::vector<cf64> x{{1.0, 0.0}, {0.0, -1.0}};
  const auto y = a.apply(x);
  EXPECT_NEAR(std::abs(y[0] - cf64(2.0, 0.0)), 0.0, 1e-12);  // 1 + j*(-j) = 2
  EXPECT_NEAR(std::abs(y[1] - cf64(2.0, 0.0)), 0.0, 1e-12);
}

TEST(FromChannel, BuildsAndValidates) {
  std::vector<std::vector<cf32>> rows{{cf32{1, 0}, cf32{2, 0}},
                                      {cf32{3, 0}, cf32{4, 0}}};
  const auto m = from_channel(rows);
  EXPECT_EQ(m(1, 0), (cf64{3.0, 0.0}));
  rows[1].pop_back();
  EXPECT_THROW(static_cast<void>(from_channel(rows)), std::invalid_argument);
}

// ----------------------------------------------------------- equalizers

TEST(LinearEqualizer, ZfRecoversNoiselessMix) {
  CMatrix h(2, 2);
  h(0, 0) = cf64{1.0, 0.2};
  h(0, 1) = cf64{0.4, -0.3};
  h(1, 0) = cf64{-0.2, 0.5};
  h(1, 1) = cf64{0.9, 0.1};
  const std::vector<cf64> x{{0.7, -0.7}, {-1.0, 0.3}};
  const auto y64 = h.apply(x);
  std::vector<cf32> y(2);
  for (std::size_t i = 0; i < 2; ++i) {
    y[i] = cf32(static_cast<float>(y64[i].real()), static_cast<float>(y64[i].imag()));
  }
  const LinearEqualizer eq(EqualizerType::kZeroForcing);
  const auto res = eq.equalize(h, y, 1e-6F);
  for (std::size_t i = 0; i < 2; ++i) {
    EXPECT_NEAR(res.symbols[i].real(), x[i].real(), 1e-3);
    EXPECT_NEAR(res.symbols[i].imag(), x[i].imag(), 1e-3);
  }
}

TEST(LinearEqualizer, MmseApproachesZfAtHighSnr) {
  const auto h = random_matrix(2, 2, 99);
  std::vector<cf32> y{{0.5F, 0.1F}, {-0.3F, 0.8F}};
  const LinearEqualizer zf(EqualizerType::kZeroForcing);
  const LinearEqualizer mmse(EqualizerType::kMmse);
  const auto rz = zf.equalize(h, y, 1e-9F);
  const auto rm = mmse.equalize(h, y, 1e-9F);
  for (std::size_t i = 0; i < 2; ++i) {
    EXPECT_NEAR(std::abs(cf32(rz.symbols[i] - rm.symbols[i])), 0.0F, 1e-4F);
  }
}

TEST(LinearEqualizer, ZfNoiseEnhancementGrowsWithConditioning) {
  // Nearly collinear columns -> big noise enhancement.
  CMatrix good = CMatrix::identity(2);
  CMatrix bad = CMatrix::identity(2);
  bad(0, 1) = cf64{0.99, 0.0};
  bad(1, 1) = cf64{1.0, 0.0};
  bad(1, 0) = cf64{0.99, 0.0};
  const LinearEqualizer eq(EqualizerType::kZeroForcing);
  std::vector<cf32> y{{1.0F, 0.0F}, {1.0F, 0.0F}};
  const auto rg = eq.equalize(good, y, 0.1F);
  const auto rb = eq.equalize(bad, y, 0.1F);
  EXPECT_GT(rb.noise_vars[0], 5.0F * rg.noise_vars[0]);
}

TEST(LinearEqualizer, MlTypeRejected) {
  EXPECT_THROW(LinearEqualizer{EqualizerType::kMaxLikelihood}, std::invalid_argument);
}

TEST(LinearEqualizer, SizeMismatchThrows) {
  const LinearEqualizer eq(EqualizerType::kMmse);
  const auto h = random_matrix(2, 2, 5);
  std::vector<cf32> y(3);
  EXPECT_THROW((void)eq.equalize(h, y, 0.1F), std::invalid_argument);
}

TEST(MlDetector, MatchesTransmittedBitsNoiseless) {
  const Constellation c(Modulation::kQam16);
  const MlDetector det(c, 2);
  const auto h = random_matrix(2, 2, 7);

  // Transmit labels 5 and 11.
  const std::vector<cf64> x{cf64(c.points()[5]), cf64(c.points()[11])};
  const auto y64 = h.apply(x);
  std::vector<cf32> y(2);
  for (std::size_t i = 0; i < 2; ++i) {
    y[i] = cf32(static_cast<float>(y64[i].real()), static_cast<float>(y64[i].imag()));
  }
  std::vector<float> llrs(8);
  det.demap(h, y, 0.01F, llrs);
  for (unsigned b = 0; b < 4; ++b) {
    const bool bit_s0 = ((5U >> (3 - b)) & 1U) != 0;
    const bool bit_s1 = ((11U >> (3 - b)) & 1U) != 0;
    EXPECT_EQ(llrs[b] < 0.0F, bit_s0) << "stream0 bit " << b;
    EXPECT_EQ(llrs[4 + b] < 0.0F, bit_s1) << "stream1 bit " << b;
  }
}

TEST(MlDetector, RejectsTooManyStreams) {
  const Constellation c(Modulation::kQpsk);
  EXPECT_THROW(MlDetector(c, 3), std::invalid_argument);
}

TEST(PostEqSinr, OrderingZfLeMmseLeMl) {
  // On a correlated channel: SINR_ZF <= SINR_MMSE <= matched-filter bound.
  CMatrix h(2, 2);
  h(0, 0) = cf64{1.0, 0.0};
  h(0, 1) = cf64{0.7, 0.1};
  h(1, 0) = cf64{0.1, -0.6};
  h(1, 1) = cf64{0.9, 0.0};
  const float nv = 0.1F;
  const auto zf = post_eq_sinr_db(h, nv, EqualizerType::kZeroForcing);
  const auto mmse = post_eq_sinr_db(h, nv, EqualizerType::kMmse);
  const auto ml = post_eq_sinr_db(h, nv, EqualizerType::kMaxLikelihood);
  for (std::size_t i = 0; i < 2; ++i) {
    EXPECT_LE(zf[i], mmse[i] + 1e-6);
    EXPECT_LE(mmse[i], ml[i] + 1e-6);
  }
}

TEST(PostEqSinr, IdentityChannelGivesInputSnr) {
  const auto h = CMatrix::identity(2);
  const auto sinr = post_eq_sinr_db(h, 0.01F, EqualizerType::kZeroForcing);
  EXPECT_NEAR(sinr[0], 20.0, 0.01);
  EXPECT_NEAR(sinr[1], 20.0, 0.01);
}

// Regression (ISSUE 2): an all-zero channel matrix (erased LTFs) used to
// throw std::runtime_error out of equalize() and unwind the receiver
// mid-packet. It must now report an erased carrier: zero symbols, huge but
// finite noise variance, so the LLRs carry no weight.
TEST(LinearEq, SingularChannelYieldsErasureNotThrow) {
  const CMatrix h(2, 2);  // all zeros -> singular Gram for ZF and, with
                          // nv = 0, for MMSE too
  const std::vector<cf32> y{cf32{0.5F, 0.1F}, cf32{-0.2F, 0.3F}};
  for (const auto type : {EqualizerType::kZeroForcing, EqualizerType::kMmse}) {
    const LinearEqualizer eq(type);
    const auto out = eq.equalize(h, y, 0.0F);
    ASSERT_EQ(out.symbols.size(), 2U);
    for (std::size_t i = 0; i < 2; ++i) {
      EXPECT_EQ(out.symbols[i], (cf32{0.0F, 0.0F}));
      EXPECT_GE(out.noise_vars[i], kErasedNoiseVar);
      EXPECT_TRUE(std::isfinite(out.noise_vars[i]));
    }
  }
}

// Regression (ISSUE 2): post_eq_sinr_db with a singular channel must
// return the floor for ZF instead of propagating the inverse() failure.
TEST(PostEqSinr, SingularChannelReportsFloor) {
  const CMatrix h(2, 2);
  const auto sinr = post_eq_sinr_db(h, 0.01F, EqualizerType::kZeroForcing);
  for (const double s : sinr) {
    EXPECT_TRUE(std::isfinite(s));
    EXPECT_LE(s, -100.0);
  }
}

// Regression (ISSUE 2): NaN observations must demap to erasure LLRs (0),
// not NaN branch metrics.
TEST(MlDetector, NonFiniteObservationGivesErasureLlrs) {
  const Constellation qpsk(Modulation::kQpsk);
  const MlDetector det(qpsk, 2);
  const auto h = CMatrix::identity(2);
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const std::vector<cf32> y{cf32{nan, 0.0F}, cf32{0.1F, nan}};
  std::vector<float> llrs(4);
  det.demap(h, y, 0.1F, llrs);
  for (const float l : llrs) EXPECT_EQ(l, 0.0F);
}

}  // namespace
