// Preamble structure: periodicity, repetitions, P-matrix orthogonality,
// cyclic shift diversity, power levels.
#include <gtest/gtest.h>

#include <cmath>

#include "dsp/vector_ops.hpp"
#include "wifi/preamble.hpp"

namespace {

using namespace mimonet::wifi;
using mimonet::dsp::cf32;
using mimonet::dsp::mean_power;

TEST(Lstf, Has16SamplePeriodicity) {
  const auto stf = make_lstf(0, 1);
  ASSERT_EQ(stf.size(), kLstfLen);
  for (std::size_t i = 0; i + 16 < stf.size(); ++i) {
    EXPECT_NEAR(std::abs(stf[i] - stf[i + 16]), 0.0F, 1e-4F) << "sample " << i;
  }
}

TEST(Lstf, UnitMeanPower) {
  const auto stf = make_lstf(0, 1);
  EXPECT_NEAR(mean_power(stf), 1.0, 0.05);
}

TEST(Lltf, TwoIdenticalPeriodsAfterGuard) {
  const auto ltf = make_lltf(0, 1);
  ASSERT_EQ(ltf.size(), kLltfLen);
  for (std::size_t i = 0; i < 64; ++i) {
    EXPECT_NEAR(std::abs(ltf[32 + i] - ltf[96 + i]), 0.0F, 1e-4F);
  }
}

TEST(Lltf, GuardIsTailOfPeriod) {
  const auto ltf = make_lltf(0, 1);
  for (std::size_t i = 0; i < 32; ++i) {
    EXPECT_NEAR(std::abs(ltf[i] - ltf[i + 64]), 0.0F, 1e-4F);
  }
}

TEST(Lltf, UnitMeanPower) {
  EXPECT_NEAR(mean_power(make_lltf(0, 1)), 1.0, 0.05);
}

TEST(Sequences, LltfValuesAreTernary) {
  const auto seq = lltf_sequence();
  ASSERT_EQ(seq.size(), 53U);
  EXPECT_EQ(seq[26], 0.0F);  // DC
  std::size_t nonzero = 0;
  for (const auto v : seq) {
    EXPECT_TRUE(v == 0.0F || v == 1.0F || v == -1.0F);
    nonzero += v != 0.0F;
  }
  EXPECT_EQ(nonzero, 52U);
}

TEST(Sequences, HtltfExtendsLltf) {
  const auto l = lltf_sequence();
  const auto h = htltf_sequence();
  ASSERT_EQ(h.size(), 57U);
  EXPECT_EQ(h[0], 1.0F);
  EXPECT_EQ(h[1], 1.0F);
  EXPECT_EQ(h[55], -1.0F);
  EXPECT_EQ(h[56], -1.0F);
  for (std::size_t i = 0; i < 53; ++i) EXPECT_EQ(h[2 + i], l[i]);
}

TEST(PMatrix, RowsOrthogonal) {
  for (std::size_t a = 0; a < 4; ++a) {
    for (std::size_t b = 0; b < 4; ++b) {
      float dot = 0.0F;
      for (std::size_t c = 0; c < 4; ++c) dot += p_matrix(a, c) * p_matrix(b, c);
      EXPECT_FLOAT_EQ(dot, (a == b) ? 4.0F : 0.0F);
    }
  }
}

TEST(PMatrix, TwoStreamBlockOrthogonal) {
  // The 2x2 upper-left block used for nss=2 must be orthogonal over 2 LTFs.
  float dot = 0.0F;
  for (std::size_t c = 0; c < 2; ++c) dot += p_matrix(0, c) * p_matrix(1, c);
  EXPECT_FLOAT_EQ(dot, 0.0F);
}

TEST(NumHtLtfs, FollowsStandard) {
  EXPECT_EQ(num_ht_ltfs(1), 1U);
  EXPECT_EQ(num_ht_ltfs(2), 2U);
  EXPECT_EQ(num_ht_ltfs(3), 4U);
  EXPECT_EQ(num_ht_ltfs(4), 4U);
  EXPECT_THROW(static_cast<void>(num_ht_ltfs(5)), std::invalid_argument);
}

TEST(Csd, ValuesMatchTables) {
  EXPECT_EQ(legacy_csd_samples(0, 1), 0);
  EXPECT_EQ(legacy_csd_samples(1, 2), -4);   // -200 ns at 20 Msps
  EXPECT_EQ(ht_csd_samples(1, 2), -8);       // -400 ns
  EXPECT_THROW(static_cast<void>(legacy_csd_samples(2, 2)), std::invalid_argument);
  EXPECT_THROW(static_cast<void>(ht_csd_samples(0, 5)), std::invalid_argument);
}

TEST(Csd, SecondChainIsCyclicShiftOfFirst) {
  const auto a = make_lstf(0, 2);
  const auto b = make_lstf(1, 2);
  // Within each 16-periodic STF, a shift of -4 means b[i] == a[(i+4) % ...].
  for (std::size_t i = 0; i + 4 < 64; ++i) {
    EXPECT_NEAR(std::abs(b[i] - a[i + 4]), 0.0F, 1e-4F) << i;
  }
}

TEST(Htltfs, CountAndLength) {
  EXPECT_EQ(make_htltfs(0, 1).size(), kHtLtfLen);
  EXPECT_EQ(make_htltfs(0, 2).size(), 2 * kHtLtfLen);
  EXPECT_EQ(make_htltfs(1, 2).size(), 2 * kHtLtfLen);
}

TEST(Htltfs, PMatrixSignsBetweenSymbols) {
  // Stream 0: P[0][0]=+1, P[0][1]=-1 -> second LTF is the negative of the
  // first; stream 1: both +1.
  const auto s0 = make_htltfs(0, 2);
  for (std::size_t i = 0; i < kHtLtfLen; ++i) {
    EXPECT_NEAR(std::abs(s0[i] + s0[kHtLtfLen + i]), 0.0F, 1e-4F);
  }
  const auto s1 = make_htltfs(1, 2);
  for (std::size_t i = 0; i < kHtLtfLen; ++i) {
    EXPECT_NEAR(std::abs(s1[i] - s1[kHtLtfLen + i]), 0.0F, 1e-4F);
  }
}

TEST(Htltfs, SymbolHasCyclicPrefix) {
  const auto s = make_htltfs(0, 1);
  for (std::size_t i = 0; i < 16; ++i) {
    EXPECT_NEAR(std::abs(s[i] - s[64 + i]), 0.0F, 1e-4F);
  }
}

TEST(ToneGain, NormalizesSamplePower) {
  // 52 unit-power tones scaled by tone_gain(52) through a 1/N IFFT give
  // mean sample power 1. Validated indirectly by the LTF power test above;
  // here check the formula itself.
  EXPECT_NEAR(tone_gain(52), 64.0F / std::sqrt(52.0F), 1e-5F);
  EXPECT_NEAR(tone_gain(56), 64.0F / std::sqrt(56.0F), 1e-5F);
}

TEST(Htstf, PeriodicLike16) {
  const auto stf = make_htstf(0, 1);
  ASSERT_EQ(stf.size(), kHtStfLen);
  for (std::size_t i = 0; i + 16 < stf.size(); ++i) {
    EXPECT_NEAR(std::abs(stf[i] - stf[i + 16]), 0.0F, 1e-4F);
  }
}

}  // namespace
