// Random sources and streaming statistics.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <random>
#include <vector>

#include "dsp/rng.hpp"
#include "dsp/stats.hpp"
#include "dsp/vector_ops.hpp"

namespace {

using namespace mimonet::dsp;

TEST(ComplexGaussian, VarianceMatchesRequest) {
  ComplexGaussian g(123, 2.5);
  std::vector<cf32> v(200000);
  g.fill(v);
  EXPECT_NEAR(mean_power(v), 2.5, 0.05);
}

TEST(ComplexGaussian, ZeroVarianceGivesZeros) {
  ComplexGaussian g(1, 0.0);
  std::vector<cf32> v(16);
  g.fill(v);
  for (const auto& x : v) EXPECT_EQ(std::abs(x), 0.0F);
}

TEST(ComplexGaussian, NegativeVarianceThrows) {
  EXPECT_THROW(ComplexGaussian(1, -1.0), std::invalid_argument);
}

TEST(ComplexGaussian, SeedsAreReproducible) {
  ComplexGaussian a(7, 1.0);
  ComplexGaussian b(7, 1.0);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.sample(), b.sample());
}

TEST(ComplexGaussian, AddToAddsNoise) {
  ComplexGaussian g(5, 1.0);
  std::vector<cf32> v(100000, cf32{1.0F, 0.0F});
  g.add_to(v);
  // Mean should remain ~1, power ~ 1 + 1.
  EXPECT_NEAR(mean_power(v), 2.0, 0.05);
}

/// Restores runtime dispatch of the generator kernels when it leaves scope.
struct RngPath {
  explicit RngPath(bool scalar) { detail::force_scalar_rng(scalar); }
  ~RngPath() { detail::force_scalar_rng(false); }
};

TEST(Mt19937Block, MatchesStdMt19937_64) {
  // The standard fixes MT19937-64's output, so every seed must give
  // std::mt19937_64's stream, on the scalar twist and on the AVX2 one.
  for (const bool scalar : {true, false}) {
    const RngPath path(scalar);
    for (const std::uint64_t seed :
         {0ULL, 1ULL, 5489ULL, 0x9E3779B97F4A7C15ULL, ~0ULL, 0xC2B2AE3D27D4EB4FULL}) {
      std::mt19937_64 ref(seed);
      Mt19937Block gen(seed);
      for (int i = 0; i < 3 * 312 + 17; ++i) {
        ASSERT_EQ(gen(), ref()) << "seed " << seed << " draw " << i << " scalar " << scalar;
      }
      gen.seed(seed + 1);
      ref.seed(seed + 1);
      for (int i = 0; i < 400; ++i) ASSERT_EQ(gen(), ref()) << "reseeded draw " << i;
    }
  }
}

std::uint64_t gaussian_digest(std::uint64_t seed) {
  ComplexGaussian g(seed, 1.0);
  std::uint64_t h = 0xCBF29CE484222325ULL;
  for (int i = 0; i < 100000; ++i) {
    const cf32 v = g.sample();
    unsigned char bytes[sizeof v];
    std::memcpy(bytes, &v, sizeof v);
    for (const unsigned char b : bytes) h = (h ^ b) * 0x100000001B3ULL;
  }
  return h;
}

TEST(ComplexGaussian, FirstDrawsArePinned) {
  // FNV-1a of the first 10^5 complex samples of three seeds, the values
  // std::mt19937_64 + std::normal_distribution<float> give under libstdc++
  // 12. The draws depend only on the in-repo engine and polar method and on
  // libm's logf, so these hold on any toolchain with the same logf.
#ifdef __FAST_MATH__
  GTEST_SKIP() << "-ffast-math may change floating-point bits";
#endif
  for (const bool scalar : {true, false}) {
    const RngPath path(scalar);
    EXPECT_EQ(gaussian_digest(1), 0xb8d24341450f6d49ULL) << "scalar " << scalar;
    EXPECT_EQ(gaussian_digest(0x5EED), 0x10ffadaf298e1d86ULL) << "scalar " << scalar;
    EXPECT_EQ(gaussian_digest(0xC2B2AE3D27D4EB4FULL), 0x7353b98bf5767566ULL) << "scalar " << scalar;
  }
}

#ifdef __GLIBCXX__
TEST(ComplexGaussian, MatchesLibstdcxxNormalDistribution) {
  // The generator replaced std::mt19937_64 + std::normal_distribution<float>
  // (two calls per complex sample), and must reproduce them bit for bit
  // through any mix of sample/fill/add_to calls and variance changes.
#ifdef __FAST_MATH__
  GTEST_SKIP() << "-ffast-math may change floating-point bits";
#endif
  for (const bool scalar : {true, false}) {
    const RngPath path(scalar);
    for (const std::uint64_t seed : {3ULL, 0xABCDEFULL}) {
      ComplexGaussian g(seed, 2.0);
      std::mt19937_64 rng(seed);
      std::normal_distribution<float> dist(0.0F, static_cast<float>(std::sqrt(2.0 / 2.0)));
      const auto ref = [&] {
        const float re = dist(rng);
        const float im = dist(rng);
        return cf32(re, im);
      };
      std::vector<cf32> got;
      std::vector<cf32> want;
      for (int round = 0; round < 60; ++round) {
        const std::size_t n = 1 + static_cast<std::size_t>(round * 37 % 700);
        got.assign(n, cf32{0.5F, -0.25F});
        want = got;
        switch (round % 3) {
          case 0:
            for (auto& v : got) v = g.sample();
            for (auto& v : want) v = ref();
            break;
          case 1:
            g.fill(got);
            for (auto& v : want) v = ref();
            break;
          default:
            g.add_to(got);
            for (auto& v : want) v += ref();
            break;
        }
        ASSERT_EQ(0, std::memcmp(got.data(), want.data(), n * sizeof(cf32)))
            << "seed " << seed << " round " << round << " scalar " << scalar;
        if (round % 7 == 6) {
          const double variance = 1e-4 * (round + 1);
          g.set_variance(variance);
          dist = std::normal_distribution<float>(
              0.0F, static_cast<float>(std::sqrt(variance / 2.0)));
        }
      }
    }
  }
}
#endif  // __GLIBCXX__

TEST(ComplexGaussian, ReseedRestartsTheStream) {
  ComplexGaussian a(11, 0.5);
  for (int i = 0; i < 777; ++i) (void)a.sample();
  a.reseed(12);
  ComplexGaussian b(12, 0.5);
  for (int i = 0; i < 1000; ++i) {
    const cf32 x = a.sample();
    const cf32 y = b.sample();
    ASSERT_EQ(0, std::memcmp(&x, &y, sizeof x)) << i;
  }
}

TEST(BitSource, BytesIntoMatchesBytes) {
  BitSource a(21);
  BitSource b(21);
  std::vector<std::uint8_t> into(1001);
  b.bytes_into(into);
  EXPECT_EQ(a.bytes(1001), into);
}

TEST(BitSource, BitsAreBalancedAndBinary) {
  BitSource src(99);
  const auto bits = src.bits(100000);
  std::size_t ones = 0;
  for (const auto b : bits) {
    ASSERT_LE(b, 1);
    ones += b;
  }
  EXPECT_NEAR(static_cast<double>(ones) / bits.size(), 0.5, 0.01);
}

TEST(BitSource, BytesCoverRange) {
  BitSource src(3);
  const auto bytes = src.bytes(100000);
  std::vector<std::size_t> hist(256, 0);
  for (const auto b : bytes) ++hist[b];
  for (const auto h : hist) EXPECT_GT(h, 0U);
}

TEST(RunningStats, KnownSequence) {
  RunningStats s;
  for (const double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_EQ(s.count(), 8U);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  // Sample variance with n-1: sum sq dev = 32, /7.
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
}

TEST(RunningStats, RmsOfConstant) {
  RunningStats s;
  for (int i = 0; i < 5; ++i) s.add(-3.0);
  EXPECT_NEAR(s.rms(), 3.0, 1e-12);
  EXPECT_NEAR(s.stddev(), 0.0, 1e-12);
}

TEST(RunningStats, EmptyIsSafe) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0U);
  EXPECT_EQ(s.variance(), 0.0);
  EXPECT_EQ(s.rms(), 0.0);
}

TEST(Histogram, BinsAndEdges) {
  Histogram h(0.0, 10.0, 10);
  h.add(0.5);    // bin 0
  h.add(9.99);   // bin 9
  h.add(-5.0);   // clamped to bin 0
  h.add(42.0);   // clamped to bin 9
  h.add(5.0);    // bin 5
  EXPECT_EQ(h.total(), 5U);
  EXPECT_EQ(h.counts()[0], 2U);
  EXPECT_EQ(h.counts()[9], 2U);
  EXPECT_EQ(h.counts()[5], 1U);
  EXPECT_NEAR(h.bin_center(0), 0.5, 1e-12);
  EXPECT_NEAR(h.fraction(5), 0.2, 1e-12);
}

TEST(Histogram, RejectsBadRange) {
  EXPECT_THROW(Histogram(1.0, 1.0, 4), std::invalid_argument);
  EXPECT_THROW(Histogram(0.0, 1.0, 0), std::invalid_argument);
}

TEST(RunningStats, MergeMatchesSinglePassOnSplitStream) {
  // Fill one accumulator with the whole stream, two with its halves; the
  // merged pair must reproduce the single-pass moments.
  RunningStats whole;
  RunningStats lo;
  RunningStats hi;
  for (int i = 0; i < 50; ++i) {
    const double x = std::sin(0.7 * i) * (1.0 + 0.1 * i);
    whole.add(x);
    (i < 23 ? lo : hi).add(x);
  }
  lo.merge(hi);
  EXPECT_EQ(lo.count(), whole.count());
  EXPECT_EQ(lo.min(), whole.min());
  EXPECT_EQ(lo.max(), whole.max());
  EXPECT_NEAR(lo.mean(), whole.mean(), 1e-12);
  EXPECT_NEAR(lo.variance(), whole.variance(), 1e-12);
  EXPECT_NEAR(lo.rms(), whole.rms(), 1e-12);
}

TEST(RunningStats, MergeWithEmptySides) {
  RunningStats a;
  RunningStats empty;
  a.add(1.0);
  a.add(3.0);
  const double mean = a.mean();
  a.merge(empty);  // no-op
  EXPECT_EQ(a.count(), 2U);
  EXPECT_EQ(a.mean(), mean);
  RunningStats b;
  b.merge(a);  // adopt
  EXPECT_EQ(b.count(), 2U);
  EXPECT_EQ(b.mean(), mean);
  EXPECT_EQ(b.min(), 1.0);
  EXPECT_EQ(b.max(), 3.0);
}

TEST(Histogram, MergeSumsBinsAndRejectsMismatch) {
  Histogram a(0.0, 10.0, 10);
  Histogram b(0.0, 10.0, 10);
  Histogram whole(0.0, 10.0, 10);
  for (int i = 0; i < 30; ++i) {
    const double x = (i * 37) % 100 / 10.0;
    whole.add(x);
    (i % 2 == 0 ? a : b).add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.total(), whole.total());
  EXPECT_EQ(a.counts(), whole.counts());
  Histogram other_bins(0.0, 10.0, 5);
  Histogram other_range(0.0, 5.0, 10);
  EXPECT_THROW(a.merge(other_bins), std::invalid_argument);
  EXPECT_THROW(a.merge(other_range), std::invalid_argument);
}

// Regression (ISSUE 2): NaN used to reach an undefined float->long cast in
// Histogram::add; it is now dropped, while +/-inf lands in the edge bins
// like any other out-of-range sample.
TEST(Histogram, NonFiniteSamplesAreHandled) {
  Histogram h(0.0, 10.0, 10);
  h.add(std::numeric_limits<double>::quiet_NaN());
  EXPECT_EQ(h.total(), 0U);
  h.add(std::numeric_limits<double>::infinity());
  h.add(-std::numeric_limits<double>::infinity());
  h.add(1e308);
  h.add(-1e308);
  EXPECT_EQ(h.total(), 4U);
  EXPECT_EQ(h.counts().front(), 2U);
  EXPECT_EQ(h.counts().back(), 2U);
}

}  // namespace
