// Constellation mapping/demapping: energy normalization, Gray property,
// round trips and LLR behaviour.
#include <gtest/gtest.h>

#include <bit>
#include <random>

#include "mod/constellation.hpp"

namespace {

using namespace mimonet::mod;
using mimonet::dsp::cf32;
using mimonet::dsp::mag_sqr;

class AllModulations : public ::testing::TestWithParam<Modulation> {};

TEST_P(AllModulations, UnitAverageEnergy) {
  const Constellation c(GetParam());
  double total = 0.0;
  for (const auto p : c.points()) total += mag_sqr(p);
  EXPECT_NEAR(total / static_cast<double>(c.size()), 1.0, 1e-5);
}

TEST_P(AllModulations, PointCountMatchesBits) {
  const Constellation c(GetParam());
  EXPECT_EQ(c.size(), std::size_t{1} << c.bits_per_symbol());
}

TEST_P(AllModulations, AllPointsDistinct) {
  const Constellation c(GetParam());
  for (std::size_t i = 0; i < c.size(); ++i) {
    for (std::size_t j = i + 1; j < c.size(); ++j) {
      EXPECT_GT(mag_sqr(c.points()[i] - c.points()[j]), 1e-6F);
    }
  }
}

TEST_P(AllModulations, GrayNeighborsDifferInOneBit) {
  // For every point, its nearest neighbours must differ in exactly one bit —
  // the defining property of Gray mapping (minimizes bit errors per symbol
  // error).
  const Constellation c(GetParam());
  if (c.size() < 4) GTEST_SKIP() << "BPSK has a single axis";
  // Find the minimum inter-point distance.
  float dmin = 1e9F;
  for (std::size_t i = 0; i < c.size(); ++i) {
    for (std::size_t j = i + 1; j < c.size(); ++j) {
      dmin = std::min(dmin, mag_sqr(c.points()[i] - c.points()[j]));
    }
  }
  for (std::size_t i = 0; i < c.size(); ++i) {
    for (std::size_t j = 0; j < c.size(); ++j) {
      if (i == j) continue;
      if (mag_sqr(c.points()[i] - c.points()[j]) < dmin * 1.01F) {
        EXPECT_EQ(std::popcount(i ^ j), 1) << "labels " << i << " vs " << j;
      }
    }
  }
}

TEST_P(AllModulations, MapDemapRoundTrip) {
  const Constellation c(GetParam());
  std::mt19937 rng(static_cast<unsigned>(c.size()));
  std::vector<std::uint8_t> bits(c.bits_per_symbol() * 64);
  for (auto& b : bits) b = static_cast<std::uint8_t>(rng() & 1U);
  const auto symbols = c.map_all(bits);
  const auto back = c.demap_hard(symbols);
  EXPECT_EQ(back, bits);
}

TEST_P(AllModulations, SoftDemapSignsMatchHardDecision) {
  const Constellation c(GetParam());
  const unsigned bps = c.bits_per_symbol();
  std::vector<float> llrs(bps);
  for (std::size_t label = 0; label < c.size(); ++label) {
    c.demap_soft(c.points()[label], 0.1F, llrs);
    for (unsigned b = 0; b < bps; ++b) {
      const bool bit = ((label >> (bps - 1 - b)) & 1U) != 0;
      // Positive LLR = bit 0: a transmitted 1 must give a negative LLR.
      if (bit) {
        EXPECT_LT(llrs[b], 0.0F) << "label " << label << " bit " << b;
      } else {
        EXPECT_GT(llrs[b], 0.0F) << "label " << label << " bit " << b;
      }
    }
  }
}

TEST_P(AllModulations, LlrScalesInverselyWithNoise) {
  const Constellation c(GetParam());
  const unsigned bps = c.bits_per_symbol();
  std::vector<float> llr_low(bps);
  std::vector<float> llr_high(bps);
  const cf32 y = c.points()[0] * 0.9F;
  c.demap_soft(y, 0.1F, llr_low);
  c.demap_soft(y, 1.0F, llr_high);
  for (unsigned b = 0; b < bps; ++b) {
    EXPECT_NEAR(llr_low[b], 10.0F * llr_high[b], 1e-3F * std::abs(llr_low[b]) + 1e-5F);
  }
}

INSTANTIATE_TEST_SUITE_P(Mods, AllModulations,
                         ::testing::Values(Modulation::kBpsk, Modulation::kQpsk,
                                           Modulation::kQam16, Modulation::kQam64));

TEST(Constellation, BpskPointsOnRealAxis) {
  const Constellation c(Modulation::kBpsk);
  EXPECT_FLOAT_EQ(c.points()[0].real(), -1.0F);
  EXPECT_FLOAT_EQ(c.points()[1].real(), 1.0F);
  EXPECT_FLOAT_EQ(c.points()[0].imag(), 0.0F);
}

TEST(Constellation, QpskMatches80211Table) {
  const Constellation c(Modulation::kQpsk);
  const float s = 1.0F / std::sqrt(2.0F);
  // b0 -> I, b1 -> Q; 0 -> -1, 1 -> +1.
  EXPECT_NEAR(c.points()[0b00].real(), -s, 1e-6F);
  EXPECT_NEAR(c.points()[0b00].imag(), -s, 1e-6F);
  EXPECT_NEAR(c.points()[0b10].real(), s, 1e-6F);
  EXPECT_NEAR(c.points()[0b01].imag(), s, 1e-6F);
}

TEST(Constellation, Qam16CornerValues) {
  const Constellation c(Modulation::kQam16);
  const float s = 1.0F / std::sqrt(10.0F);
  // I bits 00 -> -3, Q bits 00 -> -3.
  EXPECT_NEAR(c.points()[0b0000].real(), -3.0F * s, 1e-6F);
  EXPECT_NEAR(c.points()[0b0000].imag(), -3.0F * s, 1e-6F);
  // I bits 10 -> +3.
  EXPECT_NEAR(c.points()[0b1000].real(), 3.0F * s, 1e-6F);
}

TEST(Constellation, MapRejectsWrongBitCount) {
  const Constellation c(Modulation::kQam16);
  std::vector<std::uint8_t> bits(3);
  EXPECT_THROW(static_cast<void>(c.map(bits)), std::invalid_argument);
  EXPECT_THROW(c.map_all(std::vector<std::uint8_t>(7)), std::invalid_argument);
}

TEST(Constellation, DemapSoftAllRejectsCsiMismatch) {
  const Constellation c(Modulation::kQpsk);
  std::vector<cf32> symbols(4);
  std::vector<float> nv(3);
  EXPECT_THROW(c.demap_soft_all(symbols, nv), std::invalid_argument);
}

TEST(Constellation, HardDecisionPicksNearestUnderNoise) {
  const Constellation c(Modulation::kQam64);
  // Offset each point by less than half the minimum distance: decision must
  // still be exact.
  const float delta = 0.05F;
  for (std::size_t label = 0; label < c.size(); ++label) {
    const cf32 y = c.points()[label] + cf32(delta, -delta);
    EXPECT_EQ(c.hard_decision(y), label);
  }
}

TEST(ModulationNames, AreHumanReadable) {
  EXPECT_EQ(modulation_name(Modulation::kBpsk), "BPSK");
  EXPECT_EQ(modulation_name(Modulation::kQam64), "64-QAM");
  EXPECT_EQ(bits_per_symbol(Modulation::kQam16), 4U);
}

}  // namespace
