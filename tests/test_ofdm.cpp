// OFDM layer: subcarrier maps, pilots, symbol modulation round trips,
// cyclic shifts.
#include <gtest/gtest.h>

#include <random>

#include "dsp/vector_ops.hpp"
#include "ofdm/pilots.hpp"
#include "ofdm/subcarriers.hpp"
#include "ofdm/symbol.hpp"

namespace {

using namespace mimonet::ofdm;
using mimonet::dsp::cf32;

TEST(SubcarrierMap, LegacyCounts) {
  const SubcarrierMap m(CarrierPlan::kLegacy);
  EXPECT_EQ(m.num_data(), 48U);
  EXPECT_EQ(m.num_pilots(), 4U);
  EXPECT_EQ(m.num_occupied(), 52U);
}

TEST(SubcarrierMap, HtCounts) {
  const SubcarrierMap m(CarrierPlan::kHt);
  EXPECT_EQ(m.num_data(), 52U);
  EXPECT_EQ(m.num_occupied(), 56U);
}

TEST(SubcarrierMap, DcAndPilotsExcludedFromData) {
  const SubcarrierMap m(CarrierPlan::kHt);
  for (const int k : m.data_logical()) {
    EXPECT_NE(k, 0);
    for (const int p : kPilotCarriers) EXPECT_NE(k, p);
  }
}

TEST(SubcarrierMap, LogicalToBinWraps) {
  EXPECT_EQ(SubcarrierMap::logical_to_bin(0), 0U);
  EXPECT_EQ(SubcarrierMap::logical_to_bin(1), 1U);
  EXPECT_EQ(SubcarrierMap::logical_to_bin(-1), 63U);
  EXPECT_EQ(SubcarrierMap::logical_to_bin(-26), 38U);
  EXPECT_EQ(SubcarrierMap::logical_to_bin(26), 26U);
}

TEST(SubcarrierMap, DataBinsAscendByLogicalIndex) {
  const SubcarrierMap m(CarrierPlan::kHt);
  const auto& logical = m.data_logical();
  for (std::size_t i = 1; i < logical.size(); ++i) {
    EXPECT_LT(logical[i - 1], logical[i]);
  }
}

TEST(Pilots, PolarityIs127Periodic) {
  for (std::size_t i = 0; i < 127; ++i) {
    EXPECT_EQ(pilot_polarity(i), pilot_polarity(i + 127));
  }
}

TEST(Pilots, PolarityFirstValueIsPositive) {
  // p_0 = +1 per 802.11 (first scrambler output bit with all-ones seed is 0).
  EXPECT_EQ(pilot_polarity(0), 1.0F);
}

TEST(Pilots, PatternsAreOrthogonalAcrossStreams) {
  // The 2-stream pilot patterns must be orthogonal over the 4 tones so the
  // receiver can separate per-stream pilot contributions.
  const auto p0 = pilot_pattern(2, 0);
  const auto p1 = pilot_pattern(2, 1);
  float dot = 0.0F;
  for (std::size_t i = 0; i < 4; ++i) dot += p0[i] * p1[i];
  EXPECT_FLOAT_EQ(dot, 0.0F);
}

TEST(Pilots, InvalidStreamIndexThrows) {
  EXPECT_THROW(static_cast<void>(pilot_pattern(2, 2)), std::invalid_argument);
  EXPECT_THROW(static_cast<void>(pilot_pattern(5, 0)), std::invalid_argument);
}

TEST(Pilots, HtDataPilotsRotateAcrossSymbols) {
  // The pattern slides one tone per symbol: tone p of symbol n equals tone
  // (p+1) of symbol n-1 up to the polarity factor.
  const auto s0 = ht_data_pilots(2, 0, 0);
  const auto s1 = ht_data_pilots(2, 0, 1);
  const float pol0 = pilot_polarity(3);
  const float pol1 = pilot_polarity(4);
  for (std::size_t p = 0; p < 3; ++p) {
    EXPECT_FLOAT_EQ(s1[p].real() / pol1, s0[p + 1].real() / pol0);
  }
}

TEST(Pilots, LegacyValuesFollowPolarity) {
  const auto v = legacy_pilot_values(0);
  EXPECT_FLOAT_EQ(v[0].real(), 1.0F);
  EXPECT_FLOAT_EQ(v[3].real(), -1.0F);
}

class SymbolRoundTrip : public ::testing::TestWithParam<CarrierPlan> {};

TEST_P(SymbolRoundTrip, ModulateDemodulateRecoversCarriers) {
  const CarrierPlan plan = GetParam();
  const SymbolModulator mod(plan);
  const SymbolDemodulator demod(plan);

  std::mt19937 rng(5);
  std::uniform_real_distribution<float> d(-1.0F, 1.0F);
  std::vector<cf32> data(mod.map().num_data());
  for (auto& v : data) v = cf32(d(rng), d(rng));
  const std::array<cf32, 4> pilots{cf32{1, 0}, cf32{1, 0}, cf32{1, 0}, cf32{-1, 0}};

  std::vector<cf32> time;
  mod.modulate(data, pilots, time);
  ASSERT_EQ(time.size(), kSymLen);

  const auto sym = demod.demodulate(time);
  ASSERT_EQ(sym.data.size(), data.size());
  for (std::size_t i = 0; i < data.size(); ++i) {
    EXPECT_NEAR(std::abs(sym.data[i] - data[i]), 0.0F, 1e-4F) << "carrier " << i;
  }
  for (std::size_t p = 0; p < 4; ++p) {
    EXPECT_NEAR(std::abs(sym.pilots[p] - pilots[p]), 0.0F, 1e-4F);
  }
}

TEST_P(SymbolRoundTrip, CyclicPrefixIsCopyOfTail) {
  const CarrierPlan plan = GetParam();
  const SymbolModulator mod(plan);
  std::vector<cf32> data(mod.map().num_data(), cf32{0.5F, -0.5F});
  const std::array<cf32, 4> pilots{cf32{1, 0}, cf32{1, 0}, cf32{1, 0}, cf32{-1, 0}};
  std::vector<cf32> time;
  mod.modulate(data, pilots, time);
  for (std::size_t i = 0; i < kCpLen; ++i) {
    EXPECT_NEAR(std::abs(time[i] - time[kFftSize + i]), 0.0F, 1e-5F);
  }
}

INSTANTIATE_TEST_SUITE_P(Plans, SymbolRoundTrip,
                         ::testing::Values(CarrierPlan::kLegacy, CarrierPlan::kHt));

TEST(SymbolModulator, WrongCarrierCountThrows) {
  const SymbolModulator mod(CarrierPlan::kHt);
  std::vector<cf32> bad(48);
  const std::array<cf32, 4> pilots{};
  std::vector<cf32> out;
  EXPECT_THROW(mod.modulate(bad, pilots, out), std::invalid_argument);
}

TEST(SymbolDemodulator, WrongLengthThrows) {
  const SymbolDemodulator demod(CarrierPlan::kHt);
  std::vector<cf32> bad(79);
  EXPECT_THROW(demod.demodulate(bad), std::invalid_argument);
}

TEST(CyclicShiftGrid, EquivalentToTimeRotation) {
  // IFFT(shifted grid) == circular rotation of IFFT(grid).
  std::mt19937 rng(17);
  std::uniform_real_distribution<float> d(-1.0F, 1.0F);
  std::vector<cf32> grid(kFftSize);
  for (auto& v : grid) v = cf32(d(rng), d(rng));

  const mimonet::dsp::FftPlan plan(kFftSize);
  std::vector<cf32> time_ref(kFftSize);
  plan.inverse(grid, time_ref);

  auto shifted = grid;
  const int cs = -4;
  cyclic_shift_grid(shifted, cs);
  std::vector<cf32> time_shifted(kFftSize);
  plan.inverse(shifted, time_shifted);

  // x_cs[n] = x[(n - cs) mod 64]
  for (std::size_t n = 0; n < kFftSize; ++n) {
    const std::size_t src = (n + kFftSize - static_cast<std::size_t>(
                                                 (cs % 64 + 64) % 64)) %
                            kFftSize;
    EXPECT_NEAR(std::abs(time_shifted[n] - time_ref[src]), 0.0F, 1e-4F) << n;
  }
}

TEST(CyclicShiftGrid, ZeroShiftIsIdentity) {
  std::vector<cf32> grid(kFftSize, cf32{1.0F, 2.0F});
  const auto ref = grid;
  cyclic_shift_grid(grid, 0);
  EXPECT_EQ(grid.size(), ref.size());
  for (std::size_t i = 0; i < grid.size(); ++i) {
    EXPECT_EQ(grid[i], ref[i]);
  }
}

}  // namespace
