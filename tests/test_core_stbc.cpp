// Alamouti STBC: combiner math, TX/RX loopback, and the diversity gain
// over spatial multiplexing at matched data rate.
#include <gtest/gtest.h>

#include "core/link_simulator.hpp"
#include "dsp/rng.hpp"
#include "eq/alamouti.hpp"

namespace {

using namespace mimonet;
using dsp::cf32;
using eq::alamouti_combine;
using eq::alamouti_map;

TEST(AlamoutiMap, MatchesDefinition) {
  const cf32 d1{0.3F, 0.4F};
  const cf32 d2{-0.7F, 0.1F};
  const auto m = alamouti_map(d1, d2);
  EXPECT_EQ(m.sts1_first, d1);
  EXPECT_EQ(m.sts1_second, d2);
  EXPECT_EQ(m.sts2_first, -std::conj(d2));
  EXPECT_EQ(m.sts2_second, std::conj(d1));
}

TEST(AlamoutiCombine, PerfectRecoveryNoiseless) {
  eq::CMatrix h(2, 2);
  h(0, 0) = {0.8, 0.3};
  h(0, 1) = {-0.2, 0.6};
  h(1, 0) = {0.1, -0.9};
  h(1, 1) = {0.5, 0.2};
  const cf32 d1{0.6F, -0.2F};
  const cf32 d2{-0.4F, 0.8F};
  const auto m = alamouti_map(d1, d2);

  std::vector<cf32> y1(2);
  std::vector<cf32> y2(2);
  for (std::size_t r = 0; r < 2; ++r) {
    const dsp::cf64 a = h(r, 0) * dsp::cf64(m.sts1_first) + h(r, 1) * dsp::cf64(m.sts2_first);
    const dsp::cf64 b =
        h(r, 0) * dsp::cf64(m.sts1_second) + h(r, 1) * dsp::cf64(m.sts2_second);
    y1[r] = cf32(static_cast<float>(a.real()), static_cast<float>(a.imag()));
    y2[r] = cf32(static_cast<float>(b.real()), static_cast<float>(b.imag()));
  }
  const auto dec = alamouti_combine(h, y1, y2, 0.01F);
  EXPECT_NEAR(std::abs(dec.d1 - d1), 0.0F, 1e-5F);
  EXPECT_NEAR(std::abs(dec.d2 - d2), 0.0F, 1e-5F);
}

TEST(AlamoutiCombine, NoiseVarScalesWithChannelGain) {
  eq::CMatrix strong = eq::CMatrix::identity(2);
  eq::CMatrix weak(2, 2);
  weak(0, 0) = {0.1, 0.0};
  weak(0, 1) = {0.1, 0.0};
  weak(1, 0) = {0.1, 0.0};
  weak(1, 1) = {0.1, 0.0};
  std::vector<cf32> y(2, cf32{0.1F, 0.0F});
  const auto a = alamouti_combine(strong, y, y, 0.1F);
  const auto b = alamouti_combine(weak, y, y, 0.1F);
  EXPECT_LT(a.noise_var, b.noise_var);
}

TEST(AlamoutiCombine, DimensionChecks) {
  const auto h = eq::CMatrix::identity(2);
  std::vector<cf32> y(2);
  std::vector<cf32> bad(3);
  EXPECT_THROW((void)alamouti_combine(h, bad, y, 0.1F), std::invalid_argument);
  const eq::CMatrix h3(2, 3);
  EXPECT_THROW((void)alamouti_combine(h3, y, y, 0.1F), std::invalid_argument);
}

TEST(StbcLoopback, RejectsMultiStreamMcs) {
  core::PhyConfig phy;
  phy.mcs = 9;
  phy.stbc = true;
  EXPECT_THROW(core::Transmitter{phy}, std::invalid_argument);
}

TEST(StbcLoopback, TransmitterUsesTwoChains) {
  core::PhyConfig phy;
  phy.mcs = 0;
  phy.stbc = true;
  const core::Transmitter tx(phy);
  EXPECT_EQ(tx.num_streams(), 2U);
  const auto streams = tx.transmit(std::vector<std::uint8_t>(100, 0x42));
  ASSERT_EQ(streams.size(), 2U);
  EXPECT_EQ(streams[0].size(), streams[1].size());
}

TEST(StbcLoopback, EvenSymbolCountEnforced) {
  const auto mcs = wifi::mcs_info(0);  // 26 data bits/symbol
  // 16 + 8 + 6 = 30 bits -> 2 symbols, already even.
  EXPECT_EQ(core::data_symbol_count(mcs, 1, true, true), 2U);
  // 16 + 8*4 + 6 = 54 bits -> 3 symbols -> rounded to 4 for STBC.
  EXPECT_EQ(core::data_symbol_count(mcs, 4, true, false), 3U);
  EXPECT_EQ(core::data_symbol_count(mcs, 4, true, true), 4U);
}

class StbcMcs : public ::testing::TestWithParam<unsigned> {};

TEST_P(StbcMcs, LoopbackDecodesOverFading) {
  auto cfg = core::make_link_config(GetParam(), 35.0, 2);
  cfg.phy.stbc = true;
  cfg.channel.ntx = 2;
  cfg.channel.fading = true;
  cfg.psdu_payload_bytes = 257;  // odd size exercises the pad path
  cfg.seed = 100 + GetParam();
  core::LinkSimulator sim(cfg);
  const auto res = sim.run(4);
  EXPECT_LE(res.per.failures(), 1U) << "MCS " << GetParam();
  bool any_ok = res.per.failures() < res.per.packets();
  EXPECT_TRUE(any_ok);
}

INSTANTIATE_TEST_SUITE_P(Mcs, StbcMcs, ::testing::Values(0U, 2U, 4U, 7U));

TEST(StbcLoopback, TwoByOneDiversityWorks) {
  // STBC's reason to exist: 2 TX antennas, ONE RX antenna still decodes.
  auto cfg = core::make_link_config(1, 30.0, 1);
  cfg.phy.stbc = true;
  cfg.channel.ntx = 2;
  cfg.channel.nrx = 1;
  cfg.channel.fading = true;
  cfg.seed = 4;
  core::LinkSimulator sim(cfg);
  const auto res = sim.run(5);
  EXPECT_LE(res.per.failures(), 1U);
}

TEST(StbcLoopback, HtSigCarriesStbcFlag) {
  auto cfg = core::make_link_config(3, 30.0, 2);
  cfg.phy.stbc = true;
  cfg.channel.ntx = 2;
  cfg.channel.fading = true;
  core::LinkSimulator sim(cfg);
  bool seen = false;
  (void)sim.run(core::RunOptions{.n_packets = 1}, [&](const core::PacketOutcome& o) {
    if (!o.detected) return;
    seen = true;
    EXPECT_EQ(o.rx.htsig.stbc, 1);
    EXPECT_TRUE(o.rx.fcs_ok);
  });
  EXPECT_TRUE(seen);
}

TEST(StbcVsSm, DiversityWinsAtMatchedRate) {
  // 26 Mb/s two ways: STBC 16-QAM 1/2 (MCS 3 + Alamouti) vs SM QPSK 1/2 x2
  // (MCS 9), 2x2 Rayleigh at moderate SNR. Diversity order 4 vs 2: STBC
  // must lose no more packets.
  auto stbc = core::make_link_config(3, 12.0, 2);
  stbc.phy.stbc = true;
  stbc.channel.ntx = 2;
  stbc.channel.fading = true;
  stbc.seed = 77;
  auto sm = core::make_link_config(9, 12.0, 2);
  sm.channel.fading = true;
  sm.seed = 77;
  const auto r_stbc = core::LinkSimulator(stbc).run(40);
  const auto r_sm = core::LinkSimulator(sm).run(40);
  EXPECT_LE(r_stbc.per.failures(), r_sm.per.failures() + 1);
}

class MultiStreamMcs : public ::testing::TestWithParam<unsigned> {};

TEST_P(MultiStreamMcs, ThreeAndFourStreamLoopback) {
  auto cfg = core::make_link_config(GetParam(), 40.0);
  cfg.psdu_payload_bytes = 300;
  core::LinkSimulator sim(cfg);
  const auto res = sim.run(2);
  EXPECT_EQ(res.per.failures(), 0U) << "MCS " << GetParam();
  EXPECT_EQ(res.ber.errors(), 0U);
}

INSTANTIATE_TEST_SUITE_P(Mcs, MultiStreamMcs,
                         ::testing::Values(16U, 18U, 21U, 23U, 24U, 27U, 31U));

TEST(MultiStream, FourStreamFadingWithExtraRx) {
  auto cfg = core::make_link_config(25, 35.0, 4);
  cfg.channel.fading = true;
  cfg.seed = 15;
  core::LinkSimulator sim(cfg);
  const auto res = sim.run(3);
  EXPECT_LE(res.per.failures(), 1U);
}

}  // namespace
