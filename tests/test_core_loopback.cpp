// End-to-end transceiver loopback: every MCS, impairments, configuration
// ablations, and failure behaviour.
#include <gtest/gtest.h>

#include "core/link_simulator.hpp"
#include "dsp/vector_ops.hpp"
#include "receive_util.hpp"
#include "wifi/psdu.hpp"

namespace {

using namespace mimonet;
using core::LinkConfig;
using core::LinkSimulator;

LinkConfig clean_config(unsigned mcs, double snr_db = 35.0) {
  auto cfg = core::make_link_config(mcs, snr_db);
  cfg.psdu_payload_bytes = 200;
  return cfg;
}

class AllMcsLoopback : public ::testing::TestWithParam<unsigned> {};

TEST_P(AllMcsLoopback, HighSnrDecodesPerfectly) {
  LinkSimulator sim(clean_config(GetParam()));
  const auto res = sim.run(3);
  EXPECT_EQ(res.per.failures(), 0U) << "MCS " << GetParam();
  EXPECT_EQ(res.ber.errors(), 0U);
  EXPECT_EQ(res.undetected, 0U);
}

TEST_P(AllMcsLoopback, SurvivesCfoAndFading) {
  auto cfg = clean_config(GetParam(), 38.0);
  cfg.channel.cfo_norm = 5e-4;
  cfg.channel.fading = true;
  cfg.channel.profile = channel::DelayProfile::kShort;
  cfg.channel.nrx = cfg.channel.ntx;  // square system
  cfg.seed = 11 + GetParam();
  LinkSimulator sim(cfg);
  const auto res = sim.run(4);
  // Rayleigh fading can still kill a packet; demand most get through at
  // very high SNR with MMSE.
  EXPECT_LE(res.per.failures(), 1U) << "MCS " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Mcs, AllMcsLoopback,
                         ::testing::Values(0U, 1U, 2U, 3U, 4U, 5U, 6U, 7U, 8U, 9U,
                                           10U, 11U, 12U, 13U, 14U, 15U));

TEST(Loopback, DecodedHtSigMatchesConfig) {
  auto cfg = clean_config(12);
  LinkSimulator sim(cfg);
  bool saw_packet = false;
  (void)sim.run(core::RunOptions{.n_packets = 1}, [&](const core::PacketOutcome& o) {
    if (!o.detected) return;
    saw_packet = true;
    EXPECT_TRUE(o.rx.htsig_ok);
    EXPECT_EQ(o.rx.htsig.mcs, 12);
    EXPECT_EQ(o.rx.htsig.length, o.sent_psdu.size());
    EXPECT_TRUE(o.rx.lsig_ok);
    EXPECT_EQ(o.rx.psdu, o.sent_psdu);
  });
  EXPECT_TRUE(saw_packet);
}

TEST(Loopback, ZeroLengthPayloadWorks) {
  auto cfg = clean_config(0);
  cfg.psdu_payload_bytes = 0;  // MAC header + FCS only
  LinkSimulator sim(cfg);
  const auto res = sim.run(2);
  EXPECT_EQ(res.per.failures(), 0U);
}

TEST(Loopback, LargePayloadWorks) {
  auto cfg = clean_config(15);
  cfg.psdu_payload_bytes = 4000;
  LinkSimulator sim(cfg);
  const auto res = sim.run(1);
  EXPECT_EQ(res.per.failures(), 0U);
}

TEST(Loopback, NonDefaultScramblerSeedRecovered) {
  auto cfg = clean_config(3);
  cfg.phy.scrambler_seed = 0x2B;
  LinkSimulator sim(cfg);
  const auto res = sim.run(2);
  EXPECT_EQ(res.per.failures(), 0U);
}

class EqualizerLoopback : public ::testing::TestWithParam<eq::EqualizerType> {};

TEST_P(EqualizerLoopback, DecodesMimoPacket) {
  auto cfg = clean_config(10);  // 2 streams, QPSK 3/4
  cfg.phy.equalizer = GetParam();
  cfg.channel.fading = true;
  cfg.channel.snr_db = 35.0;
  cfg.seed = 3;
  LinkSimulator sim(cfg);
  const auto res = sim.run(4);
  EXPECT_LE(res.per.failures(), 1U);
}

INSTANTIATE_TEST_SUITE_P(Types, EqualizerLoopback,
                         ::testing::Values(eq::EqualizerType::kZeroForcing,
                                           eq::EqualizerType::kMmse,
                                           eq::EqualizerType::kMaxLikelihood));

TEST(Loopback, VanDeBeekTimingModeDecodes) {
  auto cfg = clean_config(9);
  cfg.phy.timing_mode = sync::TimingMode::kVanDeBeekMimo;
  cfg.channel.cfo_norm = 3e-4;
  LinkSimulator sim(cfg);
  const auto res = sim.run(3);
  EXPECT_EQ(res.per.failures(), 0U);
}

TEST(Loopback, FecDisabledStillDecodesCleanChannel) {
  auto cfg = clean_config(1, 30.0);
  cfg.phy.fec_enabled = false;
  LinkSimulator sim(cfg);
  const auto res = sim.run(3);
  EXPECT_EQ(res.per.failures(), 0U);
}

TEST(Loopback, FecBeatsNoFecAtModerateSnr) {
  // The paper's FEC-concatenation ablation in miniature.
  auto with_fec = clean_config(1, 6.0);
  auto without = clean_config(1, 6.0);
  without.phy.fec_enabled = false;
  with_fec.seed = without.seed = 21;
  const auto r_fec = LinkSimulator(with_fec).run(20);
  const auto r_raw = LinkSimulator(without).run(20);
  EXPECT_LT(r_fec.per.per(), r_raw.per.per() + 1e-9);
  EXPECT_LT(r_fec.ber.ber(), r_raw.ber.ber() + 1e-9);
}

TEST(Loopback, SmoothingOffStillWorks) {
  auto cfg = clean_config(5);
  cfg.phy.smoothing = false;
  LinkSimulator sim(cfg);
  EXPECT_EQ(sim.run(2).per.failures(), 0U);
}

TEST(Loopback, PhaseTrackingRescuesResidualCfo) {
  // Large-ish CFO: the residual after coarse+fine estimation rotates the
  // constellation across a long packet; pilot tracking must fix it.
  auto with_pt = clean_config(7, 30.0);
  with_pt.psdu_payload_bytes = 1500;
  with_pt.channel.cfo_norm = 1.2e-3;
  auto without = with_pt;
  without.phy.phase_tracking = false;
  with_pt.seed = without.seed = 33;

  const auto r_on = LinkSimulator(with_pt).run(6);
  const auto r_off = LinkSimulator(without).run(6);
  EXPECT_EQ(r_on.per.failures(), 0U);
  EXPECT_LE(r_on.ber.errors(), r_off.ber.errors());
}

TEST(Loopback, SnrEstimateTracksTrueSnr) {
  for (const double snr : {5.0, 15.0, 25.0}) {
    auto cfg = clean_config(0, snr);
    LinkSimulator sim(cfg);
    const auto res = sim.run(8);
    ASSERT_GT(res.snr_est_db.count(), 0U);
    EXPECT_NEAR(res.snr_est_db.mean(), snr, 1.5) << "SNR " << snr;
  }
}

TEST(Loopback, TimingErrorIsSmall) {
  auto cfg = clean_config(8, 25.0);
  LinkSimulator sim(cfg);
  const auto res = sim.run(10);
  EXPECT_LE(std::abs(res.timing_err.mean()), 5.0);
  EXPECT_LE(res.timing_err.max() - res.timing_err.min(), 12.0);
}

TEST(Loopback, CfoEstimateIsAccurate) {
  auto cfg = clean_config(0, 25.0);
  cfg.channel.cfo_norm = 7e-4;
  LinkSimulator sim(cfg);
  const auto res = sim.run(10);
  EXPECT_LE(std::abs(res.cfo_err.mean()), 5e-5);
}

TEST(Loopback, LowSnrProducesErrorsButNoCrash) {
  auto cfg = clean_config(7, -2.0);  // 64-QAM 5/6 at -2 dB: hopeless
  cfg.psdu_payload_bytes = 500;
  LinkSimulator sim(cfg);
  const auto res = sim.run(5);
  EXPECT_GT(res.per.failures() + res.undetected, 0U);
}

TEST(Loopback, QuantizedFrontEndStillDecodes) {
  auto cfg = clean_config(4, 30.0);
  cfg.channel.adc_bits = 10;
  cfg.channel.adc_full_scale = 4.0F;
  LinkSimulator sim(cfg);
  EXPECT_EQ(sim.run(3).per.failures(), 0U);
}

TEST(Loopback, SampleClockOffsetToleratedShortPacket) {
  auto cfg = clean_config(1, 30.0);
  cfg.psdu_payload_bytes = 100;
  cfg.channel.sfo_ppm = 20.0;
  LinkSimulator sim(cfg);
  EXPECT_EQ(sim.run(3).per.failures(), 0U);
}

TEST(Loopback, AsymmetricArrayMoreRxHelps) {
  // 2x2 vs 2x3: extra RX antenna must not hurt (diversity gain).
  auto square = clean_config(9, 14.0);
  square.channel.fading = true;
  auto tall = square;
  tall.channel.nrx = 3;
  square.seed = tall.seed = 5;
  const auto r2 = LinkSimulator(square).run(30);
  const auto r3 = LinkSimulator(tall).run(30);
  EXPECT_LE(r3.per.failures(), r2.per.failures() + 2);
}

TEST(Receiver, WrongAntennaCountThrows) {
  core::Receiver rx(core::PhyConfig{}, 2);
  std::vector<std::vector<dsp::cf32>> capture(1, std::vector<dsp::cf32>(1000));
  EXPECT_THROW((void)testutil::receive_once(rx, capture),
               std::invalid_argument);
}

TEST(Receiver, TruncatedCaptureIsSafe) {
  core::PhyConfig phy;
  phy.mcs = 0;
  const core::Transmitter tx(phy);
  const auto psdu = wifi::build_psdu(wifi::MacHeader{},
                                     std::vector<std::uint8_t>(500, 1));
  auto streams = tx.transmit(psdu);
  // Chop off the data field mid-way.
  streams[0].resize(streams[0].size() - 500);
  channel::ChannelConfig ccfg;
  ccfg.timing_pad = 300;
  ccfg.tail_pad = 50;
  ccfg.snr_db = 30.0;
  channel::MimoChannel chan(ccfg);
  const auto capture = chan.transmit(streams);
  core::Receiver rx(phy, 1);
  const auto pkt = testutil::receive_once(rx, capture);
  if (pkt) EXPECT_FALSE(pkt->fcs_ok);
}

TEST(Transmitter, PsduTooLargeThrows) {
  core::Transmitter tx(core::PhyConfig{});
  EXPECT_THROW((void)tx.transmit(std::vector<std::uint8_t>(70000)),
               std::invalid_argument);
}

TEST(Transmitter, StreamsHaveEqualLengthAndExpectedPower) {
  core::PhyConfig phy;
  phy.mcs = 10;
  const core::Transmitter tx(phy);
  const auto streams = tx.transmit(std::vector<std::uint8_t>(300, 0x77));
  ASSERT_EQ(streams.size(), 2U);
  EXPECT_EQ(streams[0].size(), streams[1].size());
  // Each stream carries ~1/nss of the unit total power.
  EXPECT_NEAR(dsp::mean_power(streams[0]), 0.5, 0.1);
  EXPECT_NEAR(dsp::mean_power(streams[1]), 0.5, 0.1);
}

TEST(Transmitter, LayoutMatchesEmittedSamples) {
  core::PhyConfig phy;
  phy.mcs = 13;
  const core::Transmitter tx(phy);
  const std::vector<std::uint8_t> psdu(777, 0xAB);
  EXPECT_EQ(tx.transmit(psdu)[0].size(), tx.layout(psdu.size()).total_samples());
}

TEST(FrameLayout, OffsetsAreOrdered) {
  core::FrameLayout fl;
  fl.nss = 2;
  fl.n_data_symbols = 10;
  EXPECT_EQ(fl.lltf_offset(), 160U);
  EXPECT_EQ(fl.lsig_offset(), 320U);
  EXPECT_EQ(fl.htsig_offset(), 400U);
  EXPECT_EQ(fl.htstf_offset(), 560U);
  EXPECT_EQ(fl.htltf_offset(), 640U);
  EXPECT_EQ(fl.data_offset(), 640U + 2 * 80U);
  EXPECT_EQ(fl.total_samples(), 800U + 800U);
  EXPECT_NEAR(fl.airtime_us(), 80.0, 1e-9);
}

TEST(DataSymbolCount, RoundsUpToWholeSymbols) {
  const auto mcs = wifi::mcs_info(0);  // 26 data bits/symbol
  // 16 + 8*1 + 6 = 30 bits -> 2 symbols.
  EXPECT_EQ(core::data_symbol_count(mcs, 1, true), 2U);
  // 16 + 0 + 6 = 22 -> 1 symbol.
  EXPECT_EQ(core::data_symbol_count(mcs, 0, true), 1U);
}

}  // namespace
