// Cross-module integration properties: determinism, monotonicity, and
// whole-system invariants that no single module test can see.
#include <gtest/gtest.h>

#include "core/link_simulator.hpp"
#include "core/phy_blocks.hpp"
#include "flowgraph/blocks.hpp"
#include "flowgraph/graph.hpp"
#include "wifi/psdu.hpp"

namespace {

using namespace mimonet;

TEST(Integration, SameSeedReproducesBitExactResults) {
  // The entire experiment suite leans on this: a LinkConfig fully
  // determines the outcome.
  auto make = [] {
    auto cfg = core::make_link_config(11, 12.0);
    cfg.channel.fading = true;
    cfg.channel.cfo_norm = 3e-4;
    cfg.seed = 1234;
    return cfg;
  };
  auto a = core::LinkSimulator(make()).run(10);
  auto b = core::LinkSimulator(make()).run(10);
  EXPECT_EQ(a.per.failures(), b.per.failures());
  EXPECT_EQ(a.ber.errors(), b.ber.errors());
  EXPECT_EQ(a.undetected, b.undetected);
  EXPECT_DOUBLE_EQ(a.snr_est_db.mean(), b.snr_est_db.mean());
}

TEST(Integration, DifferentSeedsDiffer) {
  auto cfg = core::make_link_config(11, 12.0);
  cfg.channel.fading = true;
  cfg.seed = 1;
  const auto a = core::LinkSimulator(cfg).run(10);
  cfg.seed = 2;
  const auto b = core::LinkSimulator(cfg).run(10);
  // Fading draws differ, so at least the SNR estimates must differ.
  EXPECT_NE(a.snr_est_db.mean(), b.snr_est_db.mean());
}

TEST(Integration, PerIsMonotoneInSnrCoarsely) {
  // Allow one inversion from Monte-Carlo noise, but the trend must hold.
  std::vector<double> per;
  for (const double snr : {2.0, 6.0, 10.0, 14.0}) {
    auto cfg = core::make_link_config(3, snr);
    cfg.psdu_payload_bytes = 400;
    cfg.seed = 31;
    per.push_back(core::LinkSimulator(cfg).run(15).per.per());
  }
  EXPECT_GE(per.front(), per.back());
  EXPECT_EQ(per.back(), 0.0);
  std::size_t inversions = 0;
  for (std::size_t i = 1; i < per.size(); ++i) {
    if (per[i] > per[i - 1] + 1e-9) ++inversions;
  }
  EXPECT_LE(inversions, 1U);
}

TEST(Integration, AirtimeScalesInverselyWithMcs) {
  core::PhyConfig lo;
  lo.mcs = 0;
  core::PhyConfig hi;
  hi.mcs = 7;
  const core::Transmitter tx_lo(lo);
  const core::Transmitter tx_hi(hi);
  const double t_lo = tx_lo.layout(1500).airtime_us();
  const double t_hi = tx_hi.layout(1500).airtime_us();
  EXPECT_GT(t_lo, 5.0 * t_hi);  // 6.5 vs 65 Mb/s, preamble amortized
}

TEST(Integration, NStsHelper) {
  core::PhyConfig cfg;
  cfg.mcs = 3;
  EXPECT_EQ(cfg.n_sts(), 1U);
  cfg.stbc = true;
  EXPECT_EQ(cfg.n_sts(), 2U);
  cfg.stbc = false;
  cfg.mcs = 20;
  EXPECT_EQ(cfg.n_sts(), 3U);
}

TEST(Integration, ReceiverBlockSurvivesStreamEndingMidPacket) {
  // The flowgraph receiver must flush cleanly when the stream stops inside
  // a packet (e.g. the capture was cut short).
  core::PhyConfig phy;
  phy.mcs = 0;
  const core::Transmitter tx(phy);
  const auto psdu = wifi::build_psdu(wifi::MacHeader{},
                                     std::vector<std::uint8_t>(800, 1));
  auto streams = tx.transmit(psdu);
  streams[0].resize(streams[0].size() / 2);  // cut mid-data-field
  streams[0].insert(streams[0].begin(), 500, dsp::cf32{0.0F, 0.0F});

  auto src = std::make_shared<flowgraph::VectorSource<dsp::cf32>>(streams[0]);
  auto rx = std::make_shared<core::ReceiverBlock>(phy, 1);
  flowgraph::Graph g;
  g.add(src);
  g.add(rx);
  g.connect<dsp::cf32>(*src, 0, *rx, 0);
  EXPECT_NO_THROW(flowgraph::run_single_threaded(g));
  for (const auto& pkt : rx->packets()) {
    EXPECT_FALSE(pkt.fcs_ok);
  }
}

TEST(Integration, ResidualCfoReportedByTrackerMatchesInjectedError) {
  // Inject a CFO slightly beyond what coarse+fine estimation nails; the
  // pilot tracker's slope must report the leftover with the right sign.
  auto cfg = core::make_link_config(1, 28.0);
  cfg.psdu_payload_bytes = 1500;
  cfg.channel.cfo_norm = 9e-4;
  cfg.seed = 77;
  core::LinkSimulator sim(cfg);
  dsp::RunningStats resid;
  (void)sim.run(core::RunOptions{.n_packets = 6}, [&](const core::PacketOutcome& o) {
    if (!o.detected) return;
    // total estimate = sync estimate + residual seen by the tracker.
    resid.add(o.rx.sync.cfo_norm + o.rx.residual_cfo_norm);
  });
  ASSERT_GT(resid.count(), 0U);
  EXPECT_NEAR(resid.mean(), 9e-4, 5e-5);
}

TEST(Integration, EveryMcsLayoutIsSelfConsistent) {
  for (unsigned mcs = 0; mcs <= wifi::kMaxMcs; ++mcs) {
    core::PhyConfig cfg;
    cfg.mcs = mcs;
    const core::Transmitter tx(cfg);
    const core::FrameLayout fl = tx.layout(1000);
    EXPECT_EQ(fl.nss, wifi::mcs_info(mcs).nss);
    EXPECT_GT(fl.n_data_symbols, 0U);
    EXPECT_EQ(fl.total_samples(),
              fl.data_offset() + fl.n_data_symbols * ofdm::kSymLen);
    // Data bits must fit: symbols * Ndbps >= service + psdu + tail.
    EXPECT_GE(fl.n_data_symbols * wifi::mcs_info(mcs).data_bits_per_symbol(),
              core::kServiceBits + 8000 + core::kTailBits);
  }
}

TEST(Integration, LinkSimulatorCountsUndetectedSeparately) {
  auto cfg = core::make_link_config(0, -15.0);  // buried in noise
  cfg.psdu_payload_bytes = 100;
  core::LinkSimulator sim(cfg);
  const auto res = sim.run(4);
  EXPECT_EQ(res.undetected, 4U);
  EXPECT_EQ(res.per.failures(), 4U);
  EXPECT_EQ(res.ber.bits(), 0U);  // nothing decoded, nothing compared
}

}  // namespace
