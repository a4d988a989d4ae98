// Multi-user MIMO: precoder algebra, virtual-stream transmit identity, CSI
// staleness semantics, downlink/uplink round trips, the N_users = 1 pin
// against the single-user engine, and thread-count invariance of the MU
// Monte-Carlo fold.
#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <complex>
#include <span>
#include <vector>

#include "channel/fault_plan.hpp"
#include "channel/mimo_channel.hpp"
#include "channel/multi_user_channel.hpp"
#include "core/link_simulator.hpp"
#include "core/mu_link_simulator.hpp"
#include "core/mu_receiver.hpp"
#include "core/receive_session.hpp"
#include "core/transmitter.hpp"
#include "core/workspace.hpp"
#include "dsp/rng.hpp"
#include "eq/precoder.hpp"
#include "wifi/psdu.hpp"

namespace {

using namespace mimonet;

void expect_stats_identical(const dsp::RunningStats& a,
                            const dsp::RunningStats& b) {
  EXPECT_EQ(a.count(), b.count());
  EXPECT_EQ(a.mean(), b.mean());
  EXPECT_EQ(a.variance(), b.variance());
}

void expect_results_identical(const core::LinkResult& a,
                              const core::LinkResult& b) {
  EXPECT_EQ(a.ber.bits(), b.ber.bits());
  EXPECT_EQ(a.ber.errors(), b.ber.errors());
  EXPECT_EQ(a.per.packets(), b.per.packets());
  EXPECT_EQ(a.per.failures(), b.per.failures());
  EXPECT_EQ(a.undetected, b.undetected);
  EXPECT_EQ(a.throughput.goodput_mbps(), b.throughput.goodput_mbps());
  EXPECT_EQ(a.throughput.airtime_us(), b.throughput.airtime_us());
  expect_stats_identical(a.snr_est_db, b.snr_est_db);
  expect_stats_identical(a.timing_err, b.timing_err);
  expect_stats_identical(a.cfo_err, b.cfo_err);
  for (std::size_t s = 0; s < a.stream_sinr_db.size(); ++s) {
    expect_stats_identical(a.stream_sinr_db[s], b.stream_sinr_db[s]);
  }
}

// ---- Precoder algebra ------------------------------------------------------

std::vector<std::array<dsp::cf32, 4>> random_rows(std::size_t n_users,
                                                  std::size_t n_tx,
                                                  std::uint64_t seed) {
  dsp::ComplexGaussian rng(seed);
  std::vector<std::array<dsp::cf32, 4>> rows(n_users);
  for (auto& row : rows) {
    for (std::size_t a = 0; a < n_tx; ++a) row[a] = rng.sample();
  }
  return rows;
}

TEST(MuPrecoder, ZeroForcingCancelsCrossTalk) {
  for (const std::size_t n : {2UL, 3UL, 4UL}) {
    SCOPED_TRACE(n);
    const auto rows = random_rows(n, n, 0xC0FFEE + n);
    const auto w = eq::Precoder::zero_forcing_rows(rows, n);
    EXPECT_EQ(w.n_tx(), n);
    EXPECT_EQ(w.n_users(), n);
    // ||W||_F = 1 (unit total transmit power).
    EXPECT_NEAR(w.matrix().frob_sqr(), 1.0, 1e-9);

    std::vector<dsp::cf32> eff(n);
    std::complex<double> diag_ref{0.0, 0.0};
    for (std::size_t u = 0; u < n; ++u) {
      w.effective_row(std::span<const dsp::cf32>(rows[u].data(), n), eff);
      for (std::size_t v = 0; v < n; ++v) {
        if (v == u) continue;
        EXPECT_NEAR(std::abs(std::complex<double>(eff[v])), 0.0, 1e-5)
            << "leakage from user " << u << " into stream " << v;
      }
      // H W = c I for the square channel inversion: every user's own
      // effective gain is the same positive real constant.
      const std::complex<double> d(eff[u]);
      if (u == 0) {
        diag_ref = d;
        EXPECT_GT(d.real(), 0.0);
        EXPECT_NEAR(d.imag(), 0.0, 1e-5);
      } else {
        EXPECT_NEAR(d.real(), diag_ref.real(), 1e-5);
        EXPECT_NEAR(d.imag(), diag_ref.imag(), 1e-5);
      }
    }
  }
}

TEST(MuPrecoder, IdentityAndPassThroughShapes) {
  const auto id = eq::Precoder::identity(2);
  EXPECT_EQ(id.n_tx(), 2U);
  EXPECT_EQ(id.n_users(), 2U);
  EXPECT_NEAR(id.matrix().frob_sqr(), 1.0, 1e-12);
  EXPECT_NEAR(std::abs(std::complex<double>(id.weight(0, 0))),
              1.0 / std::sqrt(2.0), 1e-6);
  EXPECT_EQ(std::abs(std::complex<double>(id.weight(1, 0))), 0.0);

  const auto pt = eq::Precoder::pass_through(4, 2);
  EXPECT_EQ(pt.n_tx(), 4U);
  EXPECT_EQ(pt.n_users(), 2U);
  EXPECT_NEAR(pt.matrix().frob_sqr(), 1.0, 1e-12);

  EXPECT_THROW((void)eq::Precoder::pass_through(2, 3), std::invalid_argument);
  // Two colinear users make H H^H singular.
  auto rows = random_rows(2, 2, 99);
  rows[1] = rows[0];
  EXPECT_THROW((void)eq::Precoder::zero_forcing_rows(rows, 2),
               std::runtime_error);
}

// ---- Virtual-stream transmit ----------------------------------------------

TEST(MuTransmit, VirtualStream0Of1MatchesTransmitInto) {
  core::PhyConfig phy;
  phy.mcs = 3;
  const core::Transmitter tx(phy);
  const auto psdu =
      wifi::build_psdu(wifi::MacHeader{}, std::vector<std::uint8_t>(200, 0xA5));

  core::TxWorkspace ref_ws;
  tx.transmit_into(psdu, ref_ws);
  core::TxWorkspace v_ws;
  tx.transmit_virtual_into(psdu, /*iss=*/0, /*n_sts_total=*/1, v_ws);

  ASSERT_EQ(v_ws.chains.size(), ref_ws.chains.size());
  ASSERT_EQ(v_ws.chains[0].size(), ref_ws.chains[0].size());
  for (std::size_t t = 0; t < ref_ws.chains[0].size(); ++t) {
    ASSERT_EQ(v_ws.chains[0][t], ref_ws.chains[0][t]) << "sample " << t;
  }
}

TEST(MuTransmit, MuMixIsPrecoderWeightedSum) {
  core::PhyConfig phy;
  phy.mcs = 0;
  const core::Transmitter tx(phy);
  const auto psdu_a =
      wifi::build_psdu(wifi::MacHeader{}, std::vector<std::uint8_t>(64, 0x11));
  const auto psdu_b =
      wifi::build_psdu(wifi::MacHeader{}, std::vector<std::uint8_t>(64, 0x22));
  const std::vector<std::span<const std::uint8_t>> psdus{psdu_a, psdu_b};

  const auto w = eq::Precoder::identity(2);
  core::MuTxWorkspace ws;
  tx.transmit_mu_into(std::span<const std::span<const std::uint8_t>>(psdus), w,
                      ws);
  ASSERT_EQ(ws.chains.size(), 2U);

  // W = I / sqrt(2): antenna a carries exactly user a's PPDU scaled.
  core::TxWorkspace ref;
  tx.transmit_into(psdu_a, ref);
  const float s = 1.0F / std::sqrt(2.0F);
  ASSERT_EQ(ws.chains[0].size(), ref.chains[0].size());
  for (std::size_t t = 0; t < ref.chains[0].size(); t += 97) {
    EXPECT_NEAR(ws.chains[0][t].real(), s * ref.chains[0][t].real(), 1e-6);
    EXPECT_NEAR(ws.chains[0][t].imag(), s * ref.chains[0][t].imag(), 1e-6);
  }
}

// ---- CSI staleness semantics ----------------------------------------------

TEST(MuChannel, CsiStalePlanAccessor) {
  channel::FaultPlan plan;
  plan.csi_stale(4).csi_stale(12);
  EXPECT_EQ(plan.csi_stale_symbols(), 16U);
  EXPECT_EQ(channel::FaultPlan{}.csi_stale_symbols(), 0U);
}

TEST(MuChannel, AgedRealizationIdentityAtZeroStaleness) {
  channel::ChannelConfig cfg;
  cfg.ntx = 2;
  cfg.nrx = 1;
  cfg.fading = true;
  cfg.profile = channel::DelayProfile::kFlat;
  cfg.doppler_norm = 1e-3;
  cfg.seed = 42;
  channel::MimoChannel chan(cfg);

  const auto r0 = chan.draw_realization();
  const auto same = chan.aged_realization(r0, 0);
  const auto aged = chan.aged_realization(r0, 16);
  for (std::size_t rx = 0; rx < r0.taps.size(); ++rx) {
    for (std::size_t tx = 0; tx < r0.taps[rx].size(); ++tx) {
      EXPECT_EQ(same.taps[rx][tx][0], r0.taps[rx][tx][0]);
      EXPECT_NE(aged.taps[rx][tx][0], r0.taps[rx][tx][0]);
    }
  }
}

TEST(MuChannel, StalenessReadFromUserFaultPlan) {
  channel::MuChannelConfig mc;
  mc.n_users = 2;
  mc.user.fading = true;
  mc.user.profile = channel::DelayProfile::kFlat;
  mc.user.snr_db = 30.0;
  mc.user.faults.csi_stale(8);
  channel::MultiUserChannel chan(mc);
  EXPECT_EQ(chan.stale_symbols(0), 8U);
  EXPECT_EQ(chan.stale_symbols(1), 8U);
  channel::FaultPlan fresh;
  chan.set_user_fault_plan(1, fresh);
  EXPECT_EQ(chan.stale_symbols(1), 0U);
}

// ---- Round trips -----------------------------------------------------------

TEST(MuLink, DownlinkZeroForcingRoundTrip) {
  auto cfg = core::make_mu_link_config(/*mcs=*/3, /*snr_db=*/28.0,
                                       /*n_users=*/2);
  cfg.user.seed = 11;
  cfg.user.psdu_payload_bytes = 300;
  core::MuLinkSimulator sim(cfg);
  const auto res = sim.run({.n_packets = 30, .n_threads = 1});

  ASSERT_EQ(res.per_user.size(), 2U);
  EXPECT_EQ(res.total.per.packets(), 60U);
  EXPECT_EQ(res.per_user[0].per.packets(), 30U);
  // Fresh genie CSI + ZF at 28 dB: the bulk of packets deliver for both
  // users (deep per-user fades may still cost a few).
  EXPECT_LT(res.total.per.per(), 0.35);
  EXPECT_GT(res.total.throughput.goodput_mbps(), 0.0);
  // Post-eq SINR was recorded for delivered frames.
  EXPECT_GT(res.total.stream_sinr_db[0].count(), 0U);
}

TEST(MuLink, UplinkJointDetectionRoundTrip) {
  auto cfg = core::make_mu_link_config(/*mcs=*/3, /*snr_db=*/30.0,
                                       /*n_users=*/2,
                                       channel::MuDirection::kUplink);
  cfg.user.seed = 13;
  cfg.user.psdu_payload_bytes = 300;
  core::MuLinkSimulator sim(cfg);
  const auto res = sim.run({.n_packets = 30, .n_threads = 1});

  ASSERT_EQ(res.per_user.size(), 2U);
  EXPECT_EQ(res.total.per.packets(), 60U);
  EXPECT_LT(res.total.per.per(), 0.35);
  EXPECT_GT(res.total.stream_sinr_db[0].count(), 0U);
  // The joint LS estimate + per-bin inversion decodes both users' own
  // codewords: BER over decoded packets stays low at 30 dB.
  EXPECT_LT(res.total.ber.ber(), 0.05);
}

TEST(MuLink, StaleCsiDegradesDownlink) {
  // Doppler 2e-6 keeps the ~12-symbol packet coherent (fresh ZF stays
  // clean) while 16 blocks of staleness add decisive precoder leakage. The
  // per-packet fading realizations come from a stream the aging draws do
  // not touch, so both runs see the same channel sequence and the
  // comparison is paired — only the CSI age differs.
  auto fresh_cfg = core::make_mu_link_config(/*mcs=*/1, /*snr_db=*/35.0,
                                             /*n_users=*/2,
                                             channel::MuDirection::kDownlink,
                                             /*doppler_norm=*/2e-6);
  fresh_cfg.user.seed = 21;
  fresh_cfg.user.psdu_payload_bytes = 120;
  auto stale_cfg = fresh_cfg;
  stale_cfg.csi_stale_symbols = 16;

  const auto fresh = core::MuLinkSimulator(fresh_cfg).run({.n_packets = 40});
  const auto stale = core::MuLinkSimulator(stale_cfg).run({.n_packets = 40});

  ASSERT_GT(fresh.total.stream_sinr_db[0].count(), 0U);
  ASSERT_GT(stale.total.stream_sinr_db[0].count(), 0U);
  // The leaked inter-user interference is uncorrectable at the 1x1
  // receivers: packet errors rise and delivered throughput falls. (Mean
  // post-eq SINR is survivorship-biased — it is only recorded for detected
  // packets — so PER and goodput are the honest metrics here.)
  EXPECT_LT(fresh.total.per.per(), stale.total.per.per());
  double fresh_tp = 0.0;
  double stale_tp = 0.0;
  for (const auto& u : fresh.per_user) fresh_tp += u.throughput.goodput_mbps();
  for (const auto& u : stale.per_user) stale_tp += u.throughput.goodput_mbps();
  EXPECT_GT(fresh_tp, stale_tp);
}

// ---- The N_users = 1 pin ---------------------------------------------------

TEST(MuLink, SingleUserPinIsBitIdentical) {
  for (const unsigned mcs : {0U, 7U, 15U}) {
    SCOPED_TRACE(mcs);
    core::LinkConfig su_cfg = core::LinkConfig::make()
                                  .mcs(mcs)
                                  .snr_db(18.0)
                                  .seed(5)
                                  .payload_bytes(400)
                                  .build();
    core::LinkSimulator su(su_cfg);
    const auto ref = su.run(core::RunOptions{.n_packets = 12, .n_threads = 2});

    core::MuLinkConfig mu_cfg;
    mu_cfg.user = su_cfg;
    mu_cfg.n_users = 1;
    core::MuLinkSimulator mu(mu_cfg);
    const auto res = mu.run({.n_packets = 12, .n_threads = 2});

    ASSERT_EQ(res.per_user.size(), 1U);
    expect_results_identical(res.total, ref);
    expect_results_identical(res.per_user[0], ref);
  }
}

// ---- Thread-count invariance ----------------------------------------------

TEST(MuLink, DownlinkBitIdenticalAcrossThreadCounts) {
  auto cfg = core::make_mu_link_config(3, 26.0, 2);
  cfg.user.seed = 31;
  cfg.csi_stale_symbols = 4;
  cfg.user.channel.doppler_norm = 5e-4;

  const auto one = core::MuLinkSimulator(cfg).run({.n_packets = 10, .n_threads = 1});
  const auto three =
      core::MuLinkSimulator(cfg).run({.n_packets = 10, .n_threads = 3});
  expect_results_identical(one.total, three.total);
  for (std::size_t u = 0; u < 2; ++u) {
    expect_results_identical(one.per_user[u], three.per_user[u]);
  }
}

TEST(MuLink, UplinkBitIdenticalAcrossThreadCounts) {
  auto cfg = core::make_mu_link_config(2, 28.0, 2,
                                       channel::MuDirection::kUplink);
  cfg.user.seed = 37;

  const auto one = core::MuLinkSimulator(cfg).run({.n_packets = 10, .n_threads = 1});
  const auto four =
      core::MuLinkSimulator(cfg).run({.n_packets = 10, .n_threads = 4});
  expect_results_identical(one.total, four.total);
  for (std::size_t u = 0; u < 2; ++u) {
    expect_results_identical(one.per_user[u], four.per_user[u]);
  }
}

TEST(MuLink, UplinkEngineConstructionErrorIsRethrown) {
  // MultiUserChannel rejects per-user SFO, so every worker's engine throws
  // while it is built; the run must rethrow it on the caller.
  auto cfg = core::make_mu_link_config(2, 28.0, 2,
                                       channel::MuDirection::kUplink);
  cfg.user.channel.sfo_ppm = 40.0;
  for (const std::size_t n_threads : {1UL, 2UL}) {
    SCOPED_TRACE(n_threads);
    core::MuLinkSimulator sim(cfg);
    EXPECT_THROW((void)sim.run({.n_packets = 6, .n_threads = n_threads}),
                 std::invalid_argument);
  }
}

// ---- ReceiveSession MU mode ------------------------------------------------

TEST(MuSession, ReceiveMuOneFoldsPerUserStats) {
  core::PhyConfig phy;
  phy.mcs = 0;
  const std::size_t n_users = 2;
  const core::Transmitter tx(phy);

  const auto psdu =
      wifi::build_psdu(wifi::MacHeader{}, std::vector<std::uint8_t>(120, 0x3C));
  std::vector<core::TxWorkspace> tws(n_users);
  std::vector<std::vector<std::vector<dsp::cf32>>> chains(n_users);
  for (std::size_t u = 0; u < n_users; ++u) {
    tx.transmit_virtual_into(psdu, u, n_users, tws[u]);
    chains[u].push_back(tws[u].chains[0]);
  }

  channel::MuChannelConfig mc;
  mc.n_users = n_users;
  mc.user.fading = true;
  mc.user.profile = channel::DelayProfile::kFlat;
  mc.user.snr_db = 35.0;
  mc.user.timing_pad = 200;
  mc.user.tail_pad = 80;
  mc.user.seed = 77;
  mc.direction = channel::MuDirection::kUplink;
  channel::MultiUserChannel chan(mc);
  const auto capture = chan.transmit_uplink(chains);

  core::ReceiveSession session(phy, /*nrx=*/n_users);
  const std::vector<std::span<const dsp::cf32>> spans(capture.begin(),
                                                      capture.end());
  ASSERT_TRUE(session.receive_mu_one(
      std::span<const std::span<const dsp::cf32>>(spans), n_users,
      psdu.size()));

  const auto& pkt = session.mu_packet();
  ASSERT_EQ(pkt.users.size(), n_users);
  EXPECT_TRUE(pkt.users[0].fcs_ok);
  EXPECT_TRUE(pkt.users[1].fcs_ok);
  EXPECT_EQ(pkt.users[0].psdu, psdu);
  EXPECT_EQ(pkt.users[1].psdu, psdu);

  const auto per_user = session.mu_stats();
  ASSERT_EQ(per_user.size(), n_users);
  for (std::size_t u = 0; u < n_users; ++u) {
    EXPECT_EQ(per_user[u].frames, 1U);
    EXPECT_EQ(per_user[u].delivered, 1U);
    EXPECT_EQ(per_user[u].stream_sinr_db[0].count(), 1U);
  }
  EXPECT_EQ(session.stats().delivered, n_users);
}

}  // namespace
