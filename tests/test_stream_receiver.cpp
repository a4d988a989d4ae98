// Streaming receive path: multi-packet scanning, resynchronization after
// faults, error classification, watchdog termination, and the bit-exact
// single-packet pin against the one-shot Receiver.
#include <gtest/gtest.h>

#include <cstdlib>
#include <functional>
#include <optional>
#include <span>
#include <vector>

#include "channel/fault_plan.hpp"
#include "channel/mimo_channel.hpp"
#include "core/stream_receiver.hpp"
#include "core/transmitter.hpp"
#include "core/workspace.hpp"
#include "dsp/rng.hpp"
#include "receive_util.hpp"
#include "sig_rewrite.hpp"
#include "wifi/psdu.hpp"

namespace {

using namespace mimonet;
using dsp::cf32;

struct StreamScenario {
  core::PhyConfig phy;
  std::vector<std::vector<std::uint8_t>> psdus;
  std::vector<std::vector<cf32>> capture;
  std::vector<std::size_t> starts;      ///< packet starts within the capture
  std::vector<std::size_t> frame_lens;  ///< per-packet PPDU sample counts
};

/// Edits the first PPDU's chains before the channel; gets its layout.
using FirstFrameEdit =
    std::function<void(std::vector<std::vector<cf32>>&, const core::FrameLayout&)>;

/// `n_packets` PPDUs concatenated with `gap` idle samples between them, sent
/// through one flat clean channel so packet positions are exact.
StreamScenario make_multi_capture(std::size_t n_packets, std::size_t gap,
                                  unsigned mcs = 0, double snr_db = 30.0,
                                  const FirstFrameEdit& edit_first = {}) {
  StreamScenario s;
  s.phy.mcs = mcs;
  const core::Transmitter tx(s.phy);
  const std::size_t nss = tx.num_streams();

  std::vector<std::vector<cf32>> concat(nss);
  for (std::size_t p = 0; p < n_packets; ++p) {
    s.psdus.push_back(wifi::build_psdu(
        wifi::MacHeader{},
        std::vector<std::uint8_t>(120 + 9 * p,
                                  static_cast<std::uint8_t>(0x20 + p))));
    auto streams = tx.transmit(s.psdus.back());
    if (p == 0 && edit_first) edit_first(streams, tx.layout(s.psdus.back().size()));
    s.starts.push_back(concat[0].size());
    s.frame_lens.push_back(streams[0].size());
    for (std::size_t c = 0; c < nss; ++c) {
      concat[c].insert(concat[c].end(), streams[c].begin(), streams[c].end());
      if (p + 1 < n_packets) concat[c].resize(concat[c].size() + gap, cf32{});
    }
  }

  channel::ChannelConfig ccfg;
  ccfg.ntx = nss;
  ccfg.nrx = nss;
  ccfg.snr_db = snr_db;
  ccfg.timing_pad = 300;
  ccfg.tail_pad = 150;
  channel::MimoChannel chan(ccfg);
  s.capture = chan.transmit(concat);
  for (auto& st : s.starts) st += chan.truth().packet_start;
  return s;
}

std::vector<std::span<const cf32>> as_spans(
    const std::vector<std::vector<cf32>>& capture) {
  return {capture.begin(), capture.end()};
}

TEST(StreamReceiver, SingleCleanPacketMatchesReceiverBitExact) {
  const auto s = make_multi_capture(1, 0);
  const core::Receiver ref_rx(s.phy, s.capture.size());
  const auto ref = testutil::receive_once(ref_rx, s.capture);
  ASSERT_TRUE(ref.has_value());
  ASSERT_TRUE(ref->fcs_ok);

  const core::StreamReceiver srx(s.phy, s.capture.size());
  const auto recs = srx.receive_all(s.capture);
  ASSERT_EQ(recs.size(), 1U);
  const auto& rec = recs[0];
  EXPECT_EQ(rec.error, metrics::RxError::kOk);
  ASSERT_TRUE(rec.has_packet);
  EXPECT_EQ(rec.offset, rec.packet.sync.packet_start);
  EXPECT_TRUE(rec.packet.fcs_ok);
  EXPECT_EQ(rec.packet.psdu, ref->psdu);
  EXPECT_EQ(rec.packet.sync.packet_start, ref->sync.packet_start);
  EXPECT_EQ(rec.packet.sync.cfo_norm, ref->sync.cfo_norm);
  EXPECT_EQ(rec.packet.snr.snr_db, ref->snr.snr_db);
  EXPECT_EQ(rec.packet.pilot_snr.snr_db, ref->pilot_snr.snr_db);
  EXPECT_EQ(rec.packet.residual_cfo_norm, ref->residual_cfo_norm);
}

TEST(StreamReceiver, BackToBackPacketsAllDecode) {
  for (const std::size_t gap : {std::size_t{0}, std::size_t{400}}) {
    const auto s = make_multi_capture(2, gap);
    const core::StreamReceiver srx(s.phy, s.capture.size());
    const auto recs = srx.receive_all(s.capture);
    ASSERT_EQ(recs.size(), 2U) << "gap=" << gap;
    for (std::size_t p = 0; p < 2; ++p) {
      EXPECT_EQ(recs[p].error, metrics::RxError::kOk) << "gap=" << gap;
      ASSERT_TRUE(recs[p].has_packet);
      EXPECT_TRUE(recs[p].packet.fcs_ok);
      EXPECT_EQ(recs[p].packet.psdu, s.psdus[p]);
      EXPECT_NEAR(static_cast<double>(recs[p].offset),
                  static_cast<double>(s.starts[p]), 3.0);
    }
  }
}

TEST(StreamReceiver, InterPacketFaultLeavesBothPacketsDecodable) {
  auto s = make_multi_capture(2, 800);
  // A loud wideband interferer burst in the idle gap between the packets.
  const std::size_t gap_begin = s.starts[0] + s.frame_lens[0];
  channel::FaultPlan plan;
  plan.noise_burst(gap_begin + 200, 400, 4.0);
  for (std::size_t a = 0; a < s.capture.size(); ++a) {
    channel::apply_fault_plan(s.capture[a], plan, 77 + a);
  }

  const core::StreamReceiver srx(s.phy, s.capture.size());
  const auto recs = srx.receive_all(s.capture);
  std::vector<const core::StreamRecord*> delivered;
  for (const auto& r : recs) {
    if (r.error == metrics::RxError::kOk) delivered.push_back(&r);
  }
  ASSERT_EQ(delivered.size(), 2U);
  EXPECT_EQ(delivered[0]->packet.psdu, s.psdus[0]);
  EXPECT_EQ(delivered[1]->packet.psdu, s.psdus[1]);
  // Resync landed the scanner back on the true second packet start.
  EXPECT_NEAR(static_cast<double>(delivered[1]->offset),
              static_cast<double>(s.starts[1]), 3.0);
}

TEST(StreamReceiver, ClockSlipBetweenPacketsIsResynced) {
  auto s = make_multi_capture(2, 600);
  // The sampling clock drops 40 samples in the gap: the second packet
  // arrives earlier than its nominal position.
  const std::size_t gap_begin = s.starts[0] + s.frame_lens[0];
  channel::FaultPlan plan;
  plan.sample_drop(gap_begin + 100, 40);
  for (auto& antenna : s.capture) {
    channel::apply_fault_plan(antenna, plan, 5);
  }

  const core::StreamReceiver srx(s.phy, s.capture.size());
  const auto recs = srx.receive_all(s.capture);
  ASSERT_EQ(recs.size(), 2U);
  EXPECT_EQ(recs[0].error, metrics::RxError::kOk);
  EXPECT_EQ(recs[1].error, metrics::RxError::kOk);
  EXPECT_EQ(recs[1].packet.psdu, s.psdus[1]);
  EXPECT_NEAR(static_cast<double>(recs[1].offset),
              static_cast<double>(s.starts[1] - 40), 3.0);
}

TEST(StreamReceiver, TruncatedTailIsClassified) {
  auto s = make_multi_capture(2, 400);
  // Cut the capture inside the second packet's data field.
  const std::size_t cut = s.starts[1] + 1000;
  ASSERT_LT(cut, s.capture[0].size());
  for (auto& antenna : s.capture) antenna.resize(cut);

  const core::StreamReceiver srx(s.phy, s.capture.size());
  const auto recs = srx.receive_all(s.capture);
  ASSERT_EQ(recs.size(), 2U);
  EXPECT_EQ(recs[0].error, metrics::RxError::kOk);
  EXPECT_EQ(recs[1].error, metrics::RxError::kTruncated);
  ASSERT_TRUE(recs[1].has_packet);
  EXPECT_NEAR(static_cast<double>(recs[1].offset),
              static_cast<double>(s.starts[1]), 3.0);
}

// ---- A false sync's HT-SIG passes its CRC-8 on 1 in 256 candidates. The
// fixtures below plant such a field on purpose: the first of four frames
// gets an HT-SIG this PHY would never send, or one that announces a false
// extent, over its real preamble and payload. No such field may hide the
// real frames that follow. ----

/// Four SISO MCS 0 frames, the first with `htsig` over its real HT-SIG. Its
/// L-SIG stays the real one unless `lsig` is given.
StreamScenario make_spoofed_capture(const wifi::HtSig& htsig,
                                    const std::optional<wifi::LSig>& lsig = {}) {
  return make_multi_capture(
      4, 500, 0, 30.0,
      [&](std::vector<std::vector<cf32>>& chains, const core::FrameLayout& fl) {
        testutil::rewrite_sig_symbols(
            chains, lsig.value_or(wifi::LSig{.length = fl.spoofed_lsig_length()}), htsig);
      });
}

/// Every frame after the first is delivered, once, with its own PSDU.
void expect_followers_delivered(const StreamScenario& s,
                                const std::vector<core::StreamRecord>& recs) {
  for (std::size_t p = 1; p < s.starts.size(); ++p) {
    std::size_t hits = 0;
    for (const auto& r : recs) {
      if (r.error != metrics::RxError::kOk) continue;
      if (std::abs(static_cast<long>(r.offset) - static_cast<long>(s.starts[p])) > 3) continue;
      ++hits;
      EXPECT_EQ(r.packet.psdu, s.psdus[p]) << "frame " << p;
    }
    EXPECT_EQ(hits, 1U) << "frame " << p << " at " << s.starts[p];
  }
}

/// PSDU bytes whose MCS 0 frame runs past `samples`.
std::uint16_t mcs0_length_longer_than(std::size_t samples) {
  std::uint16_t len = 1;
  while (core::FrameLayout{1, core::data_symbol_count(wifi::mcs_info(0), len, true)}
             .total_samples() <= samples) {
    ++len;
  }
  return len;
}

TEST(StreamReceiver, SigRewriteReproducesTheTransmitter) {
  // The fixture helper builds SIG symbols exactly as Transmitter does.
  core::PhyConfig phy;
  phy.mcs = 12;
  const core::Transmitter tx(phy);
  const std::vector<std::uint8_t> psdu(200, 0x6B);
  const auto ppdu = tx.transmit(psdu);
  auto rewritten = ppdu;
  testutil::rewrite_sig_symbols(
      rewritten, wifi::LSig{.length = tx.layout(psdu.size()).spoofed_lsig_length()},
      wifi::HtSig{.mcs = 12, .length = 200});
  EXPECT_EQ(rewritten, ppdu);
}

TEST(StreamReceiver, HtSigOfUnsentContentHidesNoFollower) {
  // n_ess 3 and a 40000-byte length under a valid CRC-8: decode_htsig
  // rejects the content, so the candidate is an HT-SIG failure (L-SIG
  // passed), not a frame whose extent the scan would skip.
  const auto s = make_spoofed_capture(wifi::HtSig{.mcs = 0, .length = 40000, .n_ess = 3});
  const core::StreamReceiver srx(s.phy, s.capture.size());
  const auto recs = srx.receive_all(s.capture);
  ASSERT_FALSE(recs.empty());
  EXPECT_EQ(recs[0].error, metrics::RxError::kHtsigFail);
  EXPECT_NEAR(static_cast<double>(recs[0].offset), static_cast<double>(s.starts[0]), 3.0);
  expect_followers_delivered(s, recs);
}

TEST(StreamReceiver, UncorroboratedExtentIsNotSkipped) {
  // A well-formed HT-SIG whose extent covers the next two frames, under the
  // real L-SIG (whose length disagrees): with no FCS either, nothing
  // corroborates the extent, so the scan hops on as after a failed
  // candidate.
  const auto base = make_multi_capture(4, 500);
  const std::uint16_t len = mcs0_length_longer_than(base.starts[3] - base.starts[0] - 1000);
  const auto s = make_spoofed_capture(wifi::HtSig{.mcs = 0, .length = len});
  const core::StreamReceiver srx(s.phy, s.capture.size());
  const auto recs = srx.receive_all(s.capture);
  ASSERT_FALSE(recs.empty());
  EXPECT_EQ(recs[0].error, metrics::RxError::kFcsFail);
  ASSERT_TRUE(recs[0].packet.htsig_ok);
  EXPECT_EQ(recs[0].packet.htsig.length, len);
  expect_followers_delivered(s, recs);
}

TEST(StreamReceiver, UncorroboratedExtentPastTheEndDoesNotEndTheScan) {
  // Announced extent far past the capture end: the candidate is truncated,
  // but only a corroborated truncation ends the scan.
  const auto s = make_spoofed_capture(wifi::HtSig{.mcs = 0, .length = 40000});
  const core::StreamReceiver srx(s.phy, s.capture.size());
  const auto recs = srx.receive_all(s.capture);
  ASSERT_FALSE(recs.empty());
  EXPECT_EQ(recs[0].error, metrics::RxError::kTruncated);
  ASSERT_TRUE(recs[0].packet.htsig_ok);
  expect_followers_delivered(s, recs);
}

TEST(StreamReceiver, LsigAgreementCorroboratesTheExtent) {
  // The same false extent, now with an L-SIG at 6 Mb/s carrying the spoofed
  // length Transmitter would write for it: the extent is corroborated and
  // skipped, so the frames inside it are not decoded. (A real frame with a
  // corrupt payload looks exactly like this.)
  const auto base = make_multi_capture(4, 500);
  const std::size_t covered = base.starts[3] - base.starts[0] - 1000;
  const std::uint16_t len = mcs0_length_longer_than(covered);
  const core::FrameLayout spoofed{1, core::data_symbol_count(wifi::mcs_info(0), len, true)};
  const auto s = make_spoofed_capture(wifi::HtSig{.mcs = 0, .length = len},
                                      wifi::LSig{.length = spoofed.spoofed_lsig_length()});
  const core::StreamReceiver srx(s.phy, s.capture.size());
  const auto recs = srx.receive_all(s.capture);
  ASSERT_FALSE(recs.empty());
  EXPECT_EQ(recs[0].error, metrics::RxError::kFcsFail);
  for (const auto& r : recs) {
    EXPECT_FALSE(r.offset > s.starts[0] && r.offset < s.starts[0] + covered)
        << "candidate at " << r.offset << " inside the skipped extent";
  }
}

TEST(StreamReceiver, MaxPacketsStopsTheScan) {
  const auto s = make_multi_capture(3, 300);
  core::StreamReceiverConfig scfg;
  scfg.max_packets = 2;
  const core::StreamReceiver srx(s.phy, s.capture.size(), scfg);
  const auto recs = srx.receive_all(s.capture);
  ASSERT_EQ(recs.size(), 2U);
  EXPECT_EQ(recs[0].error, metrics::RxError::kOk);
  EXPECT_EQ(recs[1].error, metrics::RxError::kOk);
}

TEST(StreamReceiver, WatchdogAbandonsPathologicalCapture) {
  // Repeated finite 16-periodic bursts: each one looks like an STF plateau,
  // none ever decodes, and the watchdog must give up instead of grinding
  // through tens of thousands of samples one resync hop at a time.
  std::vector<cf32> pattern(16);
  dsp::ComplexGaussian g(7, 1.0);
  for (auto& x : pattern) x = g.sample();
  std::vector<std::vector<cf32>> capture(1);
  capture[0].reserve(40000);
  for (int burst = 0; burst < 56; ++burst) {
    for (int rep = 0; rep < 30; ++rep) {
      capture[0].insert(capture[0].end(), pattern.begin(), pattern.end());
    }
    capture[0].resize(capture[0].size() + 220, cf32{});
  }
  dsp::ComplexGaussian noise(9, 1e-4);
  for (auto& x : capture[0]) x += noise.sample();

  const core::StreamReceiverConfig scfg =
      core::StreamReceiverConfig::make().candidate_budget(8).build();
  const core::StreamReceiver srx(core::PhyConfig{}, 1, scfg);
  core::RxWorkspace ws;
  core::StreamStats stats;
  std::size_t events = 0;
  metrics::RxError last = metrics::RxError::kOk;
  srx.scan(as_spans(capture), ws, stats, [&](const core::StreamEvent& ev) {
    ++events;
    last = ev.error;
  });
  EXPECT_EQ(stats.budget_exhaustions, 1U);
  EXPECT_EQ(last, metrics::RxError::kBudgetExceeded);
  EXPECT_EQ(stats.frames, 0U);
  EXPECT_GT(stats.resync_events, 0U);
  // 8 tolerated failures + the one that trips the watchdog + its report.
  EXPECT_LE(events, 10U);
  EXPECT_EQ(stats.errors.count(metrics::RxError::kBudgetExceeded), 1U);
}

TEST(StreamReceiver, StatsAccumulateAndMerge) {
  const auto s = make_multi_capture(2, 300);
  const core::StreamReceiver srx(s.phy, s.capture.size());
  core::RxWorkspace ws;

  core::StreamStats a;
  srx.scan(as_spans(s.capture), ws, a, [](const core::StreamEvent&) {});
  EXPECT_EQ(a.frames, 2U);
  EXPECT_EQ(a.delivered, 2U);
  EXPECT_EQ(a.samples_scanned, s.capture[0].size());
  EXPECT_EQ(a.errors.count(metrics::RxError::kOk), 2U);
  EXPECT_EQ(a.errors.errors(), 0U);

  core::StreamStats b = a;
  b.merge(a);
  EXPECT_EQ(b.frames, 4U);
  EXPECT_EQ(b.delivered, 4U);
  EXPECT_EQ(b.samples_scanned, 2 * s.capture[0].size());
  EXPECT_EQ(b.errors.count(metrics::RxError::kOk), 4U);

  // scan() accumulates into the same stats across captures.
  srx.scan(as_spans(s.capture), ws, a, [](const core::StreamEvent&) {});
  EXPECT_EQ(a.frames, 4U);
}

TEST(StreamReceiver, DegenerateCapturesAreHarmless) {
  const core::StreamReceiver srx(core::PhyConfig{}, 1);

  std::vector<std::vector<cf32>> empty(1);
  EXPECT_TRUE(srx.receive_all(empty).empty());

  std::vector<std::vector<cf32>> noise_only(1, std::vector<cf32>(500));
  dsp::ComplexGaussian g(3, 0.01);
  for (auto& x : noise_only[0]) x = g.sample();
  EXPECT_TRUE(srx.receive_all(noise_only).empty());
}

TEST(StreamReceiver, InvalidConfigThrows) {
  core::StreamReceiverConfig scfg;
  scfg.min_advance = 0;
  EXPECT_THROW((core::StreamReceiver{core::PhyConfig{}, 1, scfg}),
               std::invalid_argument);
  scfg = {};
  scfg.resync_advance = 0;
  EXPECT_THROW((core::StreamReceiver{core::PhyConfig{}, 1, scfg}),
               std::invalid_argument);
}

}  // namespace
