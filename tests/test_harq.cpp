// HARQ chase combining: HarqBuffer lifecycle, the Receiver combining
// decode mode's attempt-1 bit-identity pin, and the regression
// that matters — at a pinned SNR where standalone retries all fail, summing
// the same attempts' LLRs decodes.
#include <gtest/gtest.h>

#include <span>
#include <vector>

#include "channel/mimo_channel.hpp"
#include "core/harq_buffer.hpp"
#include "core/receiver.hpp"
#include "core/transmitter.hpp"
#include "core/workspace.hpp"
#include "wifi/psdu.hpp"

namespace {

using namespace mimonet;
using dsp::cf32;

// ---------------------------------------------------------------- HarqBuffer

TEST(HarqBuffer, StoreFindReleaseRoundTrip) {
  core::HarqBuffer buf(4);
  EXPECT_EQ(buf.depth(), 4U);
  EXPECT_EQ(buf.size(), 0U);
  EXPECT_EQ(buf.find(7), nullptr);
  EXPECT_EQ(buf.attempts(7), 0U);

  const std::vector<float> llrs{1.0F, -2.0F, 3.0F};
  buf.store(7, llrs);
  EXPECT_EQ(buf.size(), 1U);
  EXPECT_EQ(buf.attempts(7), 1U);
  const auto* found = buf.find(7);
  ASSERT_NE(found, nullptr);
  EXPECT_EQ(*found, llrs);

  buf.release(7);
  EXPECT_EQ(buf.size(), 0U);
  EXPECT_EQ(buf.find(7), nullptr);
  EXPECT_EQ(buf.attempts(7), 0U);
}

TEST(HarqBuffer, OverwriteSameSeqAccumulatesAttempts) {
  core::HarqBuffer buf(2);
  buf.store(9, std::vector<float>{1.0F});
  buf.store(9, std::vector<float>{2.0F, 3.0F});
  EXPECT_EQ(buf.size(), 1U);
  EXPECT_EQ(buf.attempts(9), 2U);
  const auto* found = buf.find(9);
  ASSERT_NE(found, nullptr);
  EXPECT_EQ(found->size(), 2U);
  EXPECT_FLOAT_EQ((*found)[0], 2.0F);
}

TEST(HarqBuffer, EvictsLeastRecentlyTouchedWhenFull) {
  core::HarqBuffer buf(2);
  buf.store(1, std::vector<float>{1.0F});
  buf.store(2, std::vector<float>{2.0F});
  // Touch seq 1 so seq 2 becomes the LRU entry.
  ASSERT_NE(buf.find(1), nullptr);
  buf.store(3, std::vector<float>{3.0F});
  EXPECT_EQ(buf.size(), 2U);
  EXPECT_NE(buf.find(1), nullptr);
  EXPECT_EQ(buf.find(2), nullptr);  // evicted
  EXPECT_NE(buf.find(3), nullptr);
  EXPECT_EQ(buf.attempts(3), 1U);  // eviction reset the slot's attempts
}

TEST(HarqBuffer, ClearDropsEverything) {
  core::HarqBuffer buf(3);
  buf.store(1, std::vector<float>{1.0F});
  buf.store(2, std::vector<float>{2.0F});
  buf.clear();
  EXPECT_EQ(buf.size(), 0U);
  EXPECT_EQ(buf.find(1), nullptr);
  EXPECT_EQ(buf.find(2), nullptr);
}

TEST(HarqBuffer, ZeroDepthClampsToOne) {
  core::HarqBuffer buf(0);
  EXPECT_EQ(buf.depth(), 1U);
  buf.store(5, std::vector<float>{1.0F});
  EXPECT_NE(buf.find(5), nullptr);
}

// ------------------------------------------------- combining decode mode

struct Attempt {
  std::vector<std::vector<cf32>> capture;
};

struct CliffScenario {
  core::PhyConfig phy;
  std::vector<std::uint8_t> psdu;
  std::vector<Attempt> attempts;
};

/// One PSDU transmitted `n_attempts` times over independent AWGN noise
/// realizations at `snr_db` (the retransmissions are identical copies —
/// the chase-combining premise).
CliffScenario make_scenario(unsigned mcs, double snr_db,
                            std::size_t n_attempts, std::uint64_t seed,
                            core::FecType fec = core::FecType::kBcc) {
  CliffScenario s;
  s.phy.mcs = mcs;
  s.phy.fec_type = fec;
  const core::Transmitter tx(s.phy);
  s.psdu =
      wifi::build_psdu(wifi::MacHeader{}, std::vector<std::uint8_t>(200, 0x5A));
  const auto streams = tx.transmit(s.psdu);

  channel::ChannelConfig ccfg;
  ccfg.ntx = tx.num_streams();
  ccfg.nrx = tx.num_streams();
  ccfg.snr_db = snr_db;
  ccfg.timing_pad = 200;
  ccfg.tail_pad = 100;
  channel::MimoChannel chan(ccfg);
  for (std::size_t a = 0; a < n_attempts; ++a) {
    chan.reseed(seed + a);
    s.attempts.push_back({chan.transmit(streams)});
  }
  return s;
}

std::span<const std::span<const cf32>> stage(
    const std::vector<std::vector<cf32>>& capture, core::RxWorkspace& ws) {
  ws.capture_spans.assign(capture.begin(), capture.end());
  return {ws.capture_spans};
}

TEST(HarqDecodeMode, Attempt1BitIdenticalToStandalone) {
  // A default-free HarqDecode that only *exports* the combined stream must
  // not change the decode: same clean-SNR capture, same decoded bits,
  // through both the batched and the per-symbol reference path, BCC and
  // LDPC.
  for (const bool batched : {true, false}) {
    for (const auto fec : {core::FecType::kBcc, core::FecType::kLdpc}) {
      auto s = make_scenario(5, 25.0, 1, 77, fec);
      s.phy.batched_decode = batched;
      const core::Receiver rx(s.phy, 1);

      core::RxWorkspace ws_plain;
      const bool ok_plain = rx.receive(stage(s.attempts[0].capture, ws_plain),
                                       ws_plain);

      core::RxWorkspace ws_harq;
      core::HarqDecode harq;
      harq.combined = &ws_harq.harq_combined;
      const bool ok_harq =
          rx.receive(stage(s.attempts[0].capture, ws_harq), ws_harq, harq);

      ASSERT_TRUE(ok_plain);
      ASSERT_TRUE(ws_plain.packet.fcs_ok);
      EXPECT_EQ(ok_plain, ok_harq);
      EXPECT_EQ(ws_plain.packet.error, ws_harq.packet.error);
      EXPECT_EQ(ws_plain.packet.psdu, ws_harq.packet.psdu);
      EXPECT_EQ(ws_plain.packet.fcs_ok, ws_harq.packet.fcs_ok);
      // The exported stream is this attempt's merged LLRs, bit for bit.
      EXPECT_EQ(ws_harq.harq_combined, ws_harq.merged);
      EXPECT_FALSE(ws_harq.harq_combined.empty());
    }
  }
}

TEST(HarqDecodeMode, MismatchedPriorLengthDecodesStandalone) {
  auto s = make_scenario(5, 25.0, 1, 78);
  const core::Receiver rx(s.phy, 1);

  core::RxWorkspace ws;
  const std::vector<float> bogus_prior(17, 1000.0F);  // wrong length
  core::HarqDecode harq;
  harq.prior = bogus_prior;
  harq.combined = &ws.harq_combined;
  ASSERT_TRUE(rx.receive(stage(s.attempts[0].capture, ws), ws, harq));
  EXPECT_TRUE(ws.packet.fcs_ok);
  // The mismatched prior was ignored, not summed.
  EXPECT_EQ(ws.harq_combined, ws.merged);
}

/// The pinned SNR cliff for MCS 7 (64-QAM 5/6): low enough that every
/// standalone attempt fails its FCS, high enough that three combined
/// attempts (+4.8 dB effective) decode. Probed over 50 seeds: at 16 dB
/// standalone delivery is 0/150 attempts while 3-way combining recovers
/// 49/50 frames (sync is rock-solid here — the failures are all kFcsFail,
/// which is exactly the soft-state-bearing failure chase combining needs).
constexpr unsigned kCliffMcs = 7;
constexpr double kCliffSnrDb = 16.0;
constexpr std::uint64_t kCliffSeed = 100;

TEST(HarqDecodeMode, ChaseCombiningRecoversWhereStandaloneRetriesFail) {
  auto s = make_scenario(kCliffMcs, kCliffSnrDb, 3, kCliffSeed);
  const core::Receiver rx(s.phy, 1);
  core::RxWorkspace ws;

  // Standalone: all three attempts sync and decode but fail the FCS
  // (PER ~ 1 at the cliff).
  for (const auto& att : s.attempts) {
    ASSERT_TRUE(rx.receive(stage(att.capture, ws), ws))
        << "attempt did not even sync at the pinned cliff SNR";
    EXPECT_FALSE(ws.packet.fcs_ok)
        << "standalone attempt delivered at the pinned cliff SNR; "
           "lower kCliffSnrDb";
    EXPECT_EQ(ws.packet.error, metrics::RxError::kFcsFail);
  }

  // Chase combining over the very same attempts: sum each attempt's LLRs
  // with the retained prior before FEC.
  std::vector<float> prior;
  bool combined_ok = false;
  for (const auto& att : s.attempts) {
    core::HarqDecode harq;
    if (!prior.empty()) harq.prior = prior;
    harq.combined = &ws.harq_combined;
    (void)rx.receive(stage(att.capture, ws), ws, harq);
    combined_ok = ws.packet.fcs_ok;
    if (combined_ok) break;
    ASSERT_FALSE(ws.harq_combined.empty())
        << "failed attempt reached the payload but exported no soft state";
    prior = ws.harq_combined;
  }
  EXPECT_TRUE(combined_ok)
      << "combining three attempts did not decode; raise kCliffSnrDb";
  EXPECT_TRUE(ws.packet.fcs_ok);
  EXPECT_EQ(ws.packet.psdu, s.psdu);
}

TEST(HarqDecodeMode, CombinedStreamKeepsImproving) {
  // The exported combined stream after attempt k equals the element-wise
  // sum of the first k attempts' standalone merged streams.
  auto s = make_scenario(kCliffMcs, kCliffSnrDb, 2, kCliffSeed);
  const core::Receiver rx(s.phy, 1);

  core::RxWorkspace ws_a;
  core::HarqDecode export_only;
  export_only.combined = &ws_a.harq_combined;
  (void)rx.receive(stage(s.attempts[0].capture, ws_a), ws_a, export_only);
  const std::vector<float> first = ws_a.harq_combined;
  ASSERT_FALSE(first.empty());

  core::RxWorkspace ws_b;
  core::HarqDecode harq;
  harq.prior = first;
  harq.combined = &ws_b.harq_combined;
  (void)rx.receive(stage(s.attempts[1].capture, ws_b), ws_b, harq);
  ASSERT_EQ(ws_b.harq_combined.size(), first.size());

  core::RxWorkspace ws_c;
  core::HarqDecode export_b;
  export_b.combined = &ws_c.harq_combined;
  (void)rx.receive(stage(s.attempts[1].capture, ws_c), ws_c, export_b);
  ASSERT_EQ(ws_c.harq_combined.size(), first.size());
  for (std::size_t i = 0; i < first.size(); ++i) {
    EXPECT_FLOAT_EQ(ws_b.harq_combined[i], first[i] + ws_c.harq_combined[i]);
  }
}

}  // namespace
