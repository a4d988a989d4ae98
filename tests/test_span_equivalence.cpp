// Equivalence pins for the receive pipeline's interchangeable paths.
//
// Transmit: the allocation-free transmit_into must stay bit-identical to the
// value-returning transmit.
//
// Receive: the batched symbol-plane decode (stage-wise chunked passes with
// SIMD demap/deinterleave and streaming Viterbi, PhyConfig::batched_decode =
// true) must produce BIT-IDENTICAL packets to the reference per-symbol path
// (batched_decode = false) for every configuration the link engine
// exercises: all MCS, every equalizer, fading, decision-directed tracking,
// FEC off, LDPC and STBC. "Identical" here means every decoded byte, every
// ok-flag and every diagnostic float — the batched path is a scheduling
// change, not an algorithm change.
#include <gtest/gtest.h>

#include <optional>
#include <span>
#include <vector>

#include "channel/mimo_channel.hpp"
#include "core/receiver.hpp"
#include "core/transmitter.hpp"
#include "core/workspace.hpp"
#include "wifi/mcs.hpp"
#include "wifi/psdu.hpp"

namespace {

using namespace mimonet;

std::vector<std::uint8_t> make_payload(std::size_t n, std::uint8_t tag) {
  std::vector<std::uint8_t> payload(n);
  for (std::size_t i = 0; i < n; ++i) {
    payload[i] = static_cast<std::uint8_t>(tag + i * 31);
  }
  return payload;
}

TEST(SpanEquivalence, TransmitIntoMatchesLegacyAllMcs) {
  core::TxWorkspace ws;  // shared across MCS: SigKey cache must not leak state
  for (unsigned mcs = 0; mcs <= 15; ++mcs) {
    SCOPED_TRACE(mcs);
    core::PhyConfig phy;
    phy.mcs = mcs;
    const core::Transmitter tx(phy);
    const auto psdu = wifi::build_psdu(
        wifi::MacHeader{}, make_payload(257, static_cast<std::uint8_t>(mcs)));

    const auto legacy = tx.transmit(psdu);
    tx.transmit_into(psdu, ws);
    ASSERT_EQ(ws.chains.size(), legacy.size());
    for (std::size_t c = 0; c < legacy.size(); ++c) {
      ASSERT_EQ(ws.chains[c].size(), legacy[c].size());
      for (std::size_t i = 0; i < legacy[c].size(); ++i) {
        ASSERT_EQ(ws.chains[c][i], legacy[c][i]) << "chain " << c << " sample "
                                                 << i;
      }
    }
  }
}

TEST(SpanEquivalence, TransmitIntoReusedWorkspaceVariedLength) {
  // Same workspace across payload lengths: the cached SIG fields must be
  // rebuilt whenever the (length, mcs) key changes.
  core::PhyConfig phy;
  phy.mcs = 5;
  const core::Transmitter tx(phy);
  core::TxWorkspace ws;
  for (const std::size_t len : {20U, 700U, 20U, 1432U}) {
    SCOPED_TRACE(len);
    const auto psdu = wifi::build_psdu(wifi::MacHeader{}, make_payload(len, 3));
    const auto legacy = tx.transmit(psdu);
    tx.transmit_into(psdu, ws);
    ASSERT_EQ(ws.chains, legacy);
  }
}

// ---------------------------------------------------------------------------
// Batched vs per-symbol receive equivalence.

bool receive_into(const core::Receiver& rx,
                  const std::vector<std::vector<dsp::cf32>>& capture,
                  core::RxWorkspace& ws) {
  std::vector<std::span<const dsp::cf32>> spans(capture.begin(), capture.end());
  return rx.receive(std::span<const std::span<const dsp::cf32>>(spans), ws);
}

/// Every observable of the two packets must match exactly — bit-identical
/// floats included; the batched pipeline reorders loops, not arithmetic.
void expect_packets_identical(const core::RxPacket& a, const core::RxPacket& b) {
  EXPECT_EQ(a.lsig_ok, b.lsig_ok);
  EXPECT_EQ(a.htsig_ok, b.htsig_ok);
  EXPECT_EQ(a.fcs_ok, b.fcs_ok);
  EXPECT_EQ(a.error, b.error);
  EXPECT_EQ(a.psdu, b.psdu);
  EXPECT_EQ(a.htsig.mcs, b.htsig.mcs);
  EXPECT_EQ(a.htsig.length, b.htsig.length);
  EXPECT_EQ(a.sync.packet_start, b.sync.packet_start);
  EXPECT_EQ(a.sync.cfo_norm, b.sync.cfo_norm);
  EXPECT_EQ(a.snr.snr_db, b.snr.snr_db);
  EXPECT_EQ(a.pilot_snr.snr_db, b.pilot_snr.snr_db);
  EXPECT_EQ(a.residual_cfo_norm, b.residual_cfo_norm);
  ASSERT_EQ(a.snr.per_bin_valid, b.snr.per_bin_valid);
  ASSERT_EQ(a.snr.per_bin_db.size(), b.snr.per_bin_db.size());
  for (std::size_t i = 0; i < a.snr.per_bin_db.size(); ++i) {
    if (a.snr.bin_valid(i)) {
      EXPECT_EQ(a.snr.per_bin_db[i], b.snr.per_bin_db[i]) << "bin " << i;
    }
  }
  ASSERT_EQ(a.channel.nrx, b.channel.nrx);
  ASSERT_EQ(a.channel.nss, b.channel.nss);
  for (std::size_t r = 0; r < a.channel.nrx; ++r) {
    for (std::size_t s = 0; s < a.channel.nss; ++s) {
      EXPECT_EQ(a.channel.h[r][s], b.channel.h[r][s]) << "h " << r << "," << s;
    }
  }
}

struct RxCase {
  unsigned mcs = 0;
  eq::EqualizerType eq_type = eq::EqualizerType::kMmse;
  bool fading = false;
  bool decision_tracking = false;
  bool fec_enabled = true;
  core::FecType fec_type = core::FecType::kBcc;
  bool stbc = false;
  double snr_db = 18.0;
};

/// Decode the same captures through a batched and a per-symbol receiver that
/// differ ONLY in PhyConfig::batched_decode, reusing one workspace per
/// receiver across packets, and require identical packets every time.
void expect_batched_equivalent(const RxCase& rc) {
  core::PhyConfig phy;
  phy.mcs = rc.mcs;
  phy.equalizer = rc.eq_type;
  phy.decision_tracking = rc.decision_tracking;
  phy.fec_enabled = rc.fec_enabled;
  phy.fec_type = rc.fec_type;
  phy.stbc = rc.stbc;

  core::PhyConfig phy_batched = phy;
  phy_batched.batched_decode = true;
  core::PhyConfig phy_ref = phy;
  phy_ref.batched_decode = false;

  const core::Transmitter tx(phy);
  const auto nsts = phy.n_sts();
  const core::Receiver rx_batched(phy_batched, nsts);
  const core::Receiver rx_ref(phy_ref, nsts);
  core::RxWorkspace ws_batched;
  core::RxWorkspace ws_ref;

  for (int pkt_idx = 0; pkt_idx < 3; ++pkt_idx) {
    SCOPED_TRACE(pkt_idx);
    const auto psdu = wifi::build_psdu(
        wifi::MacHeader{},
        make_payload(180 + static_cast<std::size_t>(pkt_idx) * 97,
                     static_cast<std::uint8_t>(pkt_idx)));
    channel::ChannelConfig ccfg;
    ccfg.ntx = nsts;
    ccfg.nrx = nsts;
    ccfg.snr_db = rc.snr_db;
    ccfg.fading = rc.fading;
    ccfg.cfo_norm = 2e-5;
    ccfg.timing_pad = 250;
    ccfg.tail_pad = 60;
    ccfg.seed = 1234 + static_cast<std::uint64_t>(pkt_idx);
    channel::MimoChannel chan(ccfg);
    const auto capture = chan.transmit(tx.transmit(psdu));

    const bool got_batched = receive_into(rx_batched, capture, ws_batched);
    const bool got_ref = receive_into(rx_ref, capture, ws_ref);
    ASSERT_EQ(got_batched, got_ref);
    if (!got_batched) continue;
    expect_packets_identical(ws_batched.packet, ws_ref.packet);
  }
}

TEST(BatchedEquivalence, SisoAllMcsZf) {
  for (unsigned mcs = 0; mcs <= 7; ++mcs) {
    SCOPED_TRACE(mcs);
    expect_batched_equivalent({mcs, eq::EqualizerType::kZeroForcing});
  }
}

TEST(BatchedEquivalence, SisoAllMcsMmseFading) {
  for (unsigned mcs = 0; mcs <= 7; ++mcs) {
    SCOPED_TRACE(mcs);
    expect_batched_equivalent(
        {mcs, eq::EqualizerType::kMmse, /*fading=*/true});
  }
}

TEST(BatchedEquivalence, MimoAllMcsZfAndMmse) {
  for (unsigned mcs = 8; mcs <= 15; ++mcs) {
    SCOPED_TRACE(mcs);
    expect_batched_equivalent({mcs, eq::EqualizerType::kZeroForcing});
    expect_batched_equivalent({mcs, eq::EqualizerType::kMmse, /*fading=*/true});
  }
}

TEST(BatchedEquivalence, MlDetector) {
  // ML demaps per symbol inside the batched bin loop — the scatter into the
  // chunk LLR slab must land every bit where the per-symbol path put it.
  for (const unsigned mcs : {0U, 2U, 8U, 11U, 12U}) {
    SCOPED_TRACE(mcs);
    expect_batched_equivalent({mcs, eq::EqualizerType::kMaxLikelihood,
                               /*fading=*/true});
  }
}

TEST(BatchedEquivalence, DecisionTracking) {
  // dd-LMS updates the channel per (bin, symbol) in symbol order; the
  // batched path walks bins outer, symbols inner, which must reproduce the
  // exact same per-bin update sequence.
  for (const unsigned mcs : {5U, 13U}) {
    SCOPED_TRACE(mcs);
    expect_batched_equivalent({mcs, eq::EqualizerType::kMmse, /*fading=*/true,
                               /*decision_tracking=*/true});
  }
}

TEST(BatchedEquivalence, FecOff) {
  // Uncoded mode skips depuncture/Viterbi: the batched path accumulates the
  // merged LLRs and hands them to the same hard-threshold tail.
  expect_batched_equivalent({3, eq::EqualizerType::kMmse, /*fading=*/false,
                             /*decision_tracking=*/false,
                             /*fec_enabled=*/false, core::FecType::kBcc,
                             /*stbc=*/false, /*snr_db=*/30.0});
}

TEST(BatchedEquivalence, Ldpc) {
  // LDPC consumes the whole merged-LLR stream at once; the batched path
  // must deliver the identical concatenation of chunk merges.
  for (const unsigned mcs : {4U, 12U}) {
    SCOPED_TRACE(mcs);
    expect_batched_equivalent({mcs, eq::EqualizerType::kMmse, /*fading=*/true,
                               /*decision_tracking=*/false,
                               /*fec_enabled=*/true, core::FecType::kLdpc});
  }
}

TEST(BatchedEquivalence, StbcFallsBackToPairwisePath) {
  // STBC decodes Alamouti pairs on the legacy path regardless of the knob;
  // both configurations must still agree (the knob is a no-op here).
  expect_batched_equivalent({4, eq::EqualizerType::kMmse, /*fading=*/true,
                             /*decision_tracking=*/false, /*fec_enabled=*/true,
                             core::FecType::kBcc, /*stbc=*/true});
}

TEST(BatchedEquivalence, WorkspaceReuseAcrossConfigs) {
  // One batched workspace dragged across wildly different configurations
  // must not leak chunk-slab state between packets.
  core::RxWorkspace ws_batched;
  core::RxWorkspace ws_ref;
  for (const unsigned mcs : {15U, 0U, 11U, 7U}) {
    SCOPED_TRACE(mcs);
    core::PhyConfig phy;
    phy.mcs = mcs;
    core::PhyConfig phy_ref = phy;
    phy_ref.batched_decode = false;
    const core::Transmitter tx(phy);
    const auto nss = phy.mcs_info().nss;
    const core::Receiver rx_batched(phy, nss);
    const core::Receiver rx_ref(phy_ref, nss);
    const auto psdu =
        wifi::build_psdu(wifi::MacHeader{}, make_payload(333, 7));
    channel::ChannelConfig ccfg;
    ccfg.ntx = nss;
    ccfg.nrx = nss;
    ccfg.snr_db = 25.0;
    ccfg.timing_pad = 180;
    ccfg.tail_pad = 50;
    ccfg.seed = 555 + mcs;
    channel::MimoChannel chan(ccfg);
    const auto capture = chan.transmit(tx.transmit(psdu));

    ASSERT_TRUE(receive_into(rx_batched, capture, ws_batched));
    ASSERT_TRUE(receive_into(rx_ref, capture, ws_ref));
    EXPECT_TRUE(ws_batched.packet.fcs_ok);
    expect_packets_identical(ws_batched.packet, ws_ref.packet);
  }
}

}  // namespace
