// Streaming PHY blocks: the GNU-Radio-style TX -> channel -> RX pipeline.
#include <gtest/gtest.h>

#include <algorithm>
#include <span>

#include "core/phy_blocks.hpp"
#include "dsp/rng.hpp"
#include "flowgraph/blocks.hpp"
#include "flowgraph/graph.hpp"
#include "sig_rewrite.hpp"
#include "wifi/preamble.hpp"
#include "wifi/psdu.hpp"

namespace {

using namespace mimonet;
using mimonet::dsp::cf32;

std::vector<std::vector<std::uint8_t>> make_psdus(std::size_t count,
                                                  std::size_t payload) {
  std::vector<std::vector<std::uint8_t>> psdus;
  for (std::size_t i = 0; i < count; ++i) {
    wifi::MacHeader hdr;
    hdr.sequence_control = static_cast<std::uint16_t>(i << 4U);
    psdus.push_back(
        wifi::build_psdu(hdr, std::vector<std::uint8_t>(payload,
                                                        static_cast<std::uint8_t>(i))));
  }
  return psdus;
}

core::RxPacket run_pipeline_once(unsigned mcs, bool threaded) {
  core::PhyConfig phy;
  phy.mcs = mcs;
  const auto nss = phy.mcs_info().nss;

  channel::ChannelConfig ccfg;
  ccfg.ntx = nss;
  ccfg.nrx = nss;
  ccfg.snr_db = 30.0;
  ccfg.cfo_norm = 2e-4;

  auto tx = std::make_shared<core::TransmitterBlock>(phy, make_psdus(1, 100), 1200);
  auto chan = std::make_shared<core::MimoChannelBlock>(ccfg);
  auto rx = std::make_shared<core::ReceiverBlock>(phy, nss);

  flowgraph::Graph g;
  g.add(tx);
  g.add(chan);
  g.add(rx);
  for (std::size_t s = 0; s < nss; ++s) g.connect<cf32>(*tx, s, *chan, s);
  for (std::size_t r = 0; r < nss; ++r) g.connect<cf32>(*chan, r, *rx, r);
  if (threaded) {
    flowgraph::run_threaded(g);
  } else {
    flowgraph::run_single_threaded(g);
  }
  EXPECT_EQ(rx->packets().size(), 1U);
  return rx->packets().empty() ? core::RxPacket{} : rx->packets()[0];
}

TEST(PhyBlocks, SisoSinglePacketDecodes) {
  const auto pkt = run_pipeline_once(0, false);
  EXPECT_TRUE(pkt.fcs_ok);
}

TEST(PhyBlocks, MimoSinglePacketDecodes) {
  const auto pkt = run_pipeline_once(9, false);
  EXPECT_TRUE(pkt.fcs_ok);
  EXPECT_EQ(pkt.htsig.mcs, 9);
}

TEST(PhyBlocks, ThreadedPipelineDecodes) {
  const auto pkt = run_pipeline_once(8, true);
  EXPECT_TRUE(pkt.fcs_ok);
}

TEST(PhyBlocks, BackToBackPacketsAllDecode) {
  core::PhyConfig phy;
  phy.mcs = 11;
  constexpr std::size_t kPackets = 5;

  channel::ChannelConfig ccfg;
  ccfg.ntx = 2;
  ccfg.nrx = 2;
  ccfg.snr_db = 28.0;

  auto tx = std::make_shared<core::TransmitterBlock>(phy, make_psdus(kPackets, 300),
                                                     1500);
  auto chan = std::make_shared<core::MimoChannelBlock>(ccfg);
  auto rx = std::make_shared<core::ReceiverBlock>(phy, 2);

  flowgraph::Graph g;
  g.add(tx);
  g.add(chan);
  g.add(rx);
  for (std::size_t s = 0; s < 2; ++s) g.connect<cf32>(*tx, s, *chan, s);
  for (std::size_t r = 0; r < 2; ++r) g.connect<cf32>(*chan, r, *rx, r);
  flowgraph::run_single_threaded(g);

  ASSERT_EQ(rx->packets().size(), kPackets);
  for (std::size_t i = 0; i < kPackets; ++i) {
    EXPECT_TRUE(rx->packets()[i].fcs_ok) << "packet " << i;
    const auto parsed = wifi::parse_psdu(rx->packets()[i].psdu);
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(parsed->header.sequence_control, i << 4U);
  }
}

TEST(PhyBlocks, FrameWithDestroyedLsigAcrossAttemptWindowIsDelivered) {
  // Only HT-SIG announces this frame's extent, so the scan does not trust
  // it: a window that ends mid-frame scans on past the truncated candidate.
  // The block must still hold the window at that frame until the rest of
  // it has streamed in.
  core::PhyConfig phy;
  phy.mcs = 0;
  const core::Transmitter tx(phy);
  const auto psdu = make_psdus(1, 300)[0];
  const auto layout = tx.layout(psdu.size());

  channel::ChannelConfig ccfg;
  ccfg.ntx = 1;
  ccfg.nrx = 1;
  ccfg.snr_db = 30.0;
  ccfg.timing_pad = 400;
  ccfg.tail_pad = 150;
  channel::MimoChannel chan(ccfg);
  auto capture = chan.transmit(tx.transmit(psdu));
  const std::size_t start = chan.truth().packet_start;
  dsp::ComplexGaussian noise(2, 4.0);  // loud garbage over the L-SIG
  for (std::size_t i = 0; i < wifi::kLsigLen; ++i) {
    capture[0][start + layout.lsig_offset() + i] = noise.sample();
  }

  // Samples stream in 512 at a time; the first scan sees the frame's
  // preamble and about half of its data.
  const std::size_t attempt_window = start + layout.total_samples() / 2;
  auto src = std::make_shared<flowgraph::VectorSource<cf32>>(capture[0]);
  auto rx = std::make_shared<core::ReceiverBlock>(phy, 1, attempt_window);
  flowgraph::Graph g;
  g.add(src);
  g.add(rx);
  g.connect<cf32>(*src, 0, *rx, 0, 512);
  flowgraph::run_single_threaded(g);

  EXPECT_EQ(rx->stats().delivered, 1U);
  EXPECT_EQ(rx->stats().errors.count(metrics::RxError::kTruncated), 0U);
  const auto delivered =
      std::find_if(rx->packets().begin(), rx->packets().end(),
                   [](const core::RxPacket& p) { return p.fcs_ok; });
  ASSERT_NE(delivered, rx->packets().end());
  EXPECT_FALSE(delivered->lsig_ok);
  EXPECT_EQ(delivered->psdu, psdu);
}

TEST(PhyBlocks, UncorroboratedExtentKeepsTheWindowTail) {
  // Frame A carries a well-formed HT-SIG whose extent ends a few samples
  // into frame B's L-STF; A's real L-SIG disagrees and its FCS fails, so
  // nothing corroborates that extent. The first window ends where the
  // extent does, too early to detect B: the block must keep B's first
  // samples for the next scan instead of consuming through A's extent.
  core::PhyConfig phy;
  phy.mcs = 0;
  const core::Transmitter tx(phy);
  const auto psdus = make_psdus(2, 300);
  auto a = tx.transmit(psdus[0]);
  const auto b = tx.transmit(psdus[1]);
  constexpr std::size_t kGap = 600;
  const std::size_t b_from_a = a[0].size() + kGap;
  std::uint16_t len = 1;  // smallest MCS 0 frame that reaches into B
  while (core::FrameLayout{1, core::data_symbol_count(wifi::mcs_info(0), len, true)}
             .total_samples() <= b_from_a) {
    ++len;
  }
  const std::size_t extent =
      core::FrameLayout{1, core::data_symbol_count(wifi::mcs_info(0), len, true)}
          .total_samples();
  testutil::rewrite_sig_symbols(
      a, wifi::LSig{.length = tx.layout(psdus[0].size()).spoofed_lsig_length()},
      wifi::HtSig{.mcs = 0, .length = len});
  std::vector<std::vector<cf32>> concat{a[0]};
  concat[0].resize(b_from_a, cf32{});
  concat[0].insert(concat[0].end(), b[0].begin(), b[0].end());

  channel::ChannelConfig ccfg;
  ccfg.ntx = 1;
  ccfg.nrx = 1;
  ccfg.snr_db = 30.0;
  ccfg.timing_pad = 400;
  ccfg.tail_pad = 150;
  channel::MimoChannel chan(ccfg);
  const auto capture = chan.transmit(concat)[0];
  // A few samples of slack so A's announced extent is not truncated.
  const std::size_t first_window = chan.truth().packet_start + extent + 8;
  ASSERT_LT(first_window - (chan.truth().packet_start + b_from_a), 100U);

  auto rx = std::make_shared<core::ReceiverBlock>(phy, 1, first_window);
  auto buf = std::make_shared<flowgraph::RingBuffer<cf32>>(capture.size());
  rx->bind_input(0, buf);
  const std::span<const cf32> all(capture);
  buf->write(all.first(first_window));
  rx->work();
  buf->write(all.subspan(first_window));
  buf->mark_done();
  while (rx->work() != flowgraph::WorkStatus::kDone) {
  }

  ASSERT_FALSE(rx->packets().empty());
  EXPECT_EQ(rx->packets()[0].error, metrics::RxError::kFcsFail);
  EXPECT_EQ(rx->packets()[0].htsig.length, len);
  EXPECT_EQ(rx->stats().delivered, 1U);
  const auto delivered =
      std::find_if(rx->packets().begin(), rx->packets().end(),
                   [](const core::RxPacket& p) { return p.fcs_ok; });
  ASSERT_NE(delivered, rx->packets().end());
  EXPECT_EQ(delivered->psdu, psdus[1]);
}

TEST(PhyBlocks, TransmitterTagsPacketStarts) {
  core::PhyConfig phy;
  phy.mcs = 0;
  auto tx = std::make_shared<core::TransmitterBlock>(phy, make_psdus(2, 50), 400);
  auto buf = std::make_shared<flowgraph::RingBuffer<cf32>>(1U << 18U);
  tx->bind_output(0, buf);
  while (tx->work() != flowgraph::WorkStatus::kDone) {
  }
  const auto tags = buf->tags_in_next(buf->readable());
  ASSERT_EQ(tags.size(), 2U);
  EXPECT_EQ(tags[0].key, "packet_start");
  EXPECT_EQ(std::get<std::int64_t>(tags[0].value), 0);
  EXPECT_EQ(std::get<std::int64_t>(tags[1].value), 1);
  EXPECT_GT(tags[1].offset, tags[0].offset);
}

TEST(PhyBlocks, ChannelBlockRejectsNonSquareIdentity) {
  channel::ChannelConfig ccfg;
  ccfg.ntx = 2;
  ccfg.nrx = 1;
  EXPECT_THROW(core::MimoChannelBlock{ccfg}, std::invalid_argument);
}

}  // namespace
