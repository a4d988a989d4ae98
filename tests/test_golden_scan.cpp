// Golden digests for every path that scans a capture.
//
// One seeded 2-RX capture mixes 1- and 2-stream frames (MCS 4-7 and 12-15),
// puts CW tone bursts in some of the gaps and cuts the last frame short. It
// goes through StreamReceiver::scan (exhaustive, and two-pass at decimation
// 8), the ReceiverFarm sharded scan at 1 and 4 workers, and
// Receiver::receive on a window around each frame. Each path's outcome is
// hashed bit for bit (testutil::hash_packet): event offsets and
// classifications, PSDUs, the sync estimates, both SNR estimates with their
// per-bin values, the residual CFO, the stream SINRs and the channel
// estimate. The constants pin the receiver's outputs; a change that only
// reschedules work (chunked sweeps, early exits, bounded copies) must leave
// every one of them untouched.
//
// -ffast-math (the MIMONET_NATIVE perf build) may reassociate floating
// point, so the digests are skipped there.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "channel/fault_plan.hpp"
#include "channel/mimo_channel.hpp"
#include "core/receive_session.hpp"
#include "core/receiver.hpp"
#include "core/receiver_farm.hpp"
#include "core/stream_receiver.hpp"
#include "core/transmitter.hpp"
#include "core/workspace.hpp"
#include "dsp/rng.hpp"
#include "packet_digest.hpp"
#include "wifi/psdu.hpp"

namespace {

using namespace mimonet;
using dsp::cf32;
using testutil::Digest;
using testutil::hex;

/// Every scan path's event stream. The farm must match the exhaustive scan
/// by contract; on this capture the two-pass candidate regions also
/// reproduce its float bits.
constexpr std::uint64_t kScanDigest = 0x185f91de4ef77572ULL;
/// Receiver::receive on a window around each frame.
constexpr std::uint64_t kWindowDigest = 0x41eae5a509c36553ULL;

constexpr std::size_t kNrx = 2;
constexpr std::size_t kFrames = 12;
constexpr std::size_t kPad = 200;
/// Seam for the 4-worker farm: covers the largest frame plus the re-align
/// margin, yet is short enough that later shards start mid-capture.
constexpr std::size_t kSeam = 6000;

void hash_event(Digest& d, const core::StreamEvent& ev) {
  d.pod(ev.offset);
  d.pod(ev.error);
  d.pod(ev.packet != nullptr);
  if (ev.packet != nullptr) testutil::hash_packet(d, *ev.packet);
}

struct Frame {
  std::size_t start = 0;
  std::size_t extent = 0;
};

struct Golden {
  core::PhyConfig phy;
  std::vector<std::vector<cf32>> capture;
  std::vector<Frame> frames;
};

/// Twelve frames alternating 1- and 2-stream MCS, 200-640-byte PSDUs,
/// 500-1100-sample gaps with a CW tone burst in every third gap, 30 dB AWGN
/// with a small CFO, and the capture cut 500 samples before the end of the
/// last frame (inside its data field).
Golden make_golden() {
  constexpr std::array<unsigned, 8> kMcs{4, 12, 5, 13, 6, 14, 7, 15};
  Golden g;
  std::vector<std::vector<cf32>> chains(kNrx);
  channel::FaultPlan plan;
  std::uint64_t state = 0x601DE;
  for (std::size_t p = 0; p < kFrames; ++p) {
    core::PhyConfig phy;
    phy.mcs = kMcs[p % kMcs.size()];
    const core::Transmitter tx(phy);
    std::vector<std::uint8_t> payload(200 + 40 * p);
    for (auto& b : payload) {
      state = dsp::splitmix64(state);
      b = static_cast<std::uint8_t>(state >> 56U);
    }
    const auto ppdu = tx.transmit(wifi::build_psdu(wifi::MacHeader{}, payload));
    g.frames.push_back({kPad + chains[0].size(), ppdu[0].size()});
    for (std::size_t a = 0; a < kNrx; ++a) {
      if (a < ppdu.size()) {
        chains[a].insert(chains[a].end(), ppdu[a].begin(), ppdu[a].end());
      } else {
        chains[a].resize(chains[a].size() + ppdu[0].size());
      }
    }
    if (p + 1 == kFrames) break;
    if (p % 3 == 1) {
      plan.tone_burst(kPad + chains[0].size() + 150, 240, 3.0, 0.07);
    }
    const std::size_t gap = 500 + 50 * ((p * 7) % 13);
    for (auto& c : chains) c.resize(c.size() + gap);
  }

  channel::ChannelConfig ccfg;
  ccfg.ntx = kNrx;
  ccfg.nrx = kNrx;
  ccfg.snr_db = 30.0;
  ccfg.cfo_norm = 2e-4;
  ccfg.timing_pad = kPad;
  ccfg.tail_pad = 100;
  ccfg.faults = plan;
  ccfg.seed = 0x601DE;
  channel::MimoChannel chan(ccfg);
  g.capture = chan.transmit(chains);
  const Frame& last = g.frames.back();
  for (auto& a : g.capture) a.resize(last.start + last.extent - 500);
  return g;
}

const Golden& golden() {
  static const Golden g = make_golden();
  return g;
}

std::vector<std::span<const cf32>> spans_of(const Golden& g) {
  return {g.capture.begin(), g.capture.end()};
}

std::uint64_t scan_digest(std::size_t decimation, core::StreamStats* out = nullptr) {
  const Golden& g = golden();
  const core::StreamReceiver srx(
      g.phy, kNrx, core::StreamReceiverConfig::make().scan_decimation(decimation));
  core::RxWorkspace ws;
  core::StreamStats stats;
  Digest d;
  srx.scan(spans_of(g), ws, stats,
           [&d](const core::StreamEvent& ev) { hash_event(d, ev); });
  if (out != nullptr) *out = stats;
  return d.value();
}

std::uint64_t farm_digest(std::size_t workers) {
  const Golden& g = golden();
  core::ReceiverFarm farm(
      g.phy, kNrx, core::ReceiveSessionConfig::make().workers(workers).seam(kSeam));
  core::StreamStats stats;
  Digest d;
  farm.scan(spans_of(g), stats,
            [&d](const core::StreamEvent& ev) { hash_event(d, ev); });
  return d.value();
}

std::uint64_t window_digest() {
  const Golden& g = golden();
  const core::Receiver rx(g.phy, kNrx);
  core::RxWorkspace ws;
  Digest d;
  const std::size_t len = g.capture[0].size();
  for (const Frame& f : g.frames) {
    const std::size_t begin = f.start - 100;
    const std::size_t end = std::min(len, f.start + f.extent + 100);
    std::array<std::span<const cf32>, kNrx> view;
    for (std::size_t a = 0; a < kNrx; ++a) {
      view[a] = std::span<const cf32>(g.capture[a]).subspan(begin, end - begin);
    }
    d.pod(rx.receive(view, ws));
    testutil::hash_packet(d, ws.packet);
  }
  return d.value();
}

class GoldenScan : public ::testing::Test {
 protected:
  void SetUp() override {
#ifdef __FAST_MATH__
    GTEST_SKIP() << "-ffast-math may change floating-point bits";
#endif
  }
};

TEST_F(GoldenScan, CaptureExercisesEveryOutcome) {
  core::StreamStats stats;
  (void)scan_digest(1, &stats);
  EXPECT_EQ(stats.delivered, kFrames - 1);
  EXPECT_EQ(stats.frames, kFrames);
  EXPECT_GT(stats.resync_events, 0U) << "tone bursts should cost candidates";
  EXPECT_EQ(stats.errors.count(metrics::RxError::kTruncated), 1U);
}

TEST_F(GoldenScan, NoCandidateIsReportedTwice) {
  // Each tone burst costs false candidates, and the second of them reports
  // an L-LTF before its window. The rewind barrier must keep that rewind
  // from landing on the first candidate again.
  const Golden& g = golden();
  const core::StreamReceiver srx(g.phy, kNrx);
  core::RxWorkspace ws;
  core::StreamStats stats;
  std::vector<std::size_t> offsets;
  srx.scan(spans_of(g), ws, stats,
           [&offsets](const core::StreamEvent& ev) { offsets.push_back(ev.offset); });
  ASSERT_FALSE(offsets.empty());
  std::sort(offsets.begin(), offsets.end());
  EXPECT_EQ(std::adjacent_find(offsets.begin(), offsets.end()), offsets.end())
      << "a candidate offset was reported twice";
}

TEST_F(GoldenScan, ExhaustiveScan) {
  EXPECT_EQ(hex(scan_digest(1)), hex(kScanDigest));
}

TEST_F(GoldenScan, TwoPassScan) {
  EXPECT_EQ(hex(scan_digest(8)), hex(kScanDigest));
}

TEST_F(GoldenScan, FarmOneWorker) {
  EXPECT_EQ(hex(farm_digest(1)), hex(kScanDigest));
}

TEST_F(GoldenScan, FarmFourWorkers) {
  EXPECT_EQ(hex(farm_digest(4)), hex(kScanDigest));
}

TEST_F(GoldenScan, ReceiveOnFrameWindows) {
  EXPECT_EQ(hex(window_digest()), hex(kWindowDigest));
}

}  // namespace
