// Receiver farm: sharded-capture scans must be bit-identical to the
// single-threaded StreamReceiver scan for any shard/worker count (overlap-
// save seam correctness, including packets straddling every shard boundary),
// base-station mode must keep exact per-stream statistics, and the
// ReceiveSession API must front all of it coherently.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <mutex>
#include <span>
#include <vector>

#include "channel/mimo_channel.hpp"
#include "core/receive_session.hpp"
#include "core/receiver_farm.hpp"
#include "core/stream_receiver.hpp"
#include "core/transmitter.hpp"
#include "core/workspace.hpp"
#include "dsp/rng.hpp"
#include "wifi/psdu.hpp"

namespace {

using namespace mimonet;
using dsp::cf32;

struct Scenario {
  core::PhyConfig phy;
  std::vector<std::vector<std::uint8_t>> psdus;
  std::vector<std::vector<cf32>> capture;
  std::vector<std::size_t> starts;
  std::size_t max_frame_len = 0;
};

Scenario make_multi_capture(std::size_t n_packets, std::size_t gap,
                            unsigned mcs = 0, double snr_db = 30.0) {
  Scenario s;
  s.phy.mcs = mcs;
  const core::Transmitter tx(s.phy);
  const std::size_t nss = tx.num_streams();

  std::vector<std::vector<cf32>> concat(nss);
  for (std::size_t p = 0; p < n_packets; ++p) {
    s.psdus.push_back(wifi::build_psdu(
        wifi::MacHeader{},
        std::vector<std::uint8_t>(100 + 13 * p,
                                  static_cast<std::uint8_t>(0x11 + p))));
    const auto streams = tx.transmit(s.psdus.back());
    s.starts.push_back(concat[0].size());
    s.max_frame_len = std::max(s.max_frame_len, streams[0].size());
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
  ccfg.tail_pad = 200;
  channel::MimoChannel chan(ccfg);
  s.capture = chan.transmit(concat);
  for (auto& st : s.starts) st += chan.truth().packet_start;
  return s;
}

std::vector<std::span<const cf32>> as_spans(
    const std::vector<std::vector<cf32>>& capture) {
  return {capture.begin(), capture.end()};
}

/// Full scan outcome: every record plus the stats, for exact comparison.
struct ScanOutcome {
  std::vector<core::StreamRecord> recs;
  core::StreamStats stats;
};

core::StreamReceiver::EventFn collector(std::vector<core::StreamRecord>& out) {
  return [&out](const core::StreamEvent& ev) {
    core::StreamRecord rec;
    rec.offset = ev.offset;
    rec.error = ev.error;
    if (ev.packet != nullptr) {
      rec.has_packet = true;
      rec.packet = *ev.packet;
    }
    out.push_back(std::move(rec));
  };
}

ScanOutcome baseline_scan(const Scenario& s,
                          const core::ReceiveSessionConfig& cfg) {
  ScanOutcome out;
  const core::StreamReceiver srx(s.phy, s.capture.size(), cfg.scan_config());
  core::RxWorkspace ws;
  srx.scan(as_spans(s.capture), ws, out.stats, collector(out.recs));
  return out;
}

ScanOutcome farm_scan(const Scenario& s, const core::ReceiveSessionConfig& cfg) {
  ScanOutcome out;
  core::ReceiverFarm farm(s.phy, s.capture.size(), cfg);
  farm.scan(as_spans(s.capture), out.stats, collector(out.recs));
  return out;
}

void expect_identical(const ScanOutcome& ref, const ScanOutcome& got,
                      const std::string& label) {
  ASSERT_EQ(got.recs.size(), ref.recs.size()) << label;
  for (std::size_t i = 0; i < ref.recs.size(); ++i) {
    const auto& a = ref.recs[i];
    const auto& b = got.recs[i];
    EXPECT_EQ(b.offset, a.offset) << label << " rec " << i;
    EXPECT_EQ(b.error, a.error) << label << " rec " << i;
    ASSERT_EQ(b.has_packet, a.has_packet) << label << " rec " << i;
    if (a.has_packet) {
      EXPECT_EQ(b.packet.fcs_ok, a.packet.fcs_ok) << label << " rec " << i;
      EXPECT_EQ(b.packet.htsig_ok, a.packet.htsig_ok) << label << " rec " << i;
      EXPECT_EQ(b.packet.psdu, a.packet.psdu) << label << " rec " << i;
      EXPECT_EQ(b.packet.snr.snr_db, a.packet.snr.snr_db)
          << label << " rec " << i;
      EXPECT_EQ(b.packet.residual_cfo_norm, a.packet.residual_cfo_norm)
          << label << " rec " << i;
    }
  }
  EXPECT_EQ(got.stats.frames, ref.stats.frames) << label;
  EXPECT_EQ(got.stats.delivered, ref.stats.delivered) << label;
  EXPECT_EQ(got.stats.resync_events, ref.stats.resync_events) << label;
  EXPECT_EQ(got.stats.budget_exhaustions, ref.stats.budget_exhaustions)
      << label;
  EXPECT_EQ(got.stats.samples_scanned, ref.stats.samples_scanned) << label;
  for (std::size_t e = 0; e < metrics::kRxErrorCount; ++e) {
    const auto err = static_cast<metrics::RxError>(e);
    EXPECT_EQ(got.stats.errors.count(err), ref.stats.errors.count(err))
        << label << " error " << metrics::rx_error_name(err);
  }
}

/// Session config with a seam just wide enough for the scenario, so shard
/// windows are genuinely partial (the default derived seam would dwarf these
/// short test captures and make every shard see everything).
core::ReceiveSessionConfig tight_cfg(const Scenario& s, std::size_t workers,
                                     std::size_t shards) {
  return core::ReceiveSessionConfig::make()
      .workers(workers)
      .shards(shards)
      .seam(s.max_frame_len + 1024)
      .build();
}

TEST(ReceiverFarm, ShardedScanBitIdenticalAcrossShardAndWorkerCounts) {
  for (const std::size_t gap : {std::size_t{0}, std::size_t{500}}) {
    const auto s = make_multi_capture(4, gap);
    const auto ref = baseline_scan(s, tight_cfg(s, 1, 1));
    ASSERT_EQ(ref.stats.delivered, 4U) << "gap=" << gap;
    for (const std::size_t shards : {1U, 2U, 3U, 7U}) {
      for (const std::size_t workers : {1U, 4U}) {
        const auto got = farm_scan(s, tight_cfg(s, workers, shards));
        expect_identical(ref, got,
                         "gap=" + std::to_string(gap) +
                             " shards=" + std::to_string(shards) +
                             " workers=" + std::to_string(workers));
      }
    }
  }
}

TEST(ReceiverFarm, MimoShardedScanBitIdentical) {
  const auto s = make_multi_capture(3, 400, /*mcs=*/8);  // 2x2 QPSK
  const auto ref = baseline_scan(s, tight_cfg(s, 1, 1));
  ASSERT_EQ(ref.stats.delivered, 3U);
  for (const std::size_t shards : {2U, 5U}) {
    const auto got = farm_scan(s, tight_cfg(s, 2, shards));
    expect_identical(ref, got, "mimo shards=" + std::to_string(shards));
  }
}

// A packet placed so that the 2-shard boundary lands at a controlled depth
// inside the frame — first samples of the preamble, mid-preamble, mid-
// payload, last samples — and nudged a few samples either way. The farm
// must decode it exactly once, identically to the sequential scan.
TEST(ReceiverFarm, PacketStraddlingShardBoundaryDecodesExactlyOnce) {
  core::PhyConfig phy;  // SISO MCS 0
  const core::Transmitter tx(phy);
  const auto psdu = wifi::build_psdu(
      wifi::MacHeader{}, std::vector<std::uint8_t>(180, 0x5A));
  const auto frame = tx.transmit(psdu)[0];
  const std::size_t flen = frame.size();

  const std::size_t len = 4 * flen;  // boundary at 2*flen
  const std::size_t boundary = len / 2;
  std::vector<std::size_t> depths = {1, 4, 160, 400, flen / 2,
                                     flen - 5, flen - 1};
  for (const std::size_t depth : depths) {
    for (const long nudge : {-3L, 0L, 3L}) {
      const long start_l = static_cast<long>(boundary) -
                           static_cast<long>(depth) + nudge;
      ASSERT_GT(start_l, 0);
      const auto start = static_cast<std::size_t>(start_l);
      ASSERT_LE(start + flen, len);

      Scenario s;
      s.phy = phy;
      s.capture.assign(1, std::vector<cf32>(len, cf32{}));
      for (std::size_t i = 0; i < flen; ++i) s.capture[0][start + i] = frame[i];
      dsp::ComplexGaussian noise(77, 1e-4);
      for (auto& x : s.capture[0]) x += noise.sample();
      s.max_frame_len = flen;

      const auto label = "depth=" + std::to_string(depth) +
                         " nudge=" + std::to_string(nudge);
      const auto ref = baseline_scan(s, tight_cfg(s, 1, 1));
      ASSERT_EQ(ref.stats.delivered, 1U) << label;
      const auto got = farm_scan(s, tight_cfg(s, 2, 2));
      expect_identical(ref, got, label);
    }
  }
}

// A CW tone burst in the gap between two frames costs two false candidates
// 80 samples apart, and the second one's L-LTF lies before its window, so
// it asks for a rewind onto the first. Each case puts a shard boundary
// between the two: the shard that owns the first candidate has stopped by
// the time the next shard, scanning its lead-in, meets the rewind. A
// rewind that re-decoded the first candidate would make the sequential scan
// report it twice and the farm once.
TEST(ReceiverFarm, ToneBurstRewindAcrossShardBoundary) {
  // Two frames and the tone, through the channel once. The block sits in
  // exact zeros, so moving it moves every scan event with it.
  core::PhyConfig phy;  // SISO MCS 0
  const core::Transmitter tx(phy);
  std::vector<std::vector<cf32>> chains(1);
  std::vector<std::vector<std::uint8_t>> psdus;
  std::size_t gap_start = 0;
  for (std::uint8_t p = 0; p < 2; ++p) {
    psdus.push_back(wifi::build_psdu(wifi::MacHeader{},
                                     std::vector<std::uint8_t>(300, 0x33 + p)));
    const auto ppdu = tx.transmit(psdus.back())[0];
    chains[0].insert(chains[0].end(), ppdu.begin(), ppdu.end());
    if (p == 0) {
      gap_start = chains[0].size();
      chains[0].resize(gap_start + 900);
    }
  }
  channel::ChannelConfig ccfg;
  ccfg.snr_db = 30.0;
  ccfg.cfo_norm = 2e-4;
  ccfg.timing_pad = 200;
  ccfg.tail_pad = 100;
  ccfg.seed = 0x601DE;
  ccfg.faults.tone_burst(ccfg.timing_pad + gap_start + 150, 240, 3.0, 0.07);
  channel::MimoChannel chan(ccfg);
  const auto block = chan.transmit(chains)[0];
  const std::size_t len = 3 * block.size();

  const auto embed = [&](std::size_t at) {
    Scenario s;
    s.phy = phy;
    s.psdus = psdus;
    s.max_frame_len = tx.layout(psdus[0].size()).total_samples();
    s.capture.assign(1, std::vector<cf32>(len, cf32{}));
    std::copy(block.begin(), block.end(), s.capture[0].begin() + static_cast<long>(at));
    return s;
  };
  // The first false candidate, relative to the block.
  const auto probe = baseline_scan(embed(0), tight_cfg(embed(0), 1, 1));
  ASSERT_EQ(probe.stats.delivered, 2U);
  std::size_t first_false = 0;
  for (const auto& r : probe.recs) {
    if (r.error != metrics::RxError::kOk) {
      first_false = r.offset;
      break;
    }
  }
  ASSERT_GT(first_false, 0U);

  for (const std::size_t shards : {2U, 3U, 4U, 7U}) {
    // The first boundary past the candidate's block offset, 40 samples
    // after the candidate.
    std::size_t boundary = 0;
    for (std::size_t i = 1; i < shards && boundary < first_false + 40; ++i) {
      boundary = len * i / shards;
    }
    ASSERT_GE(boundary, first_false + 40);
    const auto s = embed(boundary - 40 - first_false);
    const auto label = "shards=" + std::to_string(shards);
    const auto ref = baseline_scan(s, tight_cfg(s, 1, 1));
    ASSERT_EQ(ref.stats.delivered, 2U) << label;
    std::vector<std::size_t> offsets;
    for (const auto& r : ref.recs) offsets.push_back(r.offset);
    ASSERT_NE(std::find(offsets.begin(), offsets.end(), boundary - 40), offsets.end())
        << label << ": the first false candidate moved";
    ASSERT_NE(std::find(offsets.begin(), offsets.end(), boundary + 40), offsets.end())
        << label << ": the rewinding candidate moved";
    std::sort(offsets.begin(), offsets.end());
    EXPECT_EQ(std::adjacent_find(offsets.begin(), offsets.end()), offsets.end()) << label;
    const auto got = farm_scan(s, tight_cfg(s, 2, shards));
    expect_identical(ref, got, label);
  }
}

// A frame right behind a CW tone: the tone's candidate hops 80 samples
// into the frame's L-STF, and that candidate's L-LTF lies before its
// window, so the scan rewinds onto the frame. Each case puts a shard
// boundary between the frame's start and the candidate that rewinds onto
// it. Ownership follows the scan path: the shard that stops at the
// candidate leaves it, and the rewind it causes, to the next shard, which
// owns the rewound frame although it starts below that shard's range.
TEST(ReceiverFarm, RewindBelowShardStartStaysWithTheShardThatRewinds) {
  core::PhyConfig phy;  // SISO MCS 0
  const core::Transmitter tx(phy);
  const auto psdu = wifi::build_psdu(wifi::MacHeader{},
                                     std::vector<std::uint8_t>(100, 0x6B));
  const auto frame = tx.transmit(psdu)[0];
  constexpr std::size_t kFrameAt = 9920;
  constexpr std::size_t kToneLen = 240;
  constexpr std::size_t kToneAt = kFrameAt - 144 - kToneLen;
  const std::size_t min_len = kFrameAt + frame.size() + 400;

  for (const std::size_t shards : {2U, 3U, 4U, 7U}) {
    for (std::size_t boundary = kFrameAt + 1; boundary <= kFrameAt + 16; ++boundary) {
      // The shortest capture, at least min_len long, whose split into
      // `shards` puts a boundary at `boundary`.
      std::size_t len = 0;
      for (std::size_t i = shards - 1; i >= 1 && len == 0; --i) {
        for (std::size_t l = (boundary * shards + i - 1) / i; l * i / shards == boundary;
             ++l) {
          if (l >= min_len) {
            len = l;
            break;
          }
        }
      }
      ASSERT_GT(len, 0U);

      Scenario s;
      s.phy = phy;
      s.psdus = {psdu};
      s.max_frame_len = frame.size();
      s.capture.assign(1, std::vector<cf32>(len, cf32{}));
      auto& cap = s.capture[0];
      std::copy(frame.begin(), frame.end(), cap.begin() + kFrameAt);
      for (std::size_t i = 0; i < kToneLen; ++i) {
        cap[kToneAt + i] = 0.3F * dsp::phasor(dsp::two_pi_f * 0.07F * static_cast<float>(i));
      }
      dsp::ComplexGaussian noise(0x7E57, 1e-4);
      noise.add_to(cap);

      const auto label =
          "shards=" + std::to_string(shards) + " boundary=" + std::to_string(boundary);
      const auto ref = baseline_scan(s, tight_cfg(s, 1, 1));
      ASSERT_EQ(ref.stats.delivered, 1U) << label;
      // The frame is the rewind target of a candidate past the boundary.
      ASSERT_GE(ref.recs.size(), 2U) << label;
      EXPECT_EQ(ref.recs.back().offset, kFrameAt) << label;
      EXPECT_EQ(ref.recs.back().error, metrics::RxError::kOk) << label;
      EXPECT_GE(ref.recs[ref.recs.size() - 2].offset, boundary) << label;
      const auto got = farm_scan(s, tight_cfg(s, 2, shards));
      expect_identical(ref, got, label);
    }
  }
}

TEST(ReceiverFarm, FaultedCaptureEquivalence) {
  // Corrupt the data field of packet 2 of 4 so the scan sees an FCS failure
  // and resynchronizes; the sharded scan must report the identical taxonomy.
  auto s = make_multi_capture(4, 300);
  const std::size_t hit = s.starts[1] + 1200;
  for (std::size_t i = 0; i < 400; ++i) {
    for (auto& ant : s.capture) ant[hit + i] = cf32{0.9F, -0.9F};
  }
  const auto ref = baseline_scan(s, tight_cfg(s, 1, 1));
  EXPECT_LT(ref.stats.delivered, 4U);
  for (const std::size_t shards : {2U, 3U, 7U}) {
    const auto got = farm_scan(s, tight_cfg(s, 4, shards));
    expect_identical(ref, got, "faulted shards=" + std::to_string(shards));
  }
}

TEST(ReceiverFarm, RejectsMaxPacketsInShardedMode) {
  const auto s = make_multi_capture(2, 200);
  auto cfg = tight_cfg(s, 2, 2);
  cfg.scan.max_packets = 1;
  core::ReceiverFarm farm(s.phy, s.capture.size(), cfg);
  core::StreamStats stats;
  EXPECT_THROW(
      farm.scan(as_spans(s.capture), stats, [](const core::StreamEvent&) {}),
      std::invalid_argument);
}

TEST(ReceiverFarm, BaseStationPerStreamStatsMatchSequentialScans) {
  // Three users with different captures (one faulted), submitted as five
  // jobs (user 0 twice, user 2 twice) over 2 workers.
  auto s0 = make_multi_capture(2, 250);
  auto s1 = make_multi_capture(3, 400);
  auto s2 = make_multi_capture(1, 0);
  const std::size_t hit = s1.starts[2] + 900;
  for (std::size_t i = 0; i < 300; ++i) {
    for (auto& ant : s1.capture) ant[hit + i] = cf32{0.8F, 0.8F};
  }

  const auto cfg = core::ReceiveSessionConfig::make().workers(2).build();
  const Scenario* scen[] = {&s0, &s1, &s2};
  core::StreamStats expected[3];
  {
    const core::StreamReceiver srx(s0.phy, 1, cfg.scan_config());
    core::RxWorkspace ws;
    for (std::size_t u = 0; u < 3; ++u) {
      srx.scan(as_spans(scen[u]->capture), ws, expected[u],
               [](const core::StreamEvent&) {});
    }
    // Streams 0 and 2 are submitted twice: expect double their single pass.
    expected[0].merge(expected[0]);
    expected[2].merge(expected[2]);
  }

  core::ReceiverFarm farm(s0.phy, 1, cfg);
  std::vector<std::vector<std::span<const cf32>>> spans;
  for (const auto* sc : scen) spans.push_back(as_spans(sc->capture));
  const core::StreamJob jobs[] = {
      {0, std::span<const std::span<const cf32>>(spans[0])},
      {1, std::span<const std::span<const cf32>>(spans[1])},
      {2, std::span<const std::span<const cf32>>(spans[2])},
      {0, std::span<const std::span<const cf32>>(spans[0])},
      {2, std::span<const std::span<const cf32>>(spans[2])},
  };
  std::vector<core::StreamStats> per_stream(3);
  std::mutex m;
  std::size_t events_seen = 0;
  farm.run(jobs, per_stream,
           [&m, &events_seen](std::size_t, const core::StreamEvent&) {
             const std::lock_guard<std::mutex> lk(m);
             ++events_seen;
           });

  for (std::size_t u = 0; u < 3; ++u) {
    EXPECT_EQ(per_stream[u].frames, expected[u].frames) << "user " << u;
    EXPECT_EQ(per_stream[u].delivered, expected[u].delivered) << "user " << u;
    EXPECT_EQ(per_stream[u].resync_events, expected[u].resync_events)
        << "user " << u;
    EXPECT_EQ(per_stream[u].samples_scanned, expected[u].samples_scanned)
        << "user " << u;
    for (std::size_t e = 0; e < metrics::kRxErrorCount; ++e) {
      const auto err = static_cast<metrics::RxError>(e);
      EXPECT_EQ(per_stream[u].errors.count(err), expected[u].errors.count(err))
          << "user " << u;
    }
  }
  std::size_t expected_events = 0;
  for (const auto& st : expected) expected_events += st.errors.total();
  EXPECT_EQ(events_seen, expected_events);
  // Aggregate-of-run matches the sum of the per-stream expectations.
  std::size_t total_delivered = 0;
  for (const auto& st : expected) total_delivered += st.delivered;
  EXPECT_EQ(farm.last_run_stats().delivered, total_delivered);
}

TEST(ReceiverFarm, ReusableAcrossRunsAndModes) {
  const auto s = make_multi_capture(2, 300);
  const auto cfg = tight_cfg(s, 2, 2);
  core::ReceiverFarm farm(s.phy, s.capture.size(), cfg);

  const auto spans = as_spans(s.capture);
  core::StreamStats st1;
  farm.scan(spans, st1, [](const core::StreamEvent&) {});
  EXPECT_EQ(st1.delivered, 2U);

  std::vector<core::StreamStats> per_stream(1);
  const core::StreamJob jobs[] = {
      {0, std::span<const std::span<const cf32>>(spans)}};
  farm.run(jobs, per_stream);
  EXPECT_EQ(per_stream[0].delivered, 2U);

  core::StreamStats st2;
  farm.scan(spans, st2, [](const core::StreamEvent&) {});
  EXPECT_EQ(st2.delivered, st1.delivered);
  EXPECT_EQ(st2.samples_scanned, st1.samples_scanned);
}

// ---------------------------------------------------------------- session

TEST(ReceiveSession, ReceiveOneFoldsStatsAndExposesPacket) {
  const auto s = make_multi_capture(1, 0);
  core::ReceiveSession session(s.phy, s.capture.size());
  ASSERT_TRUE(session.receive_one(s.capture));
  EXPECT_TRUE(session.packet().fcs_ok);
  EXPECT_EQ(session.packet().psdu, s.psdus[0]);
  EXPECT_EQ(session.stats().delivered, 1U);
  EXPECT_EQ(session.stats().frames, 1U);
  EXPECT_EQ(session.stats().errors.count(metrics::RxError::kOk), 1U);
  EXPECT_EQ(session.stats().samples_scanned, s.capture[0].size());
}

TEST(ReceiveSession, ScanMatchesEngineAndAccumulates) {
  const auto s = make_multi_capture(3, 350);
  const auto ref = baseline_scan(s, core::ReceiveSessionConfig{});

  core::ReceiveSession session(s.phy, s.capture.size());
  std::size_t events = 0;
  session.scan(as_spans(s.capture),
               [&events](const core::StreamEvent&) { ++events; });
  EXPECT_EQ(events, ref.recs.size());
  EXPECT_EQ(session.stats().delivered, ref.stats.delivered);

  const auto recs = session.receive_all(s.capture);
  ASSERT_EQ(recs.size(), ref.recs.size());
  for (std::size_t i = 0; i < recs.size(); ++i) {
    EXPECT_EQ(recs[i].offset, ref.recs[i].offset);
    EXPECT_EQ(recs[i].error, ref.recs[i].error);
  }
  // Two passes accumulated.
  EXPECT_EQ(session.stats().delivered, 2 * ref.stats.delivered);
  EXPECT_EQ(session.stats().samples_scanned, 2 * s.capture[0].size());
  session.reset_stats();
  EXPECT_EQ(session.stats().delivered, 0U);
  EXPECT_EQ(session.stats().errors.total(), 0U);
}

TEST(ReceiveSession, ShardedScanThroughSessionBitIdentical) {
  const auto s = make_multi_capture(4, 450);
  const auto cfg = tight_cfg(s, 4, 4);
  const auto ref = baseline_scan(s, cfg);

  core::ReceiveSession session(s.phy, s.capture.size(), cfg);
  ScanOutcome got;
  session.scan(as_spans(s.capture), collector(got.recs));
  got.stats = session.stats();
  expect_identical(ref, got, "session sharded");
}

TEST(ReceiveSession, RunStreamsFoldsAggregateStats) {
  const auto s = make_multi_capture(2, 300);
  core::ReceiveSession session(s.phy, s.capture.size(),
                               core::ReceiveSessionConfig::make().workers(2));
  const auto spans = as_spans(s.capture);
  const core::StreamJob jobs[] = {
      {0, std::span<const std::span<const cf32>>(spans)},
      {1, std::span<const std::span<const cf32>>(spans)},
  };
  std::vector<core::StreamStats> per_stream(2);
  session.run_streams(jobs, per_stream);
  EXPECT_EQ(per_stream[0].delivered, 2U);
  EXPECT_EQ(per_stream[1].delivered, 2U);
  EXPECT_EQ(session.stats().delivered, 4U);
}

TEST(ReceiveSession, MaxPacketsStaysOnCallingThread) {
  // max_packets has no sharded meaning: the session must honor it via the
  // sequential engine even when workers > 1.
  const auto s = make_multi_capture(3, 400);
  auto cfg = tight_cfg(s, 4, 4);
  cfg.scan.max_packets = 1;
  core::ReceiveSession session(s.phy, s.capture.size(), cfg);
  std::size_t delivered = 0;
  session.scan(as_spans(s.capture), [&delivered](const core::StreamEvent& ev) {
    if (ev.error == metrics::RxError::kOk) ++delivered;
  });
  EXPECT_EQ(delivered, 1U);
  EXPECT_EQ(session.stats().frames, 1U);
}

// ---------------------------------------------------------------- stats

TEST(StreamStats, ExplicitResetClearsEveryField) {
  core::StreamStats st;
  st.frames = 3;
  st.delivered = 2;
  st.resync_events = 5;
  st.budget_exhaustions = 1;
  st.samples_scanned = 999;
  st.errors.add(metrics::RxError::kFcsFail);
  st.reset();
  EXPECT_EQ(st.frames, 0U);
  EXPECT_EQ(st.delivered, 0U);
  EXPECT_EQ(st.resync_events, 0U);
  EXPECT_EQ(st.budget_exhaustions, 0U);
  EXPECT_EQ(st.samples_scanned, 0U);
  EXPECT_EQ(st.errors.total(), 0U);
}

TEST(StreamStats, MergeIsExactFieldwiseSum) {
  core::StreamStats a;
  a.frames = 2;
  a.delivered = 1;
  a.errors.add(metrics::RxError::kOk);
  core::StreamStats b;
  b.frames = 3;
  b.resync_events = 4;
  b.errors.add(metrics::RxError::kFalseSync);
  a.merge(b);
  EXPECT_EQ(a.frames, 5U);
  EXPECT_EQ(a.delivered, 1U);
  EXPECT_EQ(a.resync_events, 4U);
  EXPECT_EQ(a.errors.total(), 2U);
}

}  // namespace
