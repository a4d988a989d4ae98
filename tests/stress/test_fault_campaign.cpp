// Fault-injection campaign: sweep every FaultPlan fault kind x injection
// position (inter-packet gap, packet preamble, packet data field) x MCS over
// a three-packet capture, scan it with the streaming receiver, and assert
// the resilience contract end to end:
//   - the scan never crashes (the suite also runs under ASan/UBSan/TSan),
//   - every packet the fault did not corrupt decodes cleanly,
//   - resynchronization lands within a bounded sample distance of each
//     surviving packet's true start (clock slips shift the truth),
//   - the reported RxError class matches the injected fault: a destroyed
//     preamble yields sync/SIG-stage errors and no delivery, a corrupted
//     data field yields exactly one kFcsFail frame, and faults the chain
//     absorbs (phase jumps, preamble clock slips) still deliver.
// The fault plan rides through ChannelConfig::faults, so MimoChannel both
// applies it and echoes it into ChannelTruth as ground truth.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstdlib>
#include <span>
#include <utility>
#include <vector>

#include "../sig_rewrite.hpp"
#include "channel/fault_plan.hpp"
#include "channel/mimo_channel.hpp"
#include "core/receive_session.hpp"
#include "core/receiver_farm.hpp"
#include "core/stream_receiver.hpp"
#include "core/transmitter.hpp"
#include "core/workspace.hpp"
#include "mac/arq.hpp"
#include "stress_util.hpp"
#include "wifi/psdu.hpp"

namespace {

using namespace mimonet;
using dsp::cf32;

enum class Where { kGap, kPreamble, kData };

/// What the campaign expects to become of the packet the fault targets
/// (for gap faults, the packet right after the fault).
enum class P1Outcome {
  kDelivered,  ///< the chain absorbed the fault: clean decode
  kFcsFail,    ///< frame consumed, payload corrupt: exactly one kFcsFail
  kLost,       ///< preamble destroyed: sync/SIG-stage errors, no delivery
};

const char* where_name(Where w) {
  switch (w) {
    case Where::kGap: return "gap";
    case Where::kPreamble: return "preamble";
    case Where::kData: return "data";
  }
  return "?";
}

struct Cell {
  unsigned mcs;
  channel::FaultKind kind;
  Where where;
};

struct CellRun {
  std::vector<core::StreamRecord> records;
  std::vector<std::vector<std::uint8_t>> psdus;
  std::vector<std::size_t> starts;  ///< true packet starts, pre-fault
  long shift = 0;                   ///< sample shift a clock slip causes
  std::size_t fault_start = 0;
  channel::FaultPlan truth_faults;
  std::vector<std::vector<cf32>> capture;  ///< kept for the stats subtest
  core::PhyConfig phy;
};

/// Three packets with 600-sample gaps through a clean flat channel, one
/// fault injected via the channel's own FaultPlan hook.
CellRun run_cell(const Cell& cell) {
  CellRun r;
  r.phy.mcs = cell.mcs;
  const core::Transmitter tx(r.phy);
  const std::size_t nss = tx.num_streams();
  constexpr std::size_t kGapLen = 600;
  constexpr std::size_t kPad = 300;

  std::vector<std::size_t> frame_lens;
  std::vector<std::vector<cf32>> concat(nss);
  for (std::size_t p = 0; p < 3; ++p) {
    r.psdus.push_back(wifi::build_psdu(
        wifi::MacHeader{},
        std::vector<std::uint8_t>(90 + 7 * p,
                                  static_cast<std::uint8_t>(0x40 + p))));
    const auto streams = tx.transmit(r.psdus.back());
    r.starts.push_back(concat[0].size() + kPad);
    frame_lens.push_back(streams[0].size());
    for (std::size_t c = 0; c < nss; ++c) {
      concat[c].insert(concat[c].end(), streams[c].begin(), streams[c].end());
      if (p + 1 < 3) concat[c].resize(concat[c].size() + kGapLen, cf32{});
    }
  }

  switch (cell.where) {
    case Where::kGap:
      r.fault_start = r.starts[0] + frame_lens[0] + 150;
      break;
    case Where::kPreamble:
      r.fault_start = r.starts[1] + 30;
      break;
    case Where::kData:
      r.fault_start =
          r.starts[1] + tx.layout(r.psdus[1].size()).data_offset() + 100;
      break;
  }

  channel::FaultPlan plan;
  switch (cell.kind) {
    case channel::FaultKind::kToneBurst:
      plan.tone_burst(r.fault_start, 240, 3.0, 0.07);
      break;
    case channel::FaultKind::kNoiseBurst:
      plan.noise_burst(r.fault_start, 240, 9.0);
      break;
    case channel::FaultKind::kGainStep:
      plan.gain_step(r.fault_start, 240, 0.02);
      break;
    case channel::FaultKind::kSampleDrop:
      plan.sample_drop(r.fault_start, 40);
      r.shift = -40;
      break;
    case channel::FaultKind::kSampleInsert:
      plan.sample_insert(r.fault_start, 40);
      r.shift = 40;
      break;
    case channel::FaultKind::kPhaseJump:
      plan.phase_jump(r.fault_start, 2.5);
      break;
    case channel::FaultKind::kErasure:
      plan.erasure(r.fault_start, 240);
      break;
    case channel::FaultKind::kCsiStale:
      // Not a sample-domain fault — the MU downlink interprets it at
      // sounding time; nothing for this single-link campaign to inject.
      break;
  }

  channel::ChannelConfig ccfg;
  ccfg.ntx = nss;
  ccfg.nrx = nss;
  ccfg.snr_db = 30.0;
  ccfg.timing_pad = kPad;
  ccfg.tail_pad = 200;
  ccfg.seed = 0xFA017CA3ULL + cell.mcs;
  ccfg.faults = plan;
  channel::MimoChannel chan(ccfg);
  r.capture = chan.transmit(concat);
  r.truth_faults = chan.truth().faults;
  EXPECT_EQ(chan.truth().packet_start, kPad);

  const core::StreamReceiver srx(r.phy, r.capture.size());
  r.records = srx.receive_all(r.capture);
  return r;
}

/// The campaign's ground-truth expectation table, established against the
/// deterministic seeds above. Phase jumps are common-mode across antennas,
/// so pilot phase tracking absorbs them — except mid-data at 16-QAM 3/4
/// (MCS 3), where the half-rotated OFDM symbol overwhelms the code.
P1Outcome expected_outcome(const Cell& cell) {
  if (cell.kind == channel::FaultKind::kPhaseJump) {
    return (cell.where == Where::kData && cell.mcs == 3) ? P1Outcome::kFcsFail
                                                         : P1Outcome::kDelivered;
  }
  if (cell.where == Where::kGap) return P1Outcome::kDelivered;
  if (cell.where == Where::kData) return P1Outcome::kFcsFail;
  // Preamble faults: clock slips only move the packet; everything else
  // destroys the training fields the decode needs.
  if (cell.kind == channel::FaultKind::kSampleDrop ||
      cell.kind == channel::FaultKind::kSampleInsert) {
    return P1Outcome::kDelivered;
  }
  return P1Outcome::kLost;
}

/// Sync/timing tolerance: the detector's plateau edge sits within a few
/// samples of the true L-STF start across all swept configurations.
constexpr long kResyncTolerance = 8;

void check_cell(const Cell& cell) {
  const CellRun r = run_cell(cell);
  SCOPED_TRACE(::testing::Message()
               << "mcs=" << cell.mcs << " kind="
               << channel::fault_kind_name(cell.kind)
               << " where=" << where_name(cell.where));

  // The channel echoed the injected plan as ground truth.
  ASSERT_EQ(r.truth_faults.events.size(), 1U);
  EXPECT_EQ(r.truth_faults.events[0].kind, cell.kind);
  EXPECT_EQ(r.truth_faults.events[0].start, r.fault_start);

  // Expected post-fault position of each packet: a clock slip at
  // fault_start shifts every packet whose training fields lie after it
  // (for the preamble cell that includes the targeted packet itself).
  const auto expected_start = [&](std::size_t p) {
    long e = static_cast<long>(r.starts[p]);
    if (r.shift != 0 && r.fault_start < r.starts[p] + 200) e += r.shift;
    return e;
  };

  // Partition the scan's records: clean deliveries matched to sent PSDUs
  // vs everything else (failed candidates, corrupt frames).
  std::array<const core::StreamRecord*, 3> delivered{};
  std::vector<const core::StreamRecord*> anomalies;
  for (const auto& rec : r.records) {
    int match = -1;
    if (rec.error == metrics::RxError::kOk && rec.has_packet) {
      for (int p = 0; p < 3; ++p) {
        if (rec.packet.psdu == r.psdus[static_cast<std::size_t>(p)]) match = p;
      }
    }
    if (match >= 0) {
      delivered[static_cast<std::size_t>(match)] = &rec;
    } else {
      anomalies.push_back(&rec);
    }
  }

  // The packets the fault never touched must decode, resynced onto their
  // true (shift-adjusted) starts.
  for (const std::size_t p : {std::size_t{0}, std::size_t{2}}) {
    ASSERT_NE(delivered[p], nullptr) << "unfaulted packet " << p << " lost";
    EXPECT_TRUE(delivered[p]->packet.fcs_ok);
    EXPECT_LE(std::abs(static_cast<long>(delivered[p]->offset) -
                       expected_start(p)),
              kResyncTolerance);
  }

  switch (expected_outcome(cell)) {
    case P1Outcome::kDelivered:
      ASSERT_NE(delivered[1], nullptr) << "absorbable fault lost the packet";
      EXPECT_LE(std::abs(static_cast<long>(delivered[1]->offset) -
                         expected_start(1)),
                kResyncTolerance);
      break;
    case P1Outcome::kFcsFail: {
      EXPECT_EQ(delivered[1], nullptr);
      // Exactly one consumed-but-corrupt frame at the faulted packet's
      // position; the scanner skipped its announced extent (otherwise the
      // following packet could not have decoded at its exact start).
      ASSERT_EQ(anomalies.size(), 1U);
      const auto& bad = *anomalies[0];
      EXPECT_EQ(bad.error, metrics::RxError::kFcsFail);
      ASSERT_TRUE(bad.has_packet);
      EXPECT_TRUE(bad.packet.htsig_ok);
      EXPECT_FALSE(bad.packet.fcs_ok);
      EXPECT_LE(std::abs(static_cast<long>(bad.offset) -
                         static_cast<long>(r.starts[1])),
                kResyncTolerance);
      break;
    }
    case P1Outcome::kLost:
      EXPECT_EQ(delivered[1], nullptr);
      EXPECT_FALSE(anomalies.empty()) << "a destroyed preamble must surface "
                                         "sync/SIG-stage errors, not silence";
      break;
  }

  // Whatever else the fault provoked is classified as a pre-FCS failure —
  // never a bogus clean delivery, never an unclassified record.
  for (const auto* a : anomalies) {
    EXPECT_TRUE(a->error == metrics::RxError::kFalseSync ||
                a->error == metrics::RxError::kHtsigFail ||
                a->error == metrics::RxError::kFcsFail)
        << metrics::rx_error_name(a->error);
    // Failed candidates cluster around the faulted region, bounded well
    // before the next packet's start: resync distance stays bounded.
    EXPECT_GT(a->offset, r.starts[0]);
    EXPECT_LT(static_cast<long>(a->offset),
              expected_start(2) - kResyncTolerance);
  }
}

void sweep_kind(channel::FaultKind kind) {
  for (const unsigned mcs : {0U, 3U, 8U}) {
    for (const Where where : {Where::kGap, Where::kPreamble, Where::kData}) {
      check_cell(Cell{mcs, kind, where});
    }
  }
}

TEST(FaultCampaign, ToneBurst) { sweep_kind(channel::FaultKind::kToneBurst); }
TEST(FaultCampaign, NoiseBurst) { sweep_kind(channel::FaultKind::kNoiseBurst); }
TEST(FaultCampaign, GainStep) { sweep_kind(channel::FaultKind::kGainStep); }
TEST(FaultCampaign, SampleDrop) { sweep_kind(channel::FaultKind::kSampleDrop); }
TEST(FaultCampaign, SampleInsert) {
  sweep_kind(channel::FaultKind::kSampleInsert);
}
TEST(FaultCampaign, PhaseJump) { sweep_kind(channel::FaultKind::kPhaseJump); }
TEST(FaultCampaign, Erasure) { sweep_kind(channel::FaultKind::kErasure); }

TEST(FaultCampaign, StreamStatsAccountForEveryAttempt) {
  // One destroyed-preamble cell, re-scanned through the stats interface:
  // the counters must reconcile exactly with the record stream.
  const CellRun r =
      run_cell(Cell{0, channel::FaultKind::kNoiseBurst, Where::kPreamble});
  const core::StreamReceiver srx(r.phy, r.capture.size());
  core::RxWorkspace ws;
  core::StreamStats stats;
  std::vector<std::span<const cf32>> spans(r.capture.begin(), r.capture.end());
  std::size_t events = 0;
  srx.scan(spans, ws, stats, [&](const core::StreamEvent&) { ++events; });

  EXPECT_EQ(stats.frames, 2U);
  EXPECT_EQ(stats.delivered, 2U);
  EXPECT_GT(stats.resync_events, 0U);
  EXPECT_EQ(stats.budget_exhaustions, 0U);
  EXPECT_EQ(stats.samples_scanned, r.capture[0].size());
  EXPECT_EQ(stats.errors.count(metrics::RxError::kOk), 2U);
  EXPECT_EQ(stats.errors.count(metrics::RxError::kBudgetExceeded), 0U);
  EXPECT_EQ(stats.errors.total(), events);
  EXPECT_EQ(stats.errors.errors(), stats.resync_events);
}

// ------------------------------------------------- adaptation under fire

/// Run one selective-repeat link under the shared fade + pulsed-interference
/// schedule with the given adaptation policy and return its stats.
mac::SrStats run_adapt_campaign(mac::AdaptPolicy policy) {
  mac::SrConfig cfg;
  cfg.arq.data_phy.mcs = 7;
  cfg.arq.ack_phy.mcs = 0;
  cfg.arq.forward.snr_db = 30.0;
  cfg.arq.forward.timing_pad = 300;
  cfg.arq.forward.tail_pad = 80;
  cfg.arq.forward.seed = 5150;
  cfg.arq.reverse = cfg.arq.forward;
  cfg.arq.reverse.seed = 5151;
  cfg.arq.seed = 5150;
  cfg.arq.max_retries = 6;
  // A pulsed wideband interferer: strong 25 us bursts every 120 us for the
  // whole run. The geometry matters: a 300-byte MCS 7 frame is ~80 us of
  // air, so with the burst period just above the frame period nearly every
  // frame gets its data field clipped while the ~36 us preamble usually
  // escapes — the L-LTF estimate still reads the healthy 30 dB channel, so
  // the failure classifies as interference, not channel. Nothing decodes
  // inside a burst at any rate (variance 2.0 is ~ -3 dB in-burst), so
  // stepping the MCS down buys no deliveries — it only donates goodput.
  for (double t = 60.0; t < 40000.0; t += 120.0) {
    cfg.arq.interference.push_back({t, t + 25.0, 2.0});
  }
  cfg.adapt.policy = policy;
  mac::SelectiveRepeatLink link(cfg);
  for (int i = 0; i < 40; ++i) {
    link.queue(std::vector<std::uint8_t>(300, static_cast<std::uint8_t>(i)));
  }
  return link.run();
}

TEST(FaultCampaign, EvidencePolicyBeatsFailureCountUnderInterference) {
  const auto baseline = run_adapt_campaign(mac::AdaptPolicy::kFailureCount);
  const auto evidence = run_adapt_campaign(mac::AdaptPolicy::kEvidence);

  // The schedule must actually bite: the baseline sees enough consecutive
  // burst losses to trigger its blind fallback.
  EXPECT_GT(baseline.retransmissions, 0U);
  EXPECT_GT(baseline.mcs_fallbacks, 0U);

  // The evidence controller recognizes the healthy-channel failures,
  // rides the bursts out (holding the rate, stretching the backoff), and
  // converts that into at least the baseline's goodput.
  EXPECT_GT(evidence.interference_holds, 0U);
  EXPECT_LT(evidence.mcs_fallbacks, baseline.mcs_fallbacks);
  EXPECT_GE(evidence.delivered, baseline.delivered);
  EXPECT_GE(evidence.goodput_mbps(), baseline.goodput_mbps());
}

TEST(FaultCampaign, EvidencePolicyStillFallsBackInAGenuineFade) {
  // A long deep fade (not interference): the evidence controller must not
  // mistake it for a burst — pilot/preamble SNR is genuinely short, so it
  // steps the rate down like the baseline would.
  mac::SrConfig cfg;
  cfg.arq.data_phy.mcs = 7;
  cfg.arq.ack_phy.mcs = 0;
  cfg.arq.forward.snr_db = 30.0;
  cfg.arq.forward.timing_pad = 300;
  cfg.arq.forward.tail_pad = 80;
  cfg.arq.forward.seed = 6160;
  cfg.arq.reverse = cfg.arq.forward;
  cfg.arq.reverse.seed = 6161;
  cfg.arq.seed = 6160;
  cfg.arq.max_retries = 8;
  // -14 dB for 4 ms: effective 16 dB, below every 64-QAM rate's need.
  cfg.arq.fades.push_back({0.0, 4000.0, 0.2});
  cfg.adapt.policy = mac::AdaptPolicy::kEvidence;
  mac::SelectiveRepeatLink link(cfg);
  for (int i = 0; i < 25; ++i) {
    link.queue(std::vector<std::uint8_t>(300, static_cast<std::uint8_t>(i)));
  }
  const auto& stats = link.run();
  EXPECT_GT(stats.mcs_fallbacks, 0U);  // classified as channel, stepped down
  EXPECT_GT(stats.delivered, 20U);     // and the lower rate carried the mail
}

// ---- The SIG invariant. A false sync's L-SIG passes parity on half of all
// candidates and its HT-SIG passes CRC-8 on 1 in 256, so the scan sees
// arbitrary SIG contents under valid checks. Here the first of four real
// frames carries such contents on purpose; whatever they announce, every
// frame after it must be delivered, by the sequential scan and by the farm
// at 2 and 4 shards. ----

/// Random L-SIG and HT-SIG contents. Even draws keep the HT-SIG within what
/// decode_htsig accepts (20 MHz, long GI, no extension streams) and within
/// the modes the receiver decodes (MCS 0-15, STBC only on one stream), so
/// it decodes on with the false geometry; odd draws randomize every field.
std::pair<wifi::LSig, wifi::HtSig> random_sigs(stress::SeedStream& rng, bool full) {
  const auto bits = [&rng](unsigned n) {
    return static_cast<std::uint32_t>(rng.next_u64() & ((1ULL << n) - 1));
  };
  wifi::LSig lsig;
  lsig.rate_bits = static_cast<std::uint8_t>(bits(4));
  lsig.length = static_cast<std::uint16_t>(bits(12));
  wifi::HtSig htsig;
  htsig.mcs = static_cast<std::uint8_t>(full ? bits(7) : bits(4));
  // Short lengths put the false extent inside the capture, long ones past
  // its end.
  htsig.length = static_cast<std::uint16_t>(bits(bits(1) != 0 ? 10 : 16));
  htsig.smoothing = bits(1) != 0;
  htsig.not_sounding = bits(1) != 0;
  htsig.aggregation = bits(1) != 0;
  htsig.stbc = static_cast<std::uint8_t>(full ? bits(2) : bits(1) & (htsig.mcs < 8));
  htsig.fec_coding = bits(1) != 0;
  if (full) {
    htsig.cbw40 = bits(1) != 0;
    htsig.short_gi = bits(1) != 0;
    htsig.n_ess = static_cast<std::uint8_t>(bits(2));
  }
  return {lsig, htsig};
}

TEST(FaultCampaign, RandomSigContentsHideNoFollower) {
  constexpr std::size_t kFrames = 4;
  constexpr std::size_t kGapLen = 500;
  stress::SeedStream rng(0x516C0DE);
  std::size_t false_geometry = 0;  // trials decoded under the planted HT-SIG
  for (unsigned trial = 0; trial < 40; ++trial) {
    core::PhyConfig phy;
    phy.mcs = (trial % 4 < 2) ? 4 : 12;  // 1x1 16-QAM, 2x2 16-QAM
    const core::Transmitter tx(phy);
    const std::size_t nss = tx.num_streams();
    const auto [lsig, htsig] = random_sigs(rng, trial % 2 == 1);
    SCOPED_TRACE(::testing::Message()
                 << "trial " << trial << " mcs " << phy.mcs << " L-SIG rate "
                 << int{lsig.rate_bits} << " len " << lsig.length << " HT-SIG mcs "
                 << int{htsig.mcs} << " len " << htsig.length << " stbc "
                 << int{htsig.stbc} << " ldpc " << htsig.fec_coding << " cbw40 "
                 << htsig.cbw40 << " sgi " << htsig.short_gi << " n_ess "
                 << int{htsig.n_ess});

    std::vector<std::vector<std::uint8_t>> psdus;
    std::vector<std::vector<cf32>> concat(nss);
    std::size_t max_frame = 0;
    for (std::size_t p = 0; p < kFrames; ++p) {
      psdus.push_back(wifi::build_psdu(
          wifi::MacHeader{},
          std::vector<std::uint8_t>(150 + 11 * p, static_cast<std::uint8_t>(trial + p))));
      auto streams = tx.transmit(psdus.back());
      if (p == 0) testutil::rewrite_sig_symbols(streams, lsig, htsig);
      max_frame = std::max(max_frame, streams[0].size());
      for (std::size_t c = 0; c < nss; ++c) {
        concat[c].insert(concat[c].end(), streams[c].begin(), streams[c].end());
        concat[c].resize(concat[c].size() + kGapLen, cf32{});
      }
    }
    channel::ChannelConfig ccfg;
    ccfg.ntx = nss;
    ccfg.nrx = nss;
    ccfg.snr_db = 30.0;
    ccfg.timing_pad = 300;
    ccfg.tail_pad = 100;
    ccfg.seed = 7100 + trial;
    channel::MimoChannel chan(ccfg);
    const auto capture = chan.transmit(concat);
    const std::vector<std::span<const cf32>> spans(capture.begin(), capture.end());

    const auto expect_followers = [&](const std::vector<core::StreamRecord>& recs,
                                      const char* path) {
      for (std::size_t p = 1; p < kFrames; ++p) {
        const auto hit = std::count_if(recs.begin(), recs.end(), [&](const auto& r) {
          return r.error == metrics::RxError::kOk && r.packet.psdu == psdus[p];
        });
        EXPECT_EQ(hit, 1) << path << ": follower " << p;
      }
    };
    const auto collect = [](std::vector<core::StreamRecord>& out) {
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
    };

    const core::StreamReceiver srx(phy, nss);
    const auto sequential = srx.receive_all(capture);
    expect_followers(sequential, "sequential");
    if (!sequential.empty() && sequential[0].has_packet &&
        sequential[0].packet.htsig_ok && sequential[0].packet.htsig == htsig) {
      ++false_geometry;
    }

    for (const std::size_t shards : {2U, 4U}) {
      core::ReceiverFarm farm(phy, nss,
                              core::ReceiveSessionConfig::make()
                                  .workers(2)
                                  .shards(shards)
                                  .seam(max_frame + 1024)
                                  .build());
      std::vector<core::StreamRecord> recs;
      core::StreamStats stats;
      farm.scan(spans, stats, collect(recs));
      expect_followers(recs, shards == 2 ? "farm 2 shards" : "farm 4 shards");
    }
  }
  // The dangerous case must be exercised, not just the rejected contents.
  EXPECT_GE(false_geometry, 10U);
}

}  // namespace
