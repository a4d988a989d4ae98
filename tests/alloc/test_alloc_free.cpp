// Allocation-count regression test for the hot path.
//
// A global operator new hook counts heap allocations while armed. After one
// warm-up pass through Receiver::receive (which sizes every workspace buffer
// and populates the process-wide plan/interleaver/constellation caches), a
// steady-state pass over the same capture must perform ZERO allocations.
// This is the contract that keeps the Monte-Carlo engine's per-packet cost
// flat: all scratch lives in TxWorkspace/RxWorkspace and is reused.
//
// Kept in its own executable so the hook cannot distort the main unit suite.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cstdlib>
#include <latch>
#include <new>
#include <span>
#include <vector>

#include "channel/mimo_channel.hpp"
#include "channel/multi_user_channel.hpp"
#include "core/link_simulator.hpp"
#include "core/mu_receiver.hpp"
#include "core/receive_session.hpp"
#include "core/receiver.hpp"
#include "core/receiver_farm.hpp"
#include "core/transmitter.hpp"
#include "core/workspace.hpp"
#include "eq/precoder.hpp"
#include "sync/frame_sync.hpp"
#include "wifi/psdu.hpp"

namespace {

std::atomic<bool> g_armed{false};
std::atomic<std::size_t> g_allocs{0};

struct AllocGuard {
  AllocGuard() {
    g_allocs.store(0, std::memory_order_relaxed);
    g_armed.store(true, std::memory_order_relaxed);
  }
  ~AllocGuard() { g_armed.store(false, std::memory_order_relaxed); }
  [[nodiscard]] static std::size_t count() {
    return g_allocs.load(std::memory_order_relaxed);
  }
};

void* counted_alloc(std::size_t size) {
  if (g_armed.load(std::memory_order_relaxed)) {
    g_allocs.fetch_add(1, std::memory_order_relaxed);
  }
  if (void* p = std::malloc(size != 0 ? size : 1)) return p;
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return std::malloc(size != 0 ? size : 1);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return std::malloc(size != 0 ? size : 1);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace {

using namespace mimonet;

struct Scenario {
  unsigned mcs;
  std::size_t nrx;
  eq::EqualizerType eq_type;
  const char* name;
  bool batched = true;  ///< exercise the batched symbol-plane pipeline
  core::FecType fec_type = core::FecType::kBcc;
  bool stbc = false;
};

std::vector<std::vector<dsp::cf32>> make_capture(const core::Transmitter& tx,
                                                 std::size_t nss,
                                                 std::size_t nrx) {
  const auto psdu =
      wifi::build_psdu(wifi::MacHeader{}, std::vector<std::uint8_t>(300, 0x5A));
  channel::ChannelConfig ccfg;
  ccfg.ntx = nss;
  ccfg.nrx = nrx;
  ccfg.snr_db = 30.0;
  ccfg.timing_pad = 200;
  ccfg.tail_pad = 80;
  ccfg.seed = 99;
  channel::MimoChannel chan(ccfg);
  return chan.transmit(tx.transmit(psdu));
}

void expect_zero_steady_state(const Scenario& sc) {
  SCOPED_TRACE(sc.name);
  core::PhyConfig phy;
  phy.mcs = sc.mcs;
  phy.equalizer = sc.eq_type;
  phy.batched_decode = sc.batched;
  phy.fec_type = sc.fec_type;
  phy.stbc = sc.stbc;
  const core::Transmitter tx(phy);
  const auto nss = phy.n_sts();
  const core::Receiver rx(phy, sc.nrx);
  const auto capture = make_capture(tx, nss, sc.nrx);
  const std::vector<std::span<const dsp::cf32>> spans(capture.begin(),
                                                      capture.end());
  const std::span<const std::span<const dsp::cf32>> cap(spans);

  core::RxWorkspace ws;
  // Warm-up: size every workspace buffer and populate process-wide caches.
  ASSERT_TRUE(rx.receive(cap, ws));
  ASSERT_TRUE(ws.packet.fcs_ok);
  const auto reference = ws.packet.psdu;

  {
    const AllocGuard guard;
    for (int i = 0; i < 4; ++i) {
      ASSERT_TRUE(rx.receive(cap, ws));
    }
    EXPECT_EQ(AllocGuard::count(), 0U)
        << "steady-state Receiver::receive allocated";
  }
  EXPECT_EQ(ws.packet.psdu, reference);
}

TEST(AllocFree, SisoBcc) {
  expect_zero_steady_state({7, 1, eq::EqualizerType::kMmse, "1x1 MCS7 MMSE"});
  expect_zero_steady_state({0, 1, eq::EqualizerType::kZeroForcing,
                            "1x1 MCS0 ZF"});
}

TEST(AllocFree, MimoBcc) {
  expect_zero_steady_state({15, 2, eq::EqualizerType::kMmse, "2x2 MCS15 MMSE"});
  expect_zero_steady_state({8, 2, eq::EqualizerType::kZeroForcing,
                            "2x2 MCS8 ZF"});
}

TEST(AllocFree, MimoMlDetector) {
  expect_zero_steady_state({11, 2, eq::EqualizerType::kMaxLikelihood,
                            "2x2 MCS11 ML"});
}

// LDPC decodes each codeword through the workspace's decoder scratch, and
// STBC runs the pairwise Alamouti path: both modes keep the contract.
TEST(AllocFree, LdpcReceive) {
  expect_zero_steady_state({4, 1, eq::EqualizerType::kMmse, "1x1 MCS4 LDPC",
                            /*batched=*/true, core::FecType::kLdpc});
  expect_zero_steady_state({12, 2, eq::EqualizerType::kMmse, "2x2 MCS12 LDPC",
                            /*batched=*/true, core::FecType::kLdpc});
}

TEST(AllocFree, StbcReceive) {
  expect_zero_steady_state({4, 2, eq::EqualizerType::kMmse, "2x2 MCS4 STBC",
                            /*batched=*/true, core::FecType::kBcc, /*stbc=*/true});
  expect_zero_steady_state({2, 2, eq::EqualizerType::kMmse, "2x2 MCS2 STBC LDPC",
                            /*batched=*/true, core::FecType::kLdpc, /*stbc=*/true});
}

// The reference per-symbol path must stay allocation-free too: the batched
// pipeline's slabs are additive, not a replacement for the per-symbol
// scratch.
TEST(AllocFree, PerSymbolReferencePath) {
  expect_zero_steady_state({15, 2, eq::EqualizerType::kMmse,
                            "2x2 MCS15 MMSE per-symbol", /*batched=*/false});
  expect_zero_steady_state({7, 1, eq::EqualizerType::kZeroForcing,
                            "1x1 MCS7 ZF per-symbol", /*batched=*/false});
}

// The synchronizer on its own: the fine L-LTF search keeps its per-antenna
// correlations and their magnitudes in SyncScratch, so a warm
// synchronize() allocates nothing.
TEST(AllocFree, WarmSynchronizeSteadyState) {
  core::PhyConfig phy;
  phy.mcs = 12;
  const core::Transmitter tx(phy);
  const auto capture = make_capture(tx, 2, 2);
  const std::vector<std::span<const dsp::cf32>> spans(capture.begin(),
                                                      capture.end());
  const sync::FrameSynchronizer fs(sync::FrameSyncConfig{});
  sync::SyncScratch scratch;
  const auto warm = fs.synchronize(spans, scratch);
  ASSERT_TRUE(warm.has_value());
  ASSERT_FALSE(scratch.fine.mag.empty());
  {
    const AllocGuard guard;
    for (int i = 0; i < 4; ++i) {
      const auto res = fs.synchronize(spans, scratch);
      ASSERT_TRUE(res.has_value());
      EXPECT_EQ(res->packet_start, warm->packet_start);
    }
    EXPECT_EQ(AllocGuard::count(), 0U) << "steady-state synchronize allocated";
  }
}

/// 2-RX capture of `frames` PPDUs cycling through `mcs`, 500-sample gaps; a
/// 1-stream frame goes out on TX antenna 0 with antenna 1 silent.
std::vector<std::vector<dsp::cf32>> make_mixed_capture(
    std::span<const unsigned> mcs, std::size_t frames) {
  std::vector<std::vector<dsp::cf32>> chains(2);
  for (std::size_t p = 0; p < frames; ++p) {
    core::PhyConfig phy;
    phy.mcs = mcs[p % mcs.size()];
    const auto ppdu = core::Transmitter(phy).transmit(wifi::build_psdu(
        wifi::MacHeader{}, std::vector<std::uint8_t>(300, 0x5A)));
    for (std::size_t a = 0; a < 2; ++a) {
      if (a < ppdu.size()) {
        chains[a].insert(chains[a].end(), ppdu[a].begin(), ppdu[a].end());
      } else {
        chains[a].resize(chains[a].size() + ppdu[0].size());
      }
      chains[a].resize(chains[a].size() + 500);
    }
  }
  channel::ChannelConfig ccfg;
  ccfg.ntx = 2;
  ccfg.nrx = 2;
  ccfg.snr_db = 30.0;
  ccfg.timing_pad = 200;
  ccfg.tail_pad = 80;
  ccfg.seed = 98;
  channel::MimoChannel chan(ccfg);
  return chan.transmit(chains);
}

// Alternating 1- and 2-stream frames through one warm workspace: the
// per-stream buffers and channel-estimate rows of a 2-stream frame must
// survive the 1-stream frame between them, or every stream-count change
// allocates again.
TEST(AllocFree, AlternatingStreamCountsSteadyState) {
  constexpr std::array<unsigned, 2> kMcs{7, 15};
  core::PhyConfig phy;
  const core::Receiver rx(phy, 2);
  std::array<std::vector<std::vector<dsp::cf32>>, 2> captures;
  std::array<std::vector<std::span<const dsp::cf32>>, 2> spans;
  for (std::size_t i = 0; i < 2; ++i) {
    captures[i] = make_mixed_capture(std::span<const unsigned>(kMcs).subspan(i, 1), 1);
    spans[i].assign(captures[i].begin(), captures[i].end());
  }

  core::RxWorkspace ws;
  for (const auto& s : spans) {
    ASSERT_TRUE(rx.receive(s, ws));
    ASSERT_TRUE(ws.packet.fcs_ok);
  }
  {
    const AllocGuard guard;
    for (int i = 0; i < 4; ++i) {
      for (const auto& s : spans) ASSERT_TRUE(rx.receive(s, ws));
    }
    EXPECT_EQ(AllocGuard::count(), 0U)
        << "Receiver::receive allocated on a stream-count change";
  }

  const auto capture = make_mixed_capture(kMcs, 4);
  const std::vector<std::span<const dsp::cf32>> cap(capture.begin(), capture.end());
  const core::StreamReceiver srx(phy, 2);
  core::StreamStats warm;
  const auto on_event = [](const core::StreamEvent&) {};
  srx.scan(cap, ws, warm, on_event);
  ASSERT_EQ(warm.delivered, 4U);
  {
    const AllocGuard guard;
    core::StreamStats stats;
    for (int i = 0; i < 4; ++i) srx.scan(cap, ws, stats, on_event);
    EXPECT_EQ(AllocGuard::count(), 0U)
        << "StreamReceiver::scan allocated on a stream-count change";
    EXPECT_EQ(stats.delivered, 16U);
  }
}

// The two-pass decimated scan must keep the allocation-free steady state:
// its coarse/full-rate chunk scratch lives in the workspace's DetectScratch
// and is re-sized (capacity kept) per chunk, never re-allocated once warm.
TEST(AllocFree, TwoPassScanSteadyState) {
  core::PhyConfig phy;
  const core::Transmitter tx(phy);
  const auto capture = make_capture(tx, 1, 1);
  const auto scfg = core::StreamReceiverConfig::make().scan_decimation(8).build();
  const core::StreamReceiver srx(phy, 1, scfg);
  const std::vector<std::span<const dsp::cf32>> spans(capture.begin(),
                                                      capture.end());
  core::RxWorkspace ws;
  core::StreamStats warm;
  const auto on_event = [](const core::StreamEvent&) {};
  for (int i = 0; i < 2; ++i) srx.scan(spans, ws, warm, on_event);
  ASSERT_EQ(warm.delivered, 2U);

  {
    const AllocGuard guard;
    core::StreamStats stats;
    for (int i = 0; i < 4; ++i) srx.scan(spans, ws, stats, on_event);
    EXPECT_EQ(AllocGuard::count(), 0U)
        << "steady-state two-pass StreamReceiver::scan allocated";
    EXPECT_EQ(stats.delivered, 4U);
  }
}

/// Warm every worker of `farm` on one capture: a run() with one job per
/// worker on distinct streams whose event callback waits until every worker
/// has decoded its frame. A worker blocked in its callback cannot steal, so
/// each one decodes the frame once, whatever the scheduler does.
void warm_every_worker(core::ReceiverFarm& farm,
                       std::span<const std::span<const dsp::cf32>> capture) {
  const std::size_t n = farm.num_workers();
  std::vector<core::StreamJob> jobs;
  for (std::size_t w = 0; w < n; ++w) jobs.push_back({w, capture});
  std::vector<core::StreamStats> per_stream(n);
  std::latch decoded(static_cast<std::ptrdiff_t>(n));
  farm.run(jobs, per_stream, [&decoded](std::size_t, const core::StreamEvent&) {
    decoded.arrive_and_wait();
  });
  for (const auto& st : per_stream) ASSERT_EQ(st.delivered, 1U);
}

// The farm's contract: after the pool's workspaces, deques and record
// buffers are warm, a sharded scan and a base-station run over the same
// shapes perform zero heap allocations across every thread (the hook is
// global, so worker-thread allocations count too).
TEST(AllocFree, FarmSteadyStateShardedScan) {
  core::PhyConfig phy;
  const core::Transmitter tx(phy);
  const auto capture = make_capture(tx, 1, 1);
  const auto cfg = core::ReceiveSessionConfig::make()
                       .workers(2)
                       .shards(3)
                       .seam(capture[0].size())
                       .build();
  core::ReceiverFarm farm(phy, 1, cfg);
  const std::vector<std::span<const dsp::cf32>> spans(capture.begin(),
                                                      capture.end());

  core::StreamStats warm;
  std::size_t events = 0;
  const auto on_event = [&events](const core::StreamEvent&) { ++events; };
  // Warm every worker's workspace, then two warm-up scans: the first sizes
  // the shard buffers, the second confirms the shapes are stable before
  // arming the hook.
  warm_every_worker(farm, spans);
  for (int i = 0; i < 2; ++i) farm.scan(spans, warm, on_event);
  ASSERT_EQ(warm.delivered, 2U);
  ASSERT_EQ(events, 2U);

  {
    const AllocGuard guard;
    core::StreamStats stats;
    for (int i = 0; i < 4; ++i) farm.scan(spans, stats, on_event);
    EXPECT_EQ(AllocGuard::count(), 0U)
        << "steady-state ReceiverFarm::scan allocated";
    EXPECT_EQ(stats.delivered, 4U);
  }
}

TEST(AllocFree, FarmSteadyStateBaseStationRun) {
  core::PhyConfig phy;
  const core::Transmitter tx(phy);
  const auto capture = make_capture(tx, 1, 1);
  core::ReceiverFarm farm(phy, 1,
                          core::ReceiveSessionConfig::make().workers(2));
  const std::vector<std::span<const dsp::cf32>> spans(capture.begin(),
                                                      capture.end());
  const core::StreamJob jobs[] = {
      {0, std::span<const std::span<const dsp::cf32>>(spans)},
      {1, std::span<const std::span<const dsp::cf32>>(spans)},
      {0, std::span<const std::span<const dsp::cf32>>(spans)},
  };
  warm_every_worker(farm, spans);
  std::vector<core::StreamStats> per_stream(2);
  for (int i = 0; i < 2; ++i) farm.run(jobs, per_stream);
  ASSERT_EQ(per_stream[1].delivered, 2U);

  {
    const AllocGuard guard;
    for (int i = 0; i < 4; ++i) farm.run(jobs, per_stream);
    EXPECT_EQ(AllocGuard::count(), 0U)
        << "steady-state ReceiverFarm::run allocated";
  }
  EXPECT_EQ(per_stream[1].delivered, 6U);
}

// The MU downlink mixer shares the single-user contract: once the per-user
// PPDU scratch and the mixed chains are sized, a warm transmit_mu_into with
// a same-shape precoder performs zero heap allocations.
TEST(AllocFree, MuDownlinkTransmitSteadyState) {
  core::PhyConfig phy;
  phy.mcs = 3;
  const core::Transmitter tx(phy);
  const std::array<std::array<dsp::cf32, 4>, 2> rows = {{
      {{{1.0F, 0.2F}, {0.3F, -0.4F}, {}, {}}},
      {{{-0.2F, 0.6F}, {0.9F, 0.1F}, {}, {}}},
  }};
  const auto w = eq::Precoder::zero_forcing_rows(rows, 2);
  const std::vector<std::uint8_t> psdu_a(300, 0xA5);
  const std::vector<std::uint8_t> psdu_b(300, 0x3C);
  const std::array<std::span<const std::uint8_t>, 2> psdus = {
      std::span<const std::uint8_t>(psdu_a),
      std::span<const std::uint8_t>(psdu_b)};
  core::MuTxWorkspace ws;
  tx.transmit_mu_into(psdus, w, ws);
  ASSERT_EQ(ws.chains.size(), 2U);
  const auto reference = ws.chains;

  {
    const AllocGuard guard;
    for (int i = 0; i < 4; ++i) tx.transmit_mu_into(psdus, w, ws);
    EXPECT_EQ(AllocGuard::count(), 0U)
        << "steady-state Transmitter::transmit_mu_into allocated";
  }
  EXPECT_EQ(ws.chains, reference);
}

// Uplink MU: both halves of the virtual-stream path must be warm-clean —
// the per-user virtual transmit and the base station's joint detector.
TEST(AllocFree, MuUplinkReceiveSteadyState) {
  constexpr std::size_t kUsers = 2;
  core::PhyConfig phy;
  const core::Transmitter tx(phy);
  const auto psdu =
      wifi::build_psdu(wifi::MacHeader{}, std::vector<std::uint8_t>(200, 0x5A));

  std::array<core::TxWorkspace, kUsers> utws;
  for (std::size_t u = 0; u < kUsers; ++u) {
    tx.transmit_virtual_into(psdu, u, kUsers, utws[u]);
  }
  {
    const AllocGuard guard;
    for (int i = 0; i < 4; ++i) {
      for (std::size_t u = 0; u < kUsers; ++u) {
        tx.transmit_virtual_into(psdu, u, kUsers, utws[u]);
      }
    }
    EXPECT_EQ(AllocGuard::count(), 0U)
        << "steady-state Transmitter::transmit_virtual_into allocated";
  }

  channel::MuChannelConfig mcfg;
  mcfg.n_users = kUsers;
  mcfg.direction = channel::MuDirection::kUplink;
  mcfg.user.fading = true;
  mcfg.user.snr_db = 35.0;
  mcfg.user.timing_pad = 200;
  mcfg.user.tail_pad = 80;
  mcfg.user.seed = 77;
  channel::MultiUserChannel chan(mcfg);
  std::vector<std::vector<std::vector<dsp::cf32>>> per_user(kUsers);
  for (std::size_t u = 0; u < kUsers; ++u) {
    per_user[u].push_back(utws[u].chains[0]);
  }
  const auto capture = chan.transmit_uplink(per_user);
  const std::vector<std::span<const dsp::cf32>> spans(capture.begin(),
                                                      capture.end());
  const std::span<const std::span<const dsp::cf32>> cap(spans);

  const core::MuUplinkReceiver murx(phy, kUsers, kUsers);
  core::MuRxWorkspace mws;
  ASSERT_TRUE(murx.receive(cap, psdu.size(), mws));
  ASSERT_TRUE(mws.packet.users[0].fcs_ok);
  ASSERT_TRUE(mws.packet.users[1].fcs_ok);

  {
    const AllocGuard guard;
    for (int i = 0; i < 4; ++i) {
      ASSERT_TRUE(murx.receive(cap, psdu.size(), mws));
    }
    EXPECT_EQ(AllocGuard::count(), 0U)
        << "steady-state MuUplinkReceiver::receive allocated";
  }
  EXPECT_EQ(mws.packet.users[0].psdu, psdu);
  EXPECT_EQ(mws.packet.users[1].psdu, psdu);
}

// HarqBuffer must be allocation-free once its slots are warm: store() keeps
// each slot's LLR capacity across overwrite, LRU eviction and release, so a
// retransmission-heavy link never allocates per frame.
TEST(AllocFree, HarqBufferSteadyState) {
  core::HarqBuffer buf(4);
  std::vector<float> llrs(2048, 0.5F);
  // Warm-up: size every slot's vector once.
  for (std::uint16_t seq = 0; seq < 8; ++seq) buf.store(seq, llrs);

  {
    const AllocGuard guard;
    for (std::uint16_t round = 0; round < 8; ++round) {
      for (std::uint16_t seq = 0; seq < 8; ++seq) {
        buf.store(seq, llrs);             // overwrite + LRU eviction churn
        ASSERT_NE(buf.find(seq), nullptr);
      }
      buf.release(static_cast<std::uint16_t>(round % 8));
    }
    EXPECT_EQ(AllocGuard::count(), 0U) << "steady-state HarqBuffer allocated";
  }
}

// The HARQ combining decode mode must keep receive()'s allocation-free
// steady state: summing a prior into ws.merged and exporting the combined
// stream reuse warm capacity (the combining path pins the accumulate
// pipeline, so the warm-up pass below sizes exactly the buffers the
// steady-state passes touch).
TEST(AllocFree, HarqCombiningReceiveSteadyState) {
  core::PhyConfig phy;
  phy.mcs = 7;
  const core::Transmitter tx(phy);
  const core::Receiver rx(phy, 1);
  const auto capture = make_capture(tx, 1, 1);
  const std::vector<std::span<const dsp::cf32>> spans(capture.begin(),
                                                      capture.end());
  const std::span<const std::span<const dsp::cf32>> cap(spans);

  core::RxWorkspace ws;
  core::HarqDecode warmup;
  warmup.combined = &ws.harq_combined;
  ASSERT_TRUE(rx.receive(cap, ws, warmup));
  ASSERT_TRUE(ws.packet.fcs_ok);
  const auto reference = ws.packet.psdu;
  std::vector<float> prior = ws.harq_combined;
  ASSERT_FALSE(prior.empty());
  ws.harq.store(1, prior);  // warm one retention slot too

  {
    const AllocGuard guard;
    for (int i = 0; i < 4; ++i) {
      core::HarqDecode harq;
      harq.prior = *ws.harq.find(1);
      harq.combined = &ws.harq_combined;
      ASSERT_TRUE(rx.receive(cap, ws, harq));
      ws.harq.store(1, ws.harq_combined);
    }
    EXPECT_EQ(AllocGuard::count(), 0U)
        << "steady-state HARQ-combining receive allocated";
  }
  EXPECT_EQ(ws.packet.psdu, reference);
}

// The Monte-Carlo engine's per-packet contract: with no observer, once each
// worker's transmitter, channel and receiver workspaces are warm, a packet
// allocates nothing — payload, PSDU, channel draws, convolution, noise,
// receive, accounting and the hand-off to the folding caller. Packets are
// dealt to workers by index, so run(2N) repeats run(N)'s first N packets
// on the same workers and may differ from it only by what the last N
// allocate. A first run fills the process-wide caches (FFT plans, tables).
// Checked inline and with the worker pool.
TEST(AllocFree, LinkSimulatorRunSteadyState) {
  const core::LinkConfig cfg = core::LinkConfig::make()
                                   .mcs(12)
                                   .snr_db(22.0)
                                   .fading(true, channel::DelayProfile::kTypical)
                                   .doppler_norm(2e-7)
                                   .cfo_norm(1e-3)
                                   .seed(0xC0FFEE)
                                   .build();
  for (const std::size_t threads : {1UL, 3UL}) {
    const std::size_t n = 4 * threads;
    core::LinkSimulator sim(cfg);
    const auto count_run = [&](std::size_t packets) {
      const AllocGuard guard;
      const auto res = sim.run(core::RunOptions::make()
                                   .n_packets(packets)
                                   .n_threads(threads)
                                   .build());
      EXPECT_EQ(res.per.packets(), packets);
      return AllocGuard::count();
    };
    (void)count_run(n);
    const std::size_t once = count_run(n);
    const std::size_t twice = count_run(2 * n);
    EXPECT_EQ(twice, once) << "threads=" << threads << ": the second " << n
                           << " packets allocated " << (twice - once) << " times";
  }
}

}  // namespace
