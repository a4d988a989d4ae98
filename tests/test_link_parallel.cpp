// The parallel Monte-Carlo engine's core contract: LinkResult aggregates
// are bit-identical for any thread count, observers run on the calling
// thread in packet order, and early stopping is deterministic. Run this
// target under a -DMIMONET_TSAN=ON build to exercise the worker pool under
// ThreadSanitizer.
#include <gtest/gtest.h>

#include <stdexcept>
#include <thread>
#include <vector>

#include "core/link_simulator.hpp"

namespace {

using namespace mimonet;

core::LinkConfig test_config(std::uint64_t seed = 42) {
  auto cfg = core::LinkConfig::make()
                 .mcs(9)
                 .snr_db(14.0)
                 .fading(true)
                 .payload_bytes(200)
                 .seed(seed)
                 .build();
  return cfg;
}

void expect_stats_identical(const dsp::RunningStats& a, const dsp::RunningStats& b) {
  EXPECT_EQ(a.count(), b.count());
  EXPECT_EQ(a.mean(), b.mean());
  EXPECT_EQ(a.variance(), b.variance());
  EXPECT_EQ(a.min(), b.min());
  EXPECT_EQ(a.max(), b.max());
  EXPECT_EQ(a.rms(), b.rms());
}

void expect_results_identical(const core::LinkResult& a, const core::LinkResult& b) {
  EXPECT_EQ(a.ber.bits(), b.ber.bits());
  EXPECT_EQ(a.ber.errors(), b.ber.errors());
  EXPECT_EQ(a.per.packets(), b.per.packets());
  EXPECT_EQ(a.per.failures(), b.per.failures());
  EXPECT_EQ(a.undetected, b.undetected);
  EXPECT_EQ(a.throughput.goodput_mbps(), b.throughput.goodput_mbps());
  EXPECT_EQ(a.throughput.airtime_us(), b.throughput.airtime_us());
  expect_stats_identical(a.snr_est_db, b.snr_est_db);
  expect_stats_identical(a.pilot_snr_db, b.pilot_snr_db);
  expect_stats_identical(a.timing_err, b.timing_err);
  expect_stats_identical(a.cfo_err, b.cfo_err);
}

TEST(LinkParallel, ThreadCountDoesNotChangeResults) {
  constexpr std::size_t kPackets = 16;
  const auto base =
      core::LinkSimulator(test_config())
          .run(core::RunOptions{.n_packets = kPackets, .n_threads = 1});
  ASSERT_EQ(base.per.packets(), kPackets);
  for (const std::size_t n_threads : {2UL, 8UL}) {
    auto res = core::LinkSimulator(test_config())
                   .run(core::RunOptions{.n_packets = kPackets, .n_threads = n_threads});
    expect_results_identical(base, res);
  }
}

TEST(LinkParallel, ThreadCountInvarianceUnderImpairments) {
  // CFO + Doppler exercise every channel RNG stream (fading, noise, pad,
  // Doppler innovation); the per-packet reseed must cover all of them.
  auto make = [] {
    auto cfg = core::LinkConfig::make()
                   .mcs(8)
                   .snr_db(18.0)
                   .fading(true, channel::DelayProfile::kShort)
                   .cfo_norm(3e-4)
                   .doppler_norm(2e-5)
                   .payload_bytes(150)
                   .seed(7)
                   .build();
    return cfg;
  };
  const auto a = core::LinkSimulator(make()).run(
      core::RunOptions{.n_packets = 10, .n_threads = 1});
  const auto b = core::LinkSimulator(make()).run(
      core::RunOptions{.n_packets = 10, .n_threads = 3});
  expect_results_identical(a, b);
}

TEST(LinkParallel, ObserverSeesEveryPacketInOrderOnCallingThread) {
  constexpr std::size_t kPackets = 12;
  std::vector<std::size_t> indices;
  std::vector<std::thread::id> threads;
  core::LinkSimulator sim(test_config());
  (void)sim.run(core::RunOptions{.n_packets = kPackets, .n_threads = 4},
                [&](const core::PacketOutcome& o) {
                  indices.push_back(o.index);
                  threads.push_back(std::this_thread::get_id());
                });
  ASSERT_EQ(indices.size(), kPackets);
  for (std::size_t i = 0; i < kPackets; ++i) {
    EXPECT_EQ(indices[i], i);
    EXPECT_EQ(threads[i], std::this_thread::get_id());
  }
}

TEST(LinkParallel, EarlyStopIsDeterministicAcrossThreadCounts) {
  // Low SNR so failures arrive quickly; both runs must stop on the exact
  // same packet.
  auto make = [] {
    auto cfg = core::LinkConfig::make().mcs(3).snr_db(4.0).payload_bytes(300).seed(5);
    return cfg.build();
  };
  const core::RunOptions opt1{.n_packets = 64,
                              .n_threads = 1,
                              .max_packets = 64,
                              .target_per_events = 5};
  core::RunOptions opt4 = opt1;
  opt4.n_threads = 4;
  const auto a = core::LinkSimulator(make()).run(opt1);
  const auto b = core::LinkSimulator(make()).run(opt4);
  EXPECT_GE(a.per.failures(), 5U);
  EXPECT_LT(a.per.packets(), 64U);  // actually stopped early
  expect_results_identical(a, b);
}

TEST(LinkParallel, EarlyStopCapsAtMaxPackets) {
  // Clean link: the target is never reached, so the run caps at max_packets.
  auto cfg = core::LinkConfig::make().mcs(0).snr_db(30.0).payload_bytes(100).seed(3).build();
  const auto res = core::LinkSimulator(cfg).run(core::RunOptions{
      .n_packets = 4, .n_threads = 2, .max_packets = 6, .target_per_events = 100});
  EXPECT_EQ(res.per.packets(), 6U);
  EXPECT_EQ(res.per.failures(), 0U);
}

TEST(LinkParallel, ObserverSeesDecodedPacketAndSentPsdu) {
  core::LinkSimulator sim(test_config());
  std::size_t seen = 0;
  std::size_t detected = 0;
  const auto res = sim.run(core::RunOptions{.n_packets = 4},
                           [&](const core::PacketOutcome& o) {
                             ++seen;
                             EXPECT_FALSE(o.sent_psdu.empty());
                             if (!o.detected) return;
                             ++detected;
                             if (o.rx.fcs_ok) {
                               EXPECT_EQ(o.rx.psdu, o.sent_psdu);
                             }
                           });
  EXPECT_EQ(seen, 4U);
  EXPECT_EQ(detected + res.undetected, 4U);
}

// ---- Failure paths: the executor stops and joins every worker, then
// rethrows the first exception, whether a worker or the caller threw.

TEST(LinkParallel, WorkerExceptionIsRethrownOnCaller) {
  auto cfg = test_config();
  cfg.channel.sfo_ppm = -2e6;  // apply_sfo rejects it on every transmit
  for (const std::size_t n_threads : {1UL, 4UL}) {
    SCOPED_TRACE(n_threads);
    core::LinkSimulator sim(cfg);
    EXPECT_THROW((void)sim.run(core::RunOptions{.n_packets = 8, .n_threads = n_threads}),
                 std::invalid_argument);
  }
}

TEST(LinkParallel, ObserverExceptionIsRethrownAndSimulatorStaysUsable) {
  struct ObserverFailure {};
  for (const std::size_t n_threads : {1UL, 4UL}) {
    SCOPED_TRACE(n_threads);
    core::LinkSimulator sim(test_config());
    std::vector<std::size_t> seen;
    const auto throw_at_five = [&](const core::PacketOutcome& o) {
      seen.push_back(o.index);
      if (o.index == 5) throw ObserverFailure{};
    };
    EXPECT_THROW((void)sim.run(core::RunOptions{.n_packets = 16, .n_threads = n_threads},
                               throw_at_five),
                 ObserverFailure);
    EXPECT_EQ(seen, (std::vector<std::size_t>{0, 1, 2, 3, 4, 5}));
    const auto res =
        sim.run(core::RunOptions{.n_packets = 8, .n_threads = n_threads});
    EXPECT_EQ(res.per.packets(), 8U);
  }
}

TEST(LinkParallel, LinkResultMergeEqualsOneBigRun) {
  // Two disjoint halves simulated separately merge into exactly the
  // aggregate counters of... not the same packets (different indices), so
  // instead check merge()'s arithmetic: counters sum, stats combine.
  auto cfg = test_config(11);
  auto a = core::LinkSimulator(cfg).run(6);
  const auto b = core::LinkSimulator(cfg).run(9);
  const std::size_t packets = a.per.packets() + b.per.packets();
  const std::size_t bits = a.ber.bits() + b.ber.bits();
  const std::size_t snr_n = a.snr_est_db.count() + b.snr_est_db.count();
  const double air = a.throughput.airtime_us() + b.throughput.airtime_us();
  a.merge(b);
  EXPECT_EQ(a.per.packets(), packets);
  EXPECT_EQ(a.ber.bits(), bits);
  EXPECT_EQ(a.snr_est_db.count(), snr_n);
  EXPECT_DOUBLE_EQ(a.throughput.airtime_us(), air);
}

TEST(LinkParallel, SummaryRowMatchesHeaders) {
  const auto res = core::LinkSimulator(test_config()).run(3);
  EXPECT_EQ(res.summary_row().size(), core::LinkResult::summary_headers().size());
}

TEST(LinkParallel, BuilderAssemblesEquivalentConfig) {
  const core::LinkConfig built = core::LinkConfig::make()
                                     .mcs(11)
                                     .snr_db(12.0)
                                     .nrx(3)
                                     .fading(true)
                                     .payload_bytes(400)
                                     .seed(99)
                                     .equalizer(eq::EqualizerType::kZeroForcing);
  auto manual = core::make_link_config(11, 12.0, 3);
  manual.channel.fading = true;
  manual.psdu_payload_bytes = 400;
  manual.seed = 99;
  manual.phy.equalizer = eq::EqualizerType::kZeroForcing;
  EXPECT_EQ(built.phy.mcs, manual.phy.mcs);
  EXPECT_EQ(built.channel.ntx, manual.channel.ntx);
  EXPECT_EQ(built.channel.nrx, manual.channel.nrx);
  EXPECT_EQ(built.channel.snr_db, manual.channel.snr_db);
  EXPECT_EQ(built.channel.fading, manual.channel.fading);
  EXPECT_EQ(built.psdu_payload_bytes, manual.psdu_payload_bytes);
  EXPECT_EQ(built.seed, manual.seed);
  EXPECT_EQ(built.phy.equalizer, manual.phy.equalizer);
  // And the two produce bit-identical simulations.
  expect_results_identical(core::LinkSimulator(built).run(5),
                           core::LinkSimulator(manual).run(5));
}

TEST(LinkParallel, ZeroPacketsIsEmptyResult) {
  const auto res = core::LinkSimulator(test_config())
                       .run(core::RunOptions{.n_packets = 0, .n_threads = 4});
  EXPECT_EQ(res.per.packets(), 0U);
  EXPECT_EQ(res.ber.bits(), 0U);
}

// Regression (ISSUE 2): an empty LinkResult's bench-table row must render
// defined values everywhere — no "nan"/"inf" cells from zero denominators.
TEST(LinkParallel, EmptyResultSummaryRowHasNoNanCells) {
  const core::LinkResult empty;
  for (const auto& cell : empty.summary_row()) {
    EXPECT_EQ(cell.find("nan"), std::string::npos) << cell;
    EXPECT_EQ(cell.find("inf"), std::string::npos) << cell;
  }
}

}  // namespace
