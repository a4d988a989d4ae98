// Golden digests for the Monte-Carlo channel and the link engine.
//
// MimoChannel::transmit is hashed bit for bit (every capture sample, the
// packet start, the noise variance and the realization's taps) over every
// delay profile, Doppler off / slow / fast, 1-4 antennas including ntx !=
// nrx, CFO on and off, and three reseeds per configuration; then the
// identity channel, the front-end knobs (SFO, ADC, clipping, erasure, a
// fault campaign) and the sounding hooks the MU downlink ages CSI with.
// LinkSimulator::run is pinned by its counters and estimator statistics on
// the 2x2 MCS 12 TGn-D reference link at 1 and 3 threads, and
// MuLinkSimulator::run by the same figures per user on a 2- and 3-user
// downlink and a 2- and 4-user uplink.
//
// The constants pin outputs, not implementation: a faster convolution, a
// different random-number engine or a workspace transmit path must leave
// every one of them untouched. -ffast-math (the MIMONET_NATIVE perf build)
// may reassociate floating point, so the digests are skipped there.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <vector>

#include "channel/mimo_channel.hpp"
#include "core/link_simulator.hpp"
#include "core/mu_link_simulator.hpp"
#include "dsp/rng.hpp"
#include "packet_digest.hpp"

namespace {

using namespace mimonet;
using channel::DelayProfile;
using dsp::cf32;
using testutil::Digest;
using testutil::hex;

/// Unit-power-ish TX streams from splitmix64 alone, so the input never
/// depends on the generators under test.
std::vector<std::vector<cf32>> tx_streams(std::size_t ntx, std::size_t len,
                                          std::uint64_t seed) {
  std::vector<std::vector<cf32>> out(ntx, std::vector<cf32>(len));
  std::uint64_t s = seed;
  const auto uniform = [&s] {
    s = dsp::splitmix64(s);
    return static_cast<float>(static_cast<double>(s >> 11U) * 0x1.0p-53 * 2.0 - 1.0);
  };
  for (auto& stream : out) {
    for (auto& v : stream) v = cf32(uniform(), uniform());
  }
  return out;
}

void hash_transmit(Digest& d, channel::MimoChannel& chan,
                   const std::vector<std::vector<cf32>>& tx) {
  const auto rx = chan.transmit(tx);
  d.pod(rx.size());
  for (const auto& a : rx) d.vec(a);
  const auto& truth = chan.truth();
  d.pod(truth.packet_start);
  d.pod(truth.noise_variance);
  d.pod(truth.cfo_norm);
  for (const auto& row : truth.realization.taps) {
    for (const auto& taps : row) d.vec(taps);
  }
}

struct Antennas {
  std::size_t ntx;
  std::size_t nrx;
};
constexpr std::array<Antennas, 5> kAntennas{{{1, 1}, {1, 2}, {2, 2}, {2, 3}, {4, 4}}};
constexpr std::array<DelayProfile, 4> kProfiles{
    DelayProfile::kFlat, DelayProfile::kShort, DelayProfile::kTypical,
    DelayProfile::kLong};
constexpr std::array<double, 3> kDopplers{0.0, 2e-7, 1e-4};

/// One digest per (profile, Doppler): antennas x CFO {0, 1e-3} x 3 reseeds.
/// Stream lengths are not multiples of the 80-sample Doppler block.
std::uint64_t fading_digest(DelayProfile profile, double doppler) {
  Digest d;
  std::uint64_t case_seed = 11;
  for (const auto& ant : kAntennas) {
    for (const double cfo : {0.0, 1e-3}) {
      channel::ChannelConfig cfg;
      cfg.ntx = ant.ntx;
      cfg.nrx = ant.nrx;
      cfg.fading = true;
      cfg.profile = profile;
      cfg.doppler_norm = doppler;
      cfg.cfo_norm = cfo;
      cfg.snr_db = 18.0;
      cfg.timing_pad = 37;
      cfg.tail_pad = 23;
      cfg.seed = ++case_seed;
      channel::MimoChannel chan(cfg);
      const auto tx = tx_streams(ant.ntx, 500 + 61 * (case_seed % 7), case_seed);
      for (const std::uint64_t reseed : {0ULL, 5ULL, 0x5EEDULL}) {
        if (reseed != 0) chan.reseed(reseed + case_seed);
        hash_transmit(d, chan, tx);
      }
    }
  }
  return d.value();
}

// One row per profile (kFlat .. kLong), one column per Doppler.
constexpr std::array<std::array<std::uint64_t, 3>, 4> kFadingDigests{{
    {0x58781c57a3ab957eULL, 0x0e8c324073b60f9bULL, 0xa0bb2d84bf924111ULL},
    {0x281bbdc9819eeb3dULL, 0xb93c4acd1f52042bULL, 0x009cc526b6e17f4fULL},
    {0x48d624cb30dd56aeULL, 0xe1e3ffbbfadda0a9ULL, 0x7ba46aa0c1f3ab0cULL},
    {0xaf7d2d8b8f2fce5aULL, 0xa7e9b95e0a62b9bdULL, 0x0331887a0c6f68c8ULL},
}};
constexpr std::uint64_t kIdentityDigest = 0x2dd720b433ce5577ULL;
constexpr std::uint64_t kFrontEndDigest = 0x938df4e62ba6502fULL;
constexpr std::uint64_t kSoundingDigest = 0x35ced6ba8ea9f135ULL;

TEST(ChannelGolden, FadingTransmitIsPinned) {
#ifdef __FAST_MATH__
  GTEST_SKIP() << "-ffast-math may change floating-point bits";
#endif
  for (std::size_t p = 0; p < kProfiles.size(); ++p) {
    for (std::size_t k = 0; k < kDopplers.size(); ++k) {
      EXPECT_EQ(hex(fading_digest(kProfiles[p], kDopplers[k])),
                hex(kFadingDigests[p][k]))
          << "profile " << p << " doppler " << kDopplers[k];
    }
  }
}

TEST(ChannelGolden, IdentityTransmitIsPinned) {
#ifdef __FAST_MATH__
  GTEST_SKIP() << "-ffast-math may change floating-point bits";
#endif
  Digest d;
  for (const std::size_t n : {1UL, 2UL, 4UL}) {
    for (const double cfo : {0.0, -2e-3}) {
      channel::ChannelConfig cfg;
      cfg.ntx = n;
      cfg.nrx = n;
      cfg.cfo_norm = cfo;
      cfg.snr_db = 7.0;
      cfg.timing_pad = 400;
      cfg.tail_pad = 100;
      cfg.seed = 3 + n;
      channel::MimoChannel chan(cfg);
      const auto tx = tx_streams(n, 777, 99 + n);
      hash_transmit(d, chan, tx);
      hash_transmit(d, chan, tx);  // the noise stream continues
      chan.reseed(17);
      hash_transmit(d, chan, tx);
    }
  }
  EXPECT_EQ(hex(d.value()), hex(kIdentityDigest));
}

TEST(ChannelGolden, FrontEndImpairmentsArePinned) {
#ifdef __FAST_MATH__
  GTEST_SKIP() << "-ffast-math may change floating-point bits";
#endif
  Digest d;
  for (const double sfo : {0.0, 40.0, -25.0}) {
    channel::ChannelConfig cfg;
    cfg.ntx = 2;
    cfg.nrx = 2;
    cfg.fading = true;
    cfg.profile = DelayProfile::kTypical;
    cfg.doppler_norm = 2e-5;
    cfg.cfo_norm = 5e-4;
    cfg.sfo_ppm = sfo;
    cfg.snr_db = 25.0;
    cfg.timing_pad = 120;
    cfg.tail_pad = 40;
    cfg.adc_bits = 8;
    cfg.adc_full_scale = 3.0F;
    cfg.power_scale = 0.8;
    cfg.clip_level = 1.5F;
    cfg.erasure_start = 300;
    cfg.erasure_len = 20;
    cfg.faults.tone_burst(500, 60, 0.5, 0.05)
        .noise_burst(700, 90, 0.2)
        .gain_step(900, 50, 0.5)
        .sample_drop(1100, 3)
        .sample_insert(1300, 2)
        .phase_jump(1400, 0.7)
        .erasure(1500, 10);
    cfg.seed = 23;
    channel::MimoChannel chan(cfg);
    const auto tx = tx_streams(2, 1900, 5);
    hash_transmit(d, chan, tx);
    chan.reseed(29);
    hash_transmit(d, chan, tx);
  }
  EXPECT_EQ(hex(d.value()), hex(kFrontEndDigest));
}

TEST(ChannelGolden, SoundingHooksArePinned) {
#ifdef __FAST_MATH__
  GTEST_SKIP() << "-ffast-math may change floating-point bits";
#endif
  // The MU downlink's CSI lifecycle: draw and pin a realization, age it,
  // pin the aged one, transmit, then go back to per-packet draws.
  Digest d;
  channel::ChannelConfig cfg;
  cfg.ntx = 4;
  cfg.nrx = 2;
  cfg.fading = true;
  cfg.profile = DelayProfile::kShort;
  cfg.doppler_norm = 5e-5;
  cfg.rho_tx = 0.4;
  cfg.rho_rx = 0.2;
  cfg.snr_db = 20.0;
  cfg.timing_pad = 60;
  cfg.seed = 41;
  channel::MimoChannel chan(cfg);
  const auto tx = tx_streams(4, 640, 8);
  const auto sounded = chan.draw_realization();
  const auto aged = chan.aged_realization(sounded, 6);
  for (const auto& row : aged.taps) {
    for (const auto& taps : row) d.vec(taps);
  }
  chan.fix_realization(aged);
  hash_transmit(d, chan, tx);
  chan.unfix_realization();
  hash_transmit(d, chan, tx);
  hash_transmit(d, chan, tx);
  EXPECT_EQ(hex(d.value()), hex(kSoundingDigest));
}

/// The Monte-Carlo reference link: 2x2 MCS 12, TGn-D fading with slow
/// Doppler and CFO, at a waterfall SNR where about a third of the packets
/// fail.
core::LinkConfig reference_link() {
  return core::LinkConfig::make()
      .mcs(12)
      .snr_db(22.0)
      .fading(true, DelayProfile::kTypical)
      .doppler_norm(2e-7)
      .cfo_norm(1e-3)
      .seed(0xC0FFEE)
      .build();
}

void hash_stats(Digest& d, const dsp::RunningStats& s) {
  d.pod(s.count());
  d.pod(s.mean());
  d.pod(s.variance());
  d.pod(s.min());
  d.pod(s.max());
}

constexpr std::size_t kLinkPackets = 24;
constexpr std::size_t kLinkFailures = 12;
constexpr std::size_t kLinkBitErrors = 1710;
constexpr std::size_t kLinkUndetected = 0;
constexpr std::uint64_t kLinkDigest = 0x0417514bf7be5a5cULL;

TEST(LinkGolden, ReferenceLinkCountersArePinned) {
#ifdef __FAST_MATH__
  GTEST_SKIP() << "-ffast-math may change floating-point bits";
#endif
  for (const std::size_t threads : {1UL, 3UL}) {
    core::LinkSimulator sim(reference_link());
    const auto res = sim.run(core::RunOptions::make()
                                 .n_packets(kLinkPackets)
                                 .n_threads(threads)
                                 .build());
    const auto label = "threads=" + std::to_string(threads);
    EXPECT_EQ(res.per.packets(), kLinkPackets) << label;
    EXPECT_EQ(res.per.failures(), kLinkFailures) << label;
    EXPECT_EQ(res.ber.errors(), kLinkBitErrors) << label;
    EXPECT_EQ(res.undetected, kLinkUndetected) << label;
    Digest d;
    d.pod(res.ber.bits());
    d.pod(res.ber.errors());
    d.pod(res.per.packets());
    d.pod(res.per.failures());
    d.pod(res.undetected);
    for (std::size_t e = 0; e < metrics::kRxErrorCount; ++e) {
      d.pod(res.rx_errors.count(static_cast<metrics::RxError>(e)));
    }
    d.pod(res.throughput.airtime_us());
    d.pod(res.throughput.goodput_mbps());
    hash_stats(d, res.snr_est_db);
    hash_stats(d, res.pilot_snr_db);
    hash_stats(d, res.timing_err);
    hash_stats(d, res.cfo_err);
    for (const auto& s : res.stream_sinr_db) hash_stats(d, s);
    EXPECT_EQ(hex(d.value()), hex(kLinkDigest)) << label;
  }
}

/// Per-user counters and estimator statistics of MuLinkSimulator::run:
/// a 2- and 3-user zero-forcing downlink (one with stale CSI) and a 2- and
/// 4-user uplink, each at a SNR where some packets fail.
constexpr std::uint64_t kMuLinkDigest = 0xbeeac81c0f6ec7c0ULL;

TEST(LinkGolden, MuLinkCountersArePinned) {
#ifdef __FAST_MATH__
  GTEST_SKIP() << "-ffast-math may change floating-point bits";
#endif
  struct MuCase {
    unsigned mcs;
    double snr_db;
    std::size_t n_users;
    channel::MuDirection direction;
    std::size_t csi_stale_symbols;
  };
  constexpr std::array<MuCase, 4> kCases{{
      {3, 22.0, 2, channel::MuDirection::kDownlink, 0},
      {1, 20.0, 3, channel::MuDirection::kDownlink, 6},
      {4, 23.0, 2, channel::MuDirection::kUplink, 0},
      {2, 21.0, 4, channel::MuDirection::kUplink, 0},
  }};
  Digest d;
  for (const MuCase& c : kCases) {
    auto cfg = core::make_mu_link_config(c.mcs, c.snr_db, c.n_users, c.direction,
                                         /*doppler_norm=*/2e-6);
    cfg.user.seed = 0xBEEF + c.n_users;
    cfg.user.psdu_payload_bytes = 180;
    cfg.csi_stale_symbols = c.csi_stale_symbols;
    const auto res =
        core::MuLinkSimulator(cfg).run({.n_packets = 12, .n_threads = 2});
    d.pod(res.per_user.size());
    for (const core::LinkResult& r : res.per_user) {
      d.pod(r.ber.bits());
      d.pod(r.ber.errors());
      d.pod(r.per.packets());
      d.pod(r.per.failures());
      d.pod(r.undetected);
      for (std::size_t e = 0; e < metrics::kRxErrorCount; ++e) {
        d.pod(r.rx_errors.count(static_cast<metrics::RxError>(e)));
      }
      d.pod(r.throughput.airtime_us());
      d.pod(r.throughput.goodput_mbps());
      hash_stats(d, r.snr_est_db);
      hash_stats(d, r.pilot_snr_db);
      hash_stats(d, r.timing_err);
      hash_stats(d, r.cfo_err);
      for (const auto& s : r.stream_sinr_db) hash_stats(d, s);
    }
  }
  EXPECT_EQ(hex(d.value()), hex(kMuLinkDigest));
}

}  // namespace
