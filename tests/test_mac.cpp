// The ARQ MAC over the full PHY. Stop-and-wait (selective repeat with a
// window of one): delivery, retransmission, de-duplication, give-up and
// backoff behaviour. Then the window link: in-order release, sequence
// wraparound, MCS fallback, HARQ, and the rate adaptor on its own.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstring>
#include <numeric>
#include <vector>

#include "mac/arq.hpp"

namespace {

using namespace mimonet;

mac::ArqConfig link_config(double fwd_snr, double rev_snr, std::uint64_t seed) {
  mac::ArqConfig cfg;
  cfg.data_phy.mcs = 3;
  cfg.ack_phy.mcs = 0;
  cfg.forward.snr_db = fwd_snr;
  cfg.forward.timing_pad = 300;
  cfg.forward.tail_pad = 80;
  cfg.forward.seed = seed;
  cfg.reverse = cfg.forward;
  cfg.reverse.snr_db = rev_snr;
  cfg.reverse.seed = seed + 1;
  cfg.seed = seed;
  return cfg;
}

std::vector<std::uint8_t> payload_of(std::size_t n, std::uint8_t fill) {
  return std::vector<std::uint8_t>(n, fill);
}

mac::SrConfig sr_config(double fwd_snr, double rev_snr, std::uint64_t seed) {
  mac::SrConfig cfg;
  cfg.arq = link_config(fwd_snr, rev_snr, seed);
  return cfg;
}

/// Stop-and-wait: selective repeat with a window of one and no rate
/// adaptation.
mac::SrConfig stop_and_wait(const mac::ArqConfig& arq) {
  mac::SrConfig cfg;
  cfg.arq = arq;
  cfg.window = 1;
  cfg.adapt.fallback_after = 0;
  cfg.adapt.recover_after = 0;
  return cfg;
}

TEST(Arq, CleanLinkDeliversFirstTry) {
  mac::SelectiveRepeatLink link(stop_and_wait(link_config(30.0, 30.0, 1)));
  for (int i = 0; i < 5; ++i) {
    link.queue(payload_of(400, static_cast<std::uint8_t>(i)));
  }
  const auto& st = link.run();
  EXPECT_EQ(st.delivered, 5U);
  EXPECT_EQ(st.attempts_hist[1], 5U);  // every frame on its first try
  EXPECT_EQ(st.retransmissions, 0U);
  EXPECT_EQ(st.duplicates, 0U);
  ASSERT_EQ(link.received().size(), 5U);
  EXPECT_EQ(link.received()[3][0], 3);
}

TEST(Arq, AirtimeIncludesAckExchange) {
  mac::SelectiveRepeatLink link(stop_and_wait(link_config(30.0, 30.0, 2)));
  link.queue(payload_of(100, 0xAA));
  const auto& st = link.run();
  ASSERT_EQ(st.delivered, 1U);
  core::Transmitter data_tx(link.config().arq.data_phy);
  const double data_air =
      data_tx.layout(100 + wifi::kMacHeaderLen + wifi::kFcsLen).airtime_us();
  EXPECT_GT(st.airtime_us, data_air);  // data + ACK > data alone
}

TEST(Arq, NoisyForwardLinkRetransmits) {
  // Fading forward channel at marginal SNR: some frames need retries, but
  // with 7 retries almost everything gets through.
  auto cfg = link_config(8.0, 30.0, 3);
  cfg.forward.fading = true;
  mac::SelectiveRepeatLink link(stop_and_wait(cfg));
  for (int i = 0; i < 25; ++i) {
    link.queue(payload_of(300, static_cast<std::uint8_t>(i)));
  }
  const auto& st = link.run();
  EXPECT_GT(st.retransmissions, 0U);
  EXPECT_GE(st.delivered, 23U);
}

TEST(Arq, HopelessLinkGivesUpAfterMaxRetries) {
  auto cfg = link_config(-10.0, 30.0, 4);
  cfg.max_retries = 2;
  mac::SelectiveRepeatLink link(stop_and_wait(cfg));
  link.queue(payload_of(200, 0x55));
  const auto& st = link.run();
  EXPECT_EQ(st.delivered, 0U);
  EXPECT_EQ(st.lost, 1U);
  EXPECT_EQ(st.attempts_hist[3], 1U);  // 1 try + 2 retries
  EXPECT_NEAR(st.loss_rate(), 1.0, 1e-9);
}

TEST(Arq, LostAckCausesDuplicateThatIsSuppressed) {
  // Forward link clean, reverse link hopeless for the first exchanges:
  // the peer receives the data repeatedly but must log it once.
  auto cfg = link_config(30.0, -15.0, 5);
  cfg.max_retries = 3;
  mac::SelectiveRepeatLink link(stop_and_wait(cfg));
  link.queue(payload_of(100, 0x77));
  const auto& st = link.run();
  EXPECT_EQ(st.delivered, 0U);            // no ACK ever made it back
  EXPECT_GT(st.duplicates, 0U);           // but the peer saw retransmissions
  EXPECT_EQ(link.received().size(), 1U);  // logged exactly once
}

TEST(Arq, StatsGoodputIsPositiveOnWorkingLink) {
  mac::SelectiveRepeatLink link(stop_and_wait(link_config(25.0, 25.0, 6)));
  for (int i = 0; i < 3; ++i) link.queue(payload_of(1000, 1));
  const auto& st = link.run();
  EXPECT_GT(st.goodput_mbps(), 1.0);
  EXPECT_LT(st.goodput_mbps(),
            wifi::mcs_info(link.config().arq.data_phy.mcs).data_rate_mbps());
}

TEST(Arq, MismatchedAntennaConfigThrows) {
  auto cfg = link_config(20.0, 20.0, 7);
  cfg.data_phy.mcs = 9;  // 2 streams but forward channel is 1x1
  EXPECT_THROW(mac::SelectiveRepeatLink{stop_and_wait(cfg)}, std::invalid_argument);
}

TEST(Arq, MimoDataPlusSisoAckWorks) {
  auto cfg = link_config(28.0, 28.0, 8);
  cfg.data_phy.mcs = 10;
  cfg.forward.ntx = 2;
  cfg.forward.nrx = 2;
  mac::SelectiveRepeatLink link(stop_and_wait(cfg));
  link.queue(payload_of(500, 0x10));
  EXPECT_EQ(link.run().delivered, 1U);
}

TEST(ArqBackoff, DelayIsDeterministicGrowsAndCaps) {
  mac::BackoffConfig b;  // 50us initial, x2, 20ms cap, 10% jitter
  EXPECT_DOUBLE_EQ(mac::backoff_delay_us(b, 0, 42),
                   mac::backoff_delay_us(b, 0, 42));
  EXPECT_NE(mac::backoff_delay_us(b, 0, 42), mac::backoff_delay_us(b, 0, 43));
  double nominal = b.initial_timeout_us;
  for (unsigned retry = 0; retry < 5; ++retry) {
    const double d = mac::backoff_delay_us(b, retry, 7 + retry);
    EXPECT_GE(d, nominal * (1.0 - b.jitter_frac));
    EXPECT_LE(d, nominal * (1.0 + b.jitter_frac));
    nominal *= b.multiplier;
  }
  EXPECT_LE(mac::backoff_delay_us(b, 30, 9),
            b.max_backoff_us * (1.0 + b.jitter_frac));
}

TEST(ArqBackoff, FadeScaleLookup) {
  const std::vector<mac::FadeSegment> fades{{100.0, 200.0, 0.1},
                                            {150.0, 300.0, 0.5}};
  EXPECT_DOUBLE_EQ(mac::fade_scale_at(fades, 0.0, 1.0), 1.0);
  EXPECT_DOUBLE_EQ(mac::fade_scale_at(fades, 120.0, 1.0), 0.1);
  EXPECT_DOUBLE_EQ(mac::fade_scale_at(fades, 160.0, 1.0), 0.5);  // later wins
  EXPECT_DOUBLE_EQ(mac::fade_scale_at(fades, 250.0, 1.0), 0.5);
  EXPECT_DOUBLE_EQ(mac::fade_scale_at(fades, 300.0, 2.0), 2.0);  // end exclusive
}

TEST(ArqBackoff, OutlastsFadeThatKillsFixedIntervalRetries) {
  // A deep fade longer than the fixed-interval policy's entire retry window:
  // every fixed-interval transmission lands inside it, while exponential
  // backoff stretches the retry schedule past the fade and delivers.
  auto base = link_config(30.0, 30.0, 11);
  base.max_retries = 7;
  core::Transmitter probe(base.data_phy);
  const double air =
      probe.layout(100 + wifi::kMacHeaderLen + wifi::kFcsLen).airtime_us();
  const double fixed_window =
      8.0 * air + 7.0 * base.backoff.initial_timeout_us;
  const double fade_end = fixed_window * 1.3;
  // Exponential waits alone exceed 0.9 * 50us * (2^7 - 1) = 5715us, so the
  // fade must end well before that for the backoff link to recover.
  ASSERT_LT(fade_end, 4000.0);
  base.fades.push_back({0.0, fade_end, 0.01});  // -40 dB: nothing decodes

  auto fixed_cfg = base;
  fixed_cfg.backoff.enabled = false;
  mac::SelectiveRepeatLink fixed_link(stop_and_wait(fixed_cfg));
  fixed_link.queue(payload_of(100, 0xAB));
  const auto& fixed_st = fixed_link.run();
  EXPECT_EQ(fixed_st.lost, 1U);
  EXPECT_EQ(fixed_st.attempts_hist[8], 1U);  // 1 try + 7 retries
  EXPECT_LT(fixed_link.now_us(), fade_end);  // it never saw the fade end

  mac::SelectiveRepeatLink backoff_link(stop_and_wait(base));
  backoff_link.queue(payload_of(100, 0xAB));
  const auto& st = backoff_link.run();
  EXPECT_EQ(st.delivered, 1U);
  EXPECT_GT(st.retransmissions, 0U);
  EXPECT_GT(st.wait_us, 0.0);
  EXPECT_GT(backoff_link.now_us(), fade_end);
}

// ------------------------------------------------ stop-and-wait pins
//
// Outcomes of the dedicated stop-and-wait link, recorded before it was
// folded into SelectiveRepeatLink with window 1. Everything but the
// backoff waits must match (the two links keyed their jitter draws
// differently): delivery, retransmission and duplicate counts, the
// airtime bits, the per-frame attempts histogram and the payloads the
// peer released.

struct StopAndWaitPin {
  double snr_db;
  std::size_t delivered;
  std::size_t retransmissions;
  std::size_t duplicates;
  std::uint64_t airtime_bits;
  std::array<std::size_t, 9> attempts_hist;
  std::uint64_t received_hash;
};

std::uint64_t bits_of(double d) {
  std::uint64_t u = 0;
  std::memcpy(&u, &d, sizeof u);
  return u;
}

/// FNV-1a over the released payloads, each prefixed by its 64-bit length.
std::uint64_t received_hash(const std::vector<std::vector<std::uint8_t>>& rx) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto mix = [&h](std::uint8_t b) {
    h ^= b;
    h *= 0x100000001b3ULL;
  };
  for (const auto& p : rx) {
    const auto n = static_cast<std::uint64_t>(p.size());
    for (unsigned i = 0; i < 8; ++i) mix(static_cast<std::uint8_t>(n >> (8 * i)));
    for (const auto b : p) mix(b);
  }
  return h;
}

void expect_pin(mac::SelectiveRepeatLink& link,
                const std::vector<std::vector<std::uint8_t>>& msdus,
                const StopAndWaitPin& pin) {
  for (const auto& m : msdus) link.queue(m);
  const auto& st = link.run();
  EXPECT_EQ(st.delivered, pin.delivered);
  EXPECT_EQ(st.lost, msdus.size() - pin.delivered);
  EXPECT_EQ(st.retransmissions, pin.retransmissions);
  EXPECT_EQ(st.duplicates, pin.duplicates);
  EXPECT_EQ(bits_of(st.airtime_us), pin.airtime_bits);
  EXPECT_EQ(st.attempts_hist, pin.attempts_hist);
  EXPECT_EQ(received_hash(link.received()), pin.received_hash);
}

TEST(StopAndWaitPin, BenchE13PointsAreUnchanged) {
  // bench_e13_arq's link (MCS 11 2x2 fading data, MCS 0 ACKs, seed 130),
  // 6 of its 1000-byte MSDUs per SNR point.
  constexpr std::array<StopAndWaitPin, 7> kPins{{
      {6.0, 0, 42, 0, 0x40c2c00000000000ULL, {0, 0, 0, 0, 0, 0, 0, 0, 6},
       0xcbf29ce484222325ULL},
      {9.0, 1, 36, 0, 0x40c1000000000000ULL, {0, 0, 1, 0, 0, 0, 0, 0, 5},
       0x3c64e6b9b097eb45ULL},
      {12.0, 6, 12, 2, 0x40b0700000000000ULL, {0, 0, 2, 2, 2, 0, 0, 0, 0},
       0x9dba81036f507b95ULL},
      {15.0, 6, 7, 1, 0x40a8780000000000ULL, {0, 3, 1, 0, 2, 0, 0, 0, 0},
       0x9dba81036f507b95ULL},
      {18.0, 6, 1, 0, 0x409d000000000000ULL, {0, 5, 1, 0, 0, 0, 0, 0, 0},
       0x9dba81036f507b95ULL},
      {21.0, 6, 0, 0, 0x4099e00000000000ULL, {0, 6, 0, 0, 0, 0, 0, 0, 0},
       0x9dba81036f507b95ULL},
      {24.0, 6, 0, 0, 0x4099e00000000000ULL, {0, 6, 0, 0, 0, 0, 0, 0, 0},
       0x9dba81036f507b95ULL},
  }};
  const std::vector<std::vector<std::uint8_t>> msdus(6, payload_of(1000, 0x42));
  for (const auto& pin : kPins) {
    SCOPED_TRACE(pin.snr_db);
    mac::ArqConfig arq;
    arq.data_phy.mcs = 11;
    arq.ack_phy.mcs = 0;
    arq.forward.ntx = 2;
    arq.forward.nrx = 2;
    arq.forward.fading = true;
    arq.forward.snr_db = pin.snr_db;
    arq.forward.timing_pad = 300;
    arq.forward.tail_pad = 80;
    arq.forward.seed = 130;
    arq.reverse.snr_db = pin.snr_db;
    arq.reverse.fading = true;
    arq.reverse.timing_pad = 300;
    arq.reverse.tail_pad = 80;
    arq.reverse.seed = 131;
    arq.max_retries = 7;
    mac::SelectiveRepeatLink link(stop_and_wait(arq));
    expect_pin(link, msdus, pin);
  }
}

TEST(StopAndWaitPin, FileTransferExampleIsUnchanged) {
  // examples/file_transfer.cpp: a 40 kB file in 1400-byte chunks over MCS 12
  // 2x2 fading at 18 dB, ACKs on one stream with 2-antenna diversity.
  mac::ArqConfig arq;
  arq.data_phy.mcs = 12;
  arq.ack_phy.mcs = 0;
  arq.forward.ntx = 2;
  arq.forward.nrx = 2;
  arq.forward.fading = true;
  arq.forward.snr_db = 18.0;
  arq.forward.timing_pad = 300;
  arq.forward.tail_pad = 80;
  arq.forward.seed = 11;
  arq.reverse = arq.forward;
  arq.reverse.ntx = 1;
  arq.reverse.nrx = 2;
  arq.reverse.seed = 12;
  arq.reverse.snr_db = 25.0;

  std::vector<std::uint8_t> file(40 * 1024);
  std::iota(file.begin(), file.end(), 0);
  std::vector<std::vector<std::uint8_t>> chunks;
  for (std::size_t off = 0; off < file.size(); off += 1400) {
    const auto first = file.begin() + static_cast<std::ptrdiff_t>(off);
    chunks.emplace_back(first, first + static_cast<std::ptrdiff_t>(
                                           std::min<std::size_t>(1400, file.size() - off)));
  }
  mac::SelectiveRepeatLink link(stop_and_wait(arq));
  expect_pin(link, chunks,
             {18.0, 30, 23, 0, 0x40c74e0000000000ULL, {0, 17, 6, 5, 1, 1, 0, 0, 0},
              0xa7bcd05dba90c069ULL});
}

TEST(SelectiveRepeat, CleanLinkDeliversAllInOrder) {
  mac::SelectiveRepeatLink link(sr_config(30.0, 30.0, 21));
  for (int i = 0; i < 6; ++i) {
    link.queue(payload_of(200, static_cast<std::uint8_t>(i)));
  }
  const auto& stats = link.run();
  EXPECT_EQ(stats.delivered, 6U);
  EXPECT_EQ(stats.lost, 0U);
  EXPECT_EQ(stats.retransmissions, 0U);
  ASSERT_EQ(link.received().size(), 6U);
  for (int i = 0; i < 6; ++i) {
    EXPECT_EQ(link.received()[static_cast<std::size_t>(i)][0], i);
  }
  EXPECT_EQ(link.current_mcs(), link.config().arq.data_phy.mcs);
}

TEST(SelectiveRepeat, NoisyLinkRetransmitsButReleasesInOrder) {
  auto cfg = sr_config(8.0, 30.0, 22);
  cfg.arq.forward.fading = true;
  cfg.arq.max_retries = 10;
  cfg.adapt.fallback_after = 0;  // isolate the window/reorder logic
  mac::SelectiveRepeatLink link(cfg);
  for (int i = 0; i < 20; ++i) {
    link.queue(payload_of(300, static_cast<std::uint8_t>(i)));
  }
  const auto& stats = link.run();
  EXPECT_GT(stats.retransmissions, 0U);
  EXPECT_GE(stats.delivered, 18U);
  // Whatever was released came out in queue order.
  int prev = -1;
  for (const auto& p : link.received()) {
    EXPECT_GT(static_cast<int>(p[0]), prev);
    prev = p[0];
  }
}

TEST(SelectiveRepeat, LostAcksAreDeduplicatedAtPeer) {
  auto cfg = sr_config(30.0, -15.0, 23);  // ACK path hopeless
  cfg.arq.max_retries = 2;
  cfg.adapt.fallback_after = 0;
  mac::SelectiveRepeatLink link(cfg);
  link.queue(payload_of(100, 0x31));
  link.queue(payload_of(100, 0x32));
  const auto& stats = link.run();
  EXPECT_EQ(stats.delivered, 0U);   // no ACK ever came back
  EXPECT_EQ(stats.lost, 2U);
  EXPECT_GT(stats.duplicates, 0U);  // peer saw the retransmissions
  ASSERT_EQ(link.received().size(), 2U);  // but released each payload once
  EXPECT_EQ(link.received()[0][0], 0x31);
  EXPECT_EQ(link.received()[1][0], 0x32);
}

TEST(SelectiveRepeat, McsFallsBackInFadeAndRecoversAfter) {
  auto cfg = sr_config(30.0, 30.0, 24);
  cfg.arq.max_retries = 12;
  cfg.arq.fades.push_back({0.0, 1500.0, 0.01});  // deep fade, then clean air
  cfg.adapt.fallback_after = 2;
  cfg.adapt.recover_after = 2;
  mac::SelectiveRepeatLink link(cfg);
  for (int i = 0; i < 10; ++i) {
    link.queue(payload_of(150, static_cast<std::uint8_t>(i)));
  }
  const auto& stats = link.run();
  EXPECT_GT(stats.mcs_fallbacks, 0U);      // degraded during the fade
  EXPECT_GT(stats.mcs_recoveries, 0U);     // climbed back once it cleared
  EXPECT_EQ(link.current_mcs(), cfg.arq.data_phy.mcs);
  EXPECT_EQ(stats.delivered, 10U);
  EXPECT_EQ(stats.lost, 0U);
  ASSERT_EQ(link.received().size(), 10U);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(link.received()[static_cast<std::size_t>(i)][0], i);
  }
}

// ---------------------------------------------------------------- seq ring

TEST(Seq12Delta, SignExtendsAcrossTheRing) {
  EXPECT_EQ(mac::seq12_delta(0, 0), 0);
  EXPECT_EQ(mac::seq12_delta(5, 3), 2);     // ahead of expectation
  EXPECT_EQ(mac::seq12_delta(3, 5), -2);    // behind: duplicate territory
  EXPECT_EQ(mac::seq12_delta(0, 4095), 1);  // the 4095 -> 0 wrap is "next"
  EXPECT_EQ(mac::seq12_delta(4095, 0), -1); // and its mirror is "previous"
  EXPECT_EQ(mac::seq12_delta(3, 4090), 9);  // window straddling the wrap
  // Half-ring bounds: +2047 is the farthest "ahead", -2048 the farthest
  // "behind" — the window < 2048 bound keeps real links inside this.
  EXPECT_EQ(mac::seq12_delta(2047, 0), 2047);
  EXPECT_EQ(mac::seq12_delta(2048, 0), -2048);
  static_assert(mac::seq12_delta(0, 4095) == 1);  // usable in constant context
}

TEST(SelectiveRepeat, DeliversInOrderAcrossSequenceWraparound) {
  // Start the link 6 frames below the 12-bit wrap and push 12 through: the
  // peer's in-order release and de-duplication must carry across 4095 -> 0.
  auto cfg = sr_config(12.0, 30.0, 26);  // noisy enough to force retries
  cfg.arq.forward.fading = true;
  cfg.arq.max_retries = 10;
  cfg.adapt.fallback_after = 0;
  cfg.first_frame_index = 4090;
  mac::SelectiveRepeatLink link(cfg);
  for (int i = 0; i < 12; ++i) {
    link.queue(payload_of(200, static_cast<std::uint8_t>(i)));
  }
  const auto& stats = link.run();
  EXPECT_GT(stats.retransmissions, 0U);  // the ring saw duplicates in flight
  EXPECT_GE(stats.delivered, 10U);
  int prev = -1;
  for (const auto& p : link.received()) {
    EXPECT_GT(static_cast<int>(p[0]), prev);  // strict queue order, no dupes
    prev = p[0];
  }
}

// ---------------------------------------------------------------- adaptor

TEST(LinkAdaptor, ClassifiesFailuresByEvidence) {
  mac::LinkObservation obs;
  obs.delivered = true;
  EXPECT_EQ(mac::LinkAdaptor::classify(obs, 24.0, 1.0),
            mac::FailureEvidence::kNone);

  obs.delivered = false;
  obs.error = metrics::RxError::kFalseSync;
  EXPECT_EQ(mac::LinkAdaptor::classify(obs, 24.0, 1.0),
            mac::FailureEvidence::kInterference);

  // kFcsFail at an SNR the rate comfortably clears: interference.
  obs.error = metrics::RxError::kFcsFail;
  obs.snr_db = 30.0;
  obs.have_snr = true;
  EXPECT_EQ(mac::LinkAdaptor::classify(obs, 24.0, 1.0),
            mac::FailureEvidence::kInterference);

  // Same failure with the SNR short of required + margin: the channel.
  obs.snr_db = 20.0;
  EXPECT_EQ(mac::LinkAdaptor::classify(obs, 24.0, 1.0),
            mac::FailureEvidence::kChannel);

  // No SNR evidence at all (never synced): looks like a fade.
  obs.error = metrics::RxError::kNoSync;
  obs.have_snr = false;
  EXPECT_EQ(mac::LinkAdaptor::classify(obs, 24.0, 1.0),
            mac::FailureEvidence::kChannel);
}

TEST(LinkAdaptor, EvidencePolicyHoldsRateOnInterference) {
  mac::LinkAdaptorConfig cfg;
  cfg.policy = mac::AdaptPolicy::kEvidence;
  cfg.down_after = 2;
  mac::LinkAdaptor ad(cfg, /*initial=*/7, /*min=*/0, /*max=*/7);

  // A run of interference-classed failures: rate held, backoff stretched
  // geometrically up to the cap.
  mac::LinkObservation burst;
  burst.error = metrics::RxError::kFcsFail;
  burst.snr_db = 30.0;  // >= required(7) + margin: healthy channel
  burst.have_snr = true;
  double last_scale = 1.0;
  for (int i = 0; i < 5; ++i) {
    const auto d = ad.observe(burst);
    EXPECT_EQ(d.mcs_step, 0);
    EXPECT_GE(d.backoff_scale, last_scale);
    last_scale = d.backoff_scale;
  }
  EXPECT_EQ(ad.current_mcs(), 7U);
  EXPECT_EQ(ad.fallbacks(), 0U);
  EXPECT_EQ(ad.interference_holds(), 5U);
  EXPECT_DOUBLE_EQ(ad.backoff_scale(), cfg.max_backoff_scale);  // capped

  // Deliveries decay the stretch back toward nominal.
  mac::LinkObservation ok;
  ok.delivered = true;
  for (int i = 0; i < 5; ++i) (void)ad.observe(ok);
  EXPECT_DOUBLE_EQ(ad.backoff_scale(), 1.0);
}

TEST(LinkAdaptor, EvidencePolicyStepsDownOnChannelEvidence) {
  mac::LinkAdaptorConfig cfg;
  cfg.policy = mac::AdaptPolicy::kEvidence;
  cfg.down_after = 2;
  mac::LinkAdaptor ad(cfg, 7, 0, 7);

  mac::LinkObservation fade;
  fade.error = metrics::RxError::kFcsFail;
  fade.snr_db = 15.0;  // well short of required(7): the channel is the story
  fade.have_snr = true;
  EXPECT_EQ(ad.observe(fade).mcs_step, 0);   // first strike
  EXPECT_EQ(ad.observe(fade).mcs_step, -1);  // second: step down
  EXPECT_EQ(ad.current_mcs(), 6U);
  EXPECT_EQ(ad.fallbacks(), 1U);
  EXPECT_EQ(ad.interference_holds(), 0U);

  // An interleaved interference burst resets the channel streak: two more
  // channel strikes are needed before the next step.
  mac::LinkObservation burst = fade;
  burst.snr_db = 30.0;
  EXPECT_EQ(ad.observe(fade).mcs_step, 0);
  EXPECT_EQ(ad.observe(burst).mcs_step, 0);
  EXPECT_EQ(ad.observe(fade).mcs_step, 0);
  EXPECT_EQ(ad.observe(fade).mcs_step, -1);
  EXPECT_EQ(ad.current_mcs(), 5U);
}

TEST(LinkAdaptor, EvidencePolicyStepsUpOnlyWithHeadroom) {
  mac::LinkAdaptorConfig cfg;
  cfg.policy = mac::AdaptPolicy::kEvidence;
  cfg.up_after = 3;
  mac::LinkAdaptor ad(cfg, 5, 0, 7);

  // Deliveries without headroom over required(6) + up_margin: no step.
  mac::LinkObservation ok;
  ok.delivered = true;
  ok.min_stream_sinr_db = 20.0;  // required(6)=22.5 + 2.0 margin not met
  ok.have_stream_sinr = true;
  for (int i = 0; i < 6; ++i) EXPECT_EQ(ad.observe(ok).mcs_step, 0);
  EXPECT_EQ(ad.current_mcs(), 5U);

  // With demonstrated headroom the third consecutive delivery steps up.
  ok.min_stream_sinr_db = 27.0;
  EXPECT_EQ(ad.observe(ok).mcs_step, 0);
  EXPECT_EQ(ad.observe(ok).mcs_step, 0);
  EXPECT_EQ(ad.observe(ok).mcs_step, +1);
  EXPECT_EQ(ad.current_mcs(), 6U);
  EXPECT_EQ(ad.recoveries(), 1U);
}

TEST(LinkAdaptor, FailureCountPolicyMatchesLegacyStreaks) {
  mac::LinkAdaptorConfig cfg;  // kFailureCount default
  cfg.fallback_after = 2;
  cfg.recover_after = 3;
  mac::LinkAdaptor ad(cfg, 4, 0, 7);

  mac::LinkObservation fail;   // policy is evidence-blind: any failure counts
  fail.error = metrics::RxError::kFcsFail;
  mac::LinkObservation ok;
  ok.delivered = true;

  EXPECT_EQ(ad.observe(fail).mcs_step, 0);
  EXPECT_EQ(ad.observe(fail).mcs_step, -1);
  EXPECT_EQ(ad.current_mcs(), 3U);
  EXPECT_EQ(ad.observe(ok).mcs_step, 0);
  EXPECT_EQ(ad.observe(fail).mcs_step, 0);  // success reset the fail streak
  EXPECT_EQ(ad.observe(ok).mcs_step, 0);
  EXPECT_EQ(ad.observe(ok).mcs_step, 0);
  EXPECT_EQ(ad.observe(ok).mcs_step, +1);   // 3 consecutive successes
  EXPECT_EQ(ad.current_mcs(), 4U);
}

// ---------------------------------------------------------------- HARQ link

TEST(SelectiveRepeat, HarqChaseCombiningRecoversCliffLink) {
  // MCS 7 at 16 dB over the identity channel: standalone PER ~ 1 (see
  // test_harq.cpp's pinned cliff), so without combining every frame burns
  // its retries and is lost. With chase combining the second or third
  // attempt's summed LLRs decode.
  auto base = sr_config(16.0, 30.0, 27);
  base.arq.data_phy.mcs = 7;
  base.arq.max_retries = 5;
  base.adapt.fallback_after = 0;  // hold the rate: isolate the combining gain
  constexpr int kFrames = 8;

  auto harq_cfg = base;
  harq_cfg.harq = true;
  mac::SelectiveRepeatLink harq_link(harq_cfg);
  mac::SelectiveRepeatLink plain_link(base);
  for (int i = 0; i < kFrames; ++i) {
    harq_link.queue(payload_of(200, static_cast<std::uint8_t>(i)));
    plain_link.queue(payload_of(200, static_cast<std::uint8_t>(i)));
  }
  const auto& harq_stats = harq_link.run();
  const auto& plain_stats = plain_link.run();

  EXPECT_EQ(plain_stats.delivered, 0U)
      << "standalone retries decoded at the cliff; the pin moved";
  EXPECT_EQ(harq_stats.delivered, kFrames);
  EXPECT_EQ(harq_stats.harq_combined_ok, harq_stats.delivered)
      << "every cliff delivery must have come from a combined decode";
  EXPECT_EQ(harq_stats.lost, 0U);

  // The attempts histogram must place every finished frame at >= 2
  // transmissions (bucket 1 empty) and account for all of them.
  EXPECT_EQ(harq_stats.attempts_hist[1], 0U);
  std::size_t finished = 0;
  for (const auto n : harq_stats.attempts_hist) finished += n;
  EXPECT_EQ(finished, static_cast<std::size_t>(kFrames));

  // The uniform Monte-Carlo shape mirrors the link stats.
  const auto result = harq_link.link_result();
  EXPECT_EQ(result.harq_combined_ok, harq_stats.harq_combined_ok);
  EXPECT_EQ(result.attempts_hist, harq_stats.attempts_hist);
  EXPECT_DOUBLE_EQ(result.per.per(), 0.0);
  const auto row = result.summary_row();
  EXPECT_EQ(row.size(), core::LinkResult::summary_headers().size());
}

TEST(SelectiveRepeat, InvalidConfigThrows) {
  auto cfg = sr_config(20.0, 20.0, 25);
  cfg.window = 0;
  EXPECT_THROW(mac::SelectiveRepeatLink{cfg}, std::invalid_argument);
  cfg = sr_config(20.0, 20.0, 25);
  cfg.arq.data_phy.mcs = 11;
  cfg.arq.forward.ntx = 2;
  cfg.arq.forward.nrx = 2;
  cfg.min_mcs = 3;  // wrong spatial-stream group for MCS 11
  EXPECT_THROW(mac::SelectiveRepeatLink{cfg}, std::invalid_argument);
}

}  // namespace
