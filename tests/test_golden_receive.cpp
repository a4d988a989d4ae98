// Golden digests for the two payload decoders: Receiver::receive and
// MuUplinkReceiver::receive.
//
// Each case builds one seeded capture, decodes it through a fresh workspace
// and hashes the outcome bit for bit. A Receiver case hashes the return
// value, the whole RxPacket (testutil::hash_packet) and ws.merged, the
// post-merge LLR stream (empty where BCC streams chunk by chunk into the
// Viterbi decoder). An uplink case hashes the return value, `detected`,
// the sync estimates, the L-LTF SNR estimate and every user's fcs_ok, PSDU
// and SINR. The constants pin outputs, not implementation: a change that
// only moves code between stages or between the per-symbol and batched
// kernels must leave every one of them untouched.
//
// -ffast-math (the MIMONET_NATIVE perf build) may reassociate floating
// point, so the digests are skipped there.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "channel/fault_plan.hpp"
#include "channel/mimo_channel.hpp"
#include "channel/multi_user_channel.hpp"
#include "core/mu_receiver.hpp"
#include "core/receiver.hpp"
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

constexpr std::uint64_t kFlatFadingDigest = 0x2594e2c3014d6a52ULL;
constexpr std::uint64_t kTypicalFadingDigest = 0x4b140c9d1e721db9ULL;
constexpr std::uint64_t kReceiverModesDigest = 0xbe85d46d781be445ULL;
constexpr std::uint64_t kHarqDigest = 0x60590aa6fda67effULL;
constexpr std::uint64_t kUplinkDigest = 0x2d9109cccd2608a6ULL;
constexpr std::uint64_t kUplinkModesDigest = 0xc30dcc48e0d7887eULL;

std::vector<std::uint8_t> payload(std::size_t n, std::uint64_t seed) {
  std::vector<std::uint8_t> out(n);
  for (auto& b : out) {
    seed = dsp::splitmix64(seed);
    b = static_cast<std::uint8_t>(seed >> 56U);
  }
  return out;
}

std::vector<std::span<const cf32>> spans_of(const std::vector<std::vector<cf32>>& c) {
  return {c.begin(), c.end()};
}

// ---- Receiver::receive -----------------------------------------------------

struct SuCase {
  core::PhyConfig phy;
  std::size_t nrx = 1;
  bool fading = true;
  channel::DelayProfile profile = channel::DelayProfile::kFlat;
  double snr_db = 22.0;
  std::size_t payload_bytes = 300;
  std::uint64_t seed = 1;
};

std::vector<std::vector<cf32>> su_capture(const SuCase& c) {
  const core::Transmitter tx(c.phy);
  const auto psdu =
      wifi::build_psdu(wifi::MacHeader{}, payload(c.payload_bytes, c.seed));
  channel::ChannelConfig ccfg;
  ccfg.ntx = c.phy.n_sts();
  ccfg.nrx = c.nrx;
  ccfg.fading = c.fading;
  ccfg.profile = c.profile;
  ccfg.snr_db = c.snr_db;
  ccfg.cfo_norm = 3e-5;
  ccfg.timing_pad = 240;
  ccfg.tail_pad = 60;
  ccfg.seed = c.seed;
  channel::MimoChannel chan(ccfg);
  return chan.transmit(tx.transmit(psdu));
}

void hash_receive(Digest& d, const core::Receiver& rx,
                  const std::vector<std::vector<cf32>>& capture,
                  const core::HarqDecode& harq = {}) {
  core::RxWorkspace ws;
  const auto spans = spans_of(capture);
  d.pod(rx.receive(spans, ws, harq));
  testutil::hash_packet(d, ws.packet);
  d.vec(ws.merged);
}

void hash_case(Digest& d, const SuCase& c) {
  const core::Receiver rx(c.phy, c.nrx);
  hash_receive(d, rx, su_capture(c));
}

/// MCS 0-15 plus one 3-stream and one 4-stream MCS, each with ZF, MMSE and
/// ML (which falls back to MMSE above two streams).
std::uint64_t mcs_sweep_digest(channel::DelayProfile profile) {
  constexpr unsigned kExtraMcs[] = {19, 28};
  std::vector<unsigned> mcs_list;
  for (unsigned m = 0; m <= 15; ++m) mcs_list.push_back(m);
  mcs_list.insert(mcs_list.end(), std::begin(kExtraMcs), std::end(kExtraMcs));
  Digest d;
  for (const unsigned mcs : mcs_list) {
    for (const auto eq_type :
         {eq::EqualizerType::kZeroForcing, eq::EqualizerType::kMmse,
          eq::EqualizerType::kMaxLikelihood}) {
      SuCase c;
      c.phy.mcs = mcs;
      c.phy.equalizer = eq_type;
      const std::size_t nss = c.phy.mcs_info().nss;
      c.nrx = mcs % 2 == 0 ? nss : std::min<std::size_t>(4, nss + 1);
      c.profile = profile;
      c.seed = 100 * mcs + static_cast<std::uint64_t>(eq_type);
      hash_case(d, c);
    }
  }
  return d.value();
}

class GoldenReceive : public ::testing::Test {
 protected:
  void SetUp() override {
#ifdef __FAST_MATH__
    GTEST_SKIP() << "-ffast-math may change floating-point bits";
#endif
  }
};

TEST_F(GoldenReceive, McsSweepFlatFading) {
  EXPECT_EQ(hex(mcs_sweep_digest(channel::DelayProfile::kFlat)),
            hex(kFlatFadingDigest));
}

TEST_F(GoldenReceive, McsSweepTypicalFading) {
  EXPECT_EQ(hex(mcs_sweep_digest(channel::DelayProfile::kTypical)),
            hex(kTypicalFadingDigest));
}

/// Smoothing off, phase tracking off, decision tracking, LDPC, STBC, FEC
/// off, Van de Beek timing, a truncated capture and a false sync.
TEST_F(GoldenReceive, ReceiverModes) {
  Digest d;
  std::vector<SuCase> cases;
  const auto add = [&cases](unsigned mcs, std::size_t nrx, auto&& tweak) {
    SuCase c;
    c.phy.mcs = mcs;
    c.nrx = nrx;
    c.profile = channel::DelayProfile::kTypical;
    c.seed = 7000 + cases.size();
    tweak(c);
    cases.push_back(c);
  };
  for (const unsigned mcs : {4U, 12U}) {
    const std::size_t nrx = mcs < 8 ? 1 : 2;
    add(mcs, nrx, [](SuCase& c) { c.phy.smoothing = false; });
    add(mcs, nrx, [](SuCase& c) { c.phy.phase_tracking = false; });
    add(mcs, nrx, [](SuCase& c) { c.phy.decision_tracking = true; });
    add(mcs, nrx, [](SuCase& c) {
      c.phy.decision_tracking = true;
      c.phy.equalizer = eq::EqualizerType::kZeroForcing;
    });
    add(mcs, nrx, [](SuCase& c) { c.phy.fec_type = core::FecType::kLdpc; });
    add(mcs, nrx, [](SuCase& c) {
      c.phy.fec_enabled = false;
      c.snr_db = 32.0;
    });
    add(mcs, nrx, [](SuCase& c) {
      c.phy.timing_mode = sync::TimingMode::kVanDeBeekMimo;
    });
  }
  add(3, 2, [](SuCase& c) { c.phy.stbc = true; });
  add(6, 1, [](SuCase& c) {
    c.phy.stbc = true;
    c.phy.fec_type = core::FecType::kLdpc;
  });
  add(2, 2, [](SuCase& c) {
    c.phy.stbc = true;
    c.phy.equalizer = eq::EqualizerType::kMaxLikelihood;
  });
  for (const SuCase& c : cases) hash_case(d, c);

  // A frame cut inside its data field, and one cut so short that sync
  // itself rejects it.
  for (const std::size_t cut : {400U, 900U}) {
    SuCase c;
    c.phy.mcs = 13;
    c.nrx = 2;
    c.seed = 7101;
    auto capture = su_capture(c);
    for (auto& a : capture) a.resize(a.size() - cut);
    const core::Receiver rx(c.phy, c.nrx);
    core::RxWorkspace ws;
    EXPECT_EQ(rx.receive(spans_of(capture), ws), cut == 400U);
    EXPECT_EQ(ws.packet.error, metrics::RxError::kTruncated);
    hash_receive(d, rx, capture);
  }
  // A CW tone burst in noise and nothing else.
  {
    channel::FaultPlan plan;
    plan.tone_burst(1200, 240, 3.0, 0.07);
    channel::ChannelConfig ccfg;
    ccfg.ntx = 2;
    ccfg.nrx = 2;
    ccfg.snr_db = 30.0;
    ccfg.faults = plan;
    ccfg.seed = 7103;
    channel::MimoChannel chan(ccfg);
    const auto capture =
        chan.transmit(std::vector<std::vector<cf32>>(2, std::vector<cf32>(3000)));
    const core::Receiver rx(core::PhyConfig{}, 2);
    core::RxWorkspace ws;
    EXPECT_TRUE(rx.receive(spans_of(capture), ws));
    EXPECT_EQ(ws.packet.error, metrics::RxError::kFalseSync);
    hash_receive(d, rx, capture);
  }
  EXPECT_EQ(hex(d.value()), hex(kReceiverModesDigest));
}

/// Chase combining: attempt 1 exports its combined LLRs, attempt 2 (fresh
/// noise) sums them in as its prior and exports the sum.
TEST_F(GoldenReceive, HarqCombining) {
  Digest d;
  for (const unsigned mcs : {7U, 12U}) {
    for (const auto fec : {core::FecType::kBcc, core::FecType::kLdpc}) {
      SuCase c;
      c.phy.mcs = mcs;
      c.phy.fec_type = fec;
      c.nrx = mcs < 8 ? 1 : 2;
      c.snr_db = 17.0;
      c.seed = 8000 + mcs + 50 * static_cast<std::uint64_t>(fec);
      const core::Receiver rx(c.phy, c.nrx);
      std::vector<float> first;
      hash_receive(d, rx, su_capture(c), core::HarqDecode{.combined = &first});
      d.vec(first);
      c.seed += 1000;
      std::vector<float> second;
      hash_receive(d, rx, su_capture(c),
                   core::HarqDecode{.prior = first, .combined = &second});
      d.vec(second);
    }
  }
  EXPECT_EQ(hex(d.value()), hex(kHarqDigest));
}

// ---- MuUplinkReceiver::receive ---------------------------------------------

struct MuCase {
  core::PhyConfig phy;
  std::size_t users = 1;
  std::size_t nrx = 1;
  channel::DelayProfile profile = channel::DelayProfile::kFlat;
  double snr_db = 24.0;
  std::size_t payload_bytes = 160;
  std::size_t cut = 0;  ///< samples removed from the capture's end
  std::uint64_t seed = 1;
};

void hash_uplink(Digest& d, const MuCase& c) {
  const core::Transmitter tx(c.phy);
  std::vector<core::TxWorkspace> tws(c.users);
  std::vector<std::vector<std::vector<cf32>>> chains(c.users);
  std::size_t psdu_bytes = 0;
  for (std::size_t u = 0; u < c.users; ++u) {
    const auto psdu = wifi::build_psdu(wifi::MacHeader{},
                                       payload(c.payload_bytes, c.seed + 31 * u));
    psdu_bytes = psdu.size();
    tx.transmit_virtual_into(psdu, u, c.users, tws[u]);
    chains[u].push_back(tws[u].chains[0]);
  }
  channel::MuChannelConfig mc;
  mc.n_users = c.users;
  mc.n_bs_antennas = c.nrx;
  mc.direction = channel::MuDirection::kUplink;
  mc.user.fading = true;
  mc.user.profile = c.profile;
  mc.user.snr_db = c.snr_db;
  mc.user.cfo_norm = 2e-5;
  mc.user.timing_pad = 220;
  mc.user.tail_pad = 70;
  mc.user.seed = c.seed;
  channel::MultiUserChannel chan(mc);
  auto capture = chan.transmit_uplink(chains);
  for (auto& a : capture) a.resize(a.size() - c.cut);

  const core::MuUplinkReceiver murx(c.phy, c.users, c.nrx);
  core::MuRxWorkspace mws;
  d.pod(murx.receive(spans_of(capture), psdu_bytes, mws));
  const core::MuRxPacket& pkt = mws.packet;
  d.pod(pkt.detected);
  d.pod(pkt.sync.packet_start);
  d.pod(pkt.sync.cfo_norm);
  d.pod(pkt.sync.coarse_cfo_norm);
  d.pod(pkt.sync.detect_metric);
  testutil::hash_snr(d, pkt.snr);
  d.pod(pkt.users.size());
  for (const core::MuUserPacket& up : pkt.users) {
    d.pod(up.fcs_ok);
    d.vec(up.psdu);
    d.pod(up.sinr_db);
  }
}

/// Users 1-4 on every BS antenna count from the user count up to 4, MCS 0-7,
/// ZF, MMSE and ML (which falls back to MMSE), flat and TGn-D fading.
TEST_F(GoldenReceive, UplinkUsersByAntennasByMcs) {
  Digest d;
  for (std::size_t users = 1; users <= 4; ++users) {
    for (std::size_t nrx = users; nrx <= 4; ++nrx) {
      for (unsigned mcs = 0; mcs <= 7; ++mcs) {
        for (const auto eq_type :
             {eq::EqualizerType::kZeroForcing, eq::EqualizerType::kMmse,
              eq::EqualizerType::kMaxLikelihood}) {
          MuCase c;
          c.phy.mcs = mcs;
          c.phy.equalizer = eq_type;
          c.users = users;
          c.nrx = nrx;
          c.profile = mcs % 2 == 0 ? channel::DelayProfile::kFlat
                                   : channel::DelayProfile::kTypical;
          c.seed = 1000 * users + 100 * nrx + 10 * mcs +
                   static_cast<std::uint64_t>(eq_type);
          hash_uplink(d, c);
        }
      }
    }
  }
  EXPECT_EQ(hex(d.value()), hex(kUplinkDigest));
}

/// FEC off, phase tracking off, and a capture cut inside its data field.
TEST_F(GoldenReceive, UplinkModes) {
  Digest d;
  for (std::size_t users = 1; users <= 3; ++users) {
    MuCase c;
    c.phy.mcs = 2;
    c.users = users;
    c.nrx = users + 1;
    c.seed = 9000 + users;
    c.phy.fec_enabled = false;
    c.snr_db = 32.0;
    hash_uplink(d, c);
    c.phy.fec_enabled = true;
    c.phy.phase_tracking = false;
    c.snr_db = 24.0;
    hash_uplink(d, c);
    c.phy.phase_tracking = true;
    c.cut = 500;
    hash_uplink(d, c);
  }
  EXPECT_EQ(hex(d.value()), hex(kUplinkModesDigest));
}

}  // namespace
