// Golden digests for the transmitter: Transmitter::transmit_into,
// ::transmit_virtual_into and ::transmit_mu_into.
//
// Each case hashes every sample of every chain a transmit builds (the chain
// count, each chain's length and its raw float bits). Every case runs twice,
// into a fresh workspace and into one workspace shared by the whole sweep,
// and the two must agree: a warm workspace's caches may save work but never
// change a sample. The constants pin outputs, not implementation.
//
// -ffast-math (the MIMONET_NATIVE perf build) may reassociate floating
// point, so the digests are skipped there.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "core/transmitter.hpp"
#include "core/workspace.hpp"
#include "dsp/rng.hpp"
#include "eq/precoder.hpp"
#include "packet_digest.hpp"
#include "wifi/psdu.hpp"

namespace {

using namespace mimonet;
using dsp::cf32;
using testutil::Digest;
using testutil::hex;

constexpr std::uint64_t kMcsSweepDigest = 0x75732cf7297c043eULL;
constexpr std::uint64_t kCodingModesDigest = 0x496f26f5c2ede73dULL;
constexpr std::uint64_t kVirtualStreamsDigest = 0xbfd9933c4a4cfc51ULL;
constexpr std::uint64_t kMuDownlinkDigest = 0x95a13eba6428e2efULL;

std::vector<std::uint8_t> psdu_of(std::size_t payload_bytes, std::uint64_t seed) {
  std::vector<std::uint8_t> payload(payload_bytes);
  for (auto& b : payload) {
    seed = dsp::splitmix64(seed);
    b = static_cast<std::uint8_t>(seed >> 56U);
  }
  return wifi::build_psdu(wifi::MacHeader{}, payload);
}

void hash_chains(Digest& d, const std::vector<std::vector<cf32>>& chains) {
  d.pod(chains.size());
  for (const auto& c : chains) d.vec(c);
}

class GoldenTransmit : public ::testing::Test {
 protected:
  void SetUp() override {
#ifdef __FAST_MATH__
    GTEST_SKIP() << "-ffast-math may change floating-point bits";
#endif
  }

  /// transmit_into through a fresh and the shared workspace.
  void hash_transmit(Digest& d, const core::PhyConfig& phy,
                     const std::vector<std::uint8_t>& psdu) {
    const core::Transmitter tx(phy);
    core::TxWorkspace fresh;
    tx.transmit_into(psdu, fresh);
    tx.transmit_into(psdu, shared_);
    EXPECT_EQ(fresh.chains, shared_.chains)
        << "mcs=" << phy.mcs << " bytes=" << psdu.size();
    hash_chains(d, fresh.chains);
  }

  core::TxWorkspace shared_;
};

/// MCS 0-15 plus one 3-stream and one 4-stream MCS, BCC, at a short and a
/// long PSDU.
TEST_F(GoldenTransmit, McsSweep) {
  std::vector<unsigned> mcs_list;
  for (unsigned m = 0; m <= 15; ++m) mcs_list.push_back(m);
  mcs_list.push_back(19);
  mcs_list.push_back(28);
  Digest d;
  for (const unsigned mcs : mcs_list) {
    for (const std::size_t bytes : {40U, 700U}) {
      core::PhyConfig phy;
      phy.mcs = mcs;
      hash_transmit(d, phy, psdu_of(bytes, 100 * mcs + bytes));
    }
  }
  EXPECT_EQ(hex(d.value()), hex(kMcsSweepDigest));
}

/// STBC with BCC and with LDPC, LDPC on one and two streams, FEC off.
TEST_F(GoldenTransmit, CodingModes) {
  struct Mode {
    unsigned mcs;
    bool stbc;
    core::FecType fec;
    bool fec_enabled;
  };
  constexpr std::array<Mode, 8> kModes{{
      {3, true, core::FecType::kBcc, true},
      {0, true, core::FecType::kBcc, true},
      {6, true, core::FecType::kLdpc, true},
      {4, false, core::FecType::kLdpc, true},
      {12, false, core::FecType::kLdpc, true},
      {2, false, core::FecType::kBcc, false},
      {13, false, core::FecType::kBcc, false},
      {7, false, core::FecType::kLdpc, false},
  }};
  Digest d;
  for (std::size_t i = 0; i < kModes.size(); ++i) {
    core::PhyConfig phy;
    phy.mcs = kModes[i].mcs;
    phy.stbc = kModes[i].stbc;
    phy.fec_type = kModes[i].fec;
    phy.fec_enabled = kModes[i].fec_enabled;
    phy.scrambler_seed = static_cast<std::uint32_t>(0x5D + 3 * i);
    for (const std::size_t bytes : {40U, 700U}) {
      hash_transmit(d, phy, psdu_of(bytes, 9000 + 10 * i + bytes));
    }
  }
  EXPECT_EQ(hex(d.value()), hex(kCodingModesDigest));
}

/// Every virtual stream iss of every n_sts in 1..4.
TEST_F(GoldenTransmit, VirtualStreams) {
  Digest d;
  for (std::size_t n_sts = 1; n_sts <= 4; ++n_sts) {
    for (std::size_t iss = 0; iss < n_sts; ++iss) {
      core::PhyConfig phy;  // 1-stream MCS 1, 2-3, 4-5 or 6-7 by n_sts
      phy.mcs = static_cast<unsigned>(2 * n_sts - 1 - iss % 2);
      const core::Transmitter tx(phy);
      const auto psdu = psdu_of(150 + 40 * iss, 300 + 10 * n_sts + iss);
      core::TxWorkspace fresh;
      tx.transmit_virtual_into(psdu, iss, n_sts, fresh);
      tx.transmit_virtual_into(psdu, iss, n_sts, shared_);
      EXPECT_EQ(fresh.chains, shared_.chains) << "iss=" << iss << " n_sts=" << n_sts;
      hash_chains(d, fresh.chains);
    }
  }
  EXPECT_EQ(hex(d.value()), hex(kVirtualStreamsDigest));
}

/// A fixed 2-user and 3-user zero-forcing precoder.
TEST_F(GoldenTransmit, MuDownlink) {
  const std::array<std::array<cf32, 4>, 3> rows{{
      {{{1.0F, 0.2F}, {0.3F, -0.4F}, {-0.5F, 0.1F}, {0.2F, 0.7F}}},
      {{{-0.2F, 0.6F}, {0.9F, 0.1F}, {0.4F, -0.3F}, {-0.6F, 0.2F}}},
      {{{0.5F, -0.5F}, {-0.1F, 0.8F}, {0.7F, 0.3F}, {0.1F, -0.9F}}},
  }};
  Digest d;
  core::MuTxWorkspace shared;
  for (const std::size_t n_users : {2U, 3U}) {
    core::PhyConfig phy;
    phy.mcs = n_users == 2 ? 3 : 5;
    const core::Transmitter tx(phy);
    const std::size_t n_bs = n_users + 1;
    const auto w = eq::Precoder::zero_forcing_rows(
        std::span(rows).first(n_users), n_bs);
    std::vector<std::vector<std::uint8_t>> psdus;
    for (std::size_t u = 0; u < n_users; ++u) {
      psdus.push_back(psdu_of(220, 500 + 10 * n_users + u));
    }
    const std::vector<std::span<const std::uint8_t>> spans(psdus.begin(),
                                                           psdus.end());
    core::MuTxWorkspace fresh;
    tx.transmit_mu_into(spans, w, fresh);
    tx.transmit_mu_into(spans, w, shared);
    EXPECT_EQ(fresh.chains, shared.chains) << "users=" << n_users;
    hash_chains(d, fresh.chains);
  }
  EXPECT_EQ(hex(d.value()), hex(kMuDownlinkDigest));
}

}  // namespace
