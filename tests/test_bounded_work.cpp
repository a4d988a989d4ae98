// A receive does work proportional to the distance to its packet plus the
// frame itself, never to the capture behind the frame: the aligned,
// CFO-corrected copy (RxWorkspace::rx) stops at the frame's extent however
// long the tail is, and the result is bit-identical to a receive on a
// window around the frame.
#include <gtest/gtest.h>

#include <cstdint>
#include <span>
#include <vector>

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

constexpr std::size_t kLongTail = std::size_t{1} << 18;

/// `capture` with `tail` samples of CN(0, noise_var) appended per antenna.
std::vector<std::vector<cf32>> with_noise_tail(std::vector<std::vector<cf32>> capture,
                                               std::size_t tail, double noise_var,
                                               std::uint64_t seed) {
  dsp::ComplexGaussian noise(seed, noise_var);
  for (auto& a : capture) {
    const std::size_t n = a.size();
    a.resize(n + tail);
    noise.fill(std::span<cf32>(a).subspan(n));
  }
  return capture;
}

std::vector<std::span<const cf32>> spans_of(const std::vector<std::vector<cf32>>& c) {
  return {c.begin(), c.end()};
}

TEST(BoundedWork, ReceiveCopiesOnlyItsFrame) {
  core::PhyConfig phy;
  phy.mcs = 15;
  const core::Transmitter tx(phy);
  const auto psdu =
      wifi::build_psdu(wifi::MacHeader{}, std::vector<std::uint8_t>(600, 0x3C));
  channel::ChannelConfig ccfg;
  ccfg.ntx = 2;
  ccfg.nrx = 2;
  ccfg.snr_db = 30.0;
  ccfg.cfo_norm = 3e-4;
  ccfg.timing_pad = 300;
  ccfg.tail_pad = 100;
  ccfg.seed = 12;
  channel::MimoChannel chan(ccfg);
  const auto window = chan.transmit(tx.transmit(psdu));
  const auto tailed = with_noise_tail(window, kLongTail, dsp::from_db(-30.0), 13);

  const core::Receiver rx(phy, 2);
  core::RxWorkspace ws_window;
  ASSERT_TRUE(rx.receive(spans_of(window), ws_window));
  ASSERT_TRUE(ws_window.packet.fcs_ok);

  core::RxWorkspace ws_tail;
  ASSERT_TRUE(rx.receive(spans_of(tailed), ws_tail));
  const auto frame = core::corroborated_frame_samples(ws_tail.packet, phy);
  ASSERT_TRUE(frame.has_value());
  ASSERT_EQ(ws_tail.rx.size(), 2U);
  for (const auto& a : ws_tail.rx) EXPECT_EQ(a.size(), *frame);
  EXPECT_EQ(testutil::packet_digest(ws_tail.packet),
            testutil::packet_digest(ws_window.packet));
}

TEST(BoundedWork, MuUplinkCopiesOnlyItsFrame) {
  constexpr std::size_t kUsers = 2;
  core::PhyConfig phy;
  const core::Transmitter tx(phy);
  const auto psdu =
      wifi::build_psdu(wifi::MacHeader{}, std::vector<std::uint8_t>(200, 0x5A));
  core::TxWorkspace tws;
  std::vector<std::vector<std::vector<cf32>>> per_user(kUsers);
  for (std::size_t u = 0; u < kUsers; ++u) {
    tx.transmit_virtual_into(psdu, u, kUsers, tws);
    per_user[u].push_back(tws.chains[0]);
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
  const auto capture = with_noise_tail(chan.transmit_uplink(per_user), kLongTail,
                                       dsp::from_db(-35.0), 78);

  const core::MuUplinkReceiver murx(phy, kUsers, kUsers);
  core::MuRxWorkspace mws;
  ASSERT_TRUE(murx.receive(spans_of(capture), psdu.size(), mws));
  EXPECT_TRUE(mws.packet.users[0].fcs_ok);
  EXPECT_TRUE(mws.packet.users[1].fcs_ok);

  core::FrameLayout fl;
  fl.nss = kUsers;
  fl.n_data_symbols = core::data_symbol_count(phy.mcs_info(), psdu.size(),
                                              phy.fec_enabled, /*stbc=*/false,
                                              phy.fec_type);
  ASSERT_EQ(mws.rx.rx.size(), kUsers);
  for (const auto& a : mws.rx.rx) EXPECT_EQ(a.size(), fl.total_samples());
}

}  // namespace
