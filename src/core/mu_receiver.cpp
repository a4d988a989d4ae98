#include "core/mu_receiver.hpp"

#include <algorithm>
#include <array>
#include <stdexcept>

#include "core/rx_stages.hpp"

namespace mimonet::core {

namespace {

void reset_mu_packet(MuRxPacket& pkt, std::size_t n_users) {
  pkt.detected = false;
  pkt.sync = {};
  rx::reset_snr(pkt.snr);
  pkt.users.resize(n_users);
  for (auto& u : pkt.users) {
    u.fcs_ok = false;
    u.psdu.clear();
    u.sinr_db = 0.0;
  }
}

}  // namespace

MuUplinkReceiver::MuUplinkReceiver(PhyConfig cfg, std::size_t n_users,
                                   std::size_t nrx)
    : cfg_(cfg),
      n_users_(n_users),
      nrx_(nrx),
      mcs_(cfg.mcs_info()),
      synchronizer_(sync::FrameSyncConfig{.mode = cfg.timing_mode}),
      ht_demod_(ofdm::CarrierPlan::kHt) {
  if (n_users == 0 || n_users > 4) {
    throw std::invalid_argument("MuUplinkReceiver: n_users must be 1..4");
  }
  if (nrx < n_users || nrx > 4) {
    throw std::invalid_argument(
        "MuUplinkReceiver: need n_users <= nrx <= 4 (joint detection)");
  }
  if (mcs_.nss != 1 || cfg.stbc) {
    throw std::invalid_argument(
        "MuUplinkReceiver: users transmit a 1-stream MCS without STBC");
  }
  if (cfg.fec_enabled && cfg.fec_type == FecType::kLdpc) {
    throw std::invalid_argument("MuUplinkReceiver: BCC uplink only");
  }
}

bool MuUplinkReceiver::receive(std::span<const std::span<const cf32>> capture,
                               std::size_t psdu_bytes, MuRxWorkspace& mws) const {
  if (capture.size() != nrx_) {
    throw std::invalid_argument("MuUplinkReceiver: capture antenna count mismatch");
  }
  RxWorkspace& ws = mws.rx;
  MuRxPacket& pkt = mws.packet;
  reset_mu_packet(pkt, n_users_);

  // ---- Sync on the superposed legacy preamble: each user's L-STF/L-LTF is
  // the standard chain-u-of-U field, so the superposition keeps the
  // periodicity the detector and the LTF cross-correlator key on. ----
  const auto sync_res = synchronizer_.synchronize(capture, ws.sync);
  if (!sync_res) return false;
  pkt.sync = *sync_res;

  // Trigger-announced frame geometry: U space-time streams, every user's
  // data field the same symbol count as a 1x1 PPDU of this PSDU size.
  FrameLayout fl;
  fl.nss = n_users_;
  fl.n_data_symbols = data_symbol_count(mcs_, psdu_bytes, cfg_.fec_enabled,
                                        /*stbc=*/false, cfg_.fec_type);
  const std::size_t start = sync_res->packet_start;
  if (capture[0].size() - start < fl.total_samples()) return false;  // truncated

  // The Receiver's stages, with the uplink's differences as arguments: one
  // CFO correction serves every user (the triggered uplink uses the BS
  // reference), the joint nrx x U estimate is not smoothed, and detection
  // is linear without decision tracking (an ML configuration runs MMSE).
  rx::copy_frame(capture, start, 0, fl.total_samples(), sync_res->cfo_norm, 0.0, ws);
  const float nv_bin = rx::lltf_noise_var(ws, pkt.snr);
  rx::estimate_channel(fl, /*smooth=*/false, ws, ws.packet.channel);
  rx::SymbolPlane plane(ht_demod_, cfg_, mcs_, fl, n_users_, ws.packet.channel, nv_bin,
                        rx::Detect::kLinear, /*decision_tracking=*/false);
  std::array<double, 4> sinr_db{};
  plane.prepare(ws, sinr_db);
  for (std::size_t u = 0; u < n_users_; ++u) pkt.users[u].sinr_db = sinr_db[u];

  // ---- The batched symbol plane with no stream merge: each user's stream
  // is its own codeword, so its deinterleaved LLRs accumulate apart. ----
  const std::size_t user_llrs =
      fl.n_data_symbols * wifi::kHtDataCarriers * mcs_.bits_per_subcarrier();
  if (ws.deinterleaved.size() < n_users_) ws.deinterleaved.resize(n_users_);
  for (std::size_t u = 0; u < n_users_; ++u) {
    ws.deinterleaved[u].clear();
    ws.deinterleaved[u].reserve(user_llrs);
  }
  for (std::size_t n0 = 0; n0 < fl.n_data_symbols; n0 += kDecodeBatchSymbols) {
    plane.demod_chunk(n0, std::min(kDecodeBatchSymbols, fl.n_data_symbols - n0), ws);
    for (std::size_t u = 0; u < n_users_; ++u) {
      ws.deinterleaved[u].insert(ws.deinterleaved[u].end(), ws.chunk_deint[u].begin(),
                                 ws.chunk_deint[u].end());
    }
  }

  // ---- One FEC chain per user; each user scrambles independently. ----
  const std::size_t n_info_bits = fl.n_data_symbols * mcs_.data_bits_per_symbol();
  pkt.detected = true;
  for (std::size_t u = 0; u < n_users_; ++u) {
    rx::decode_bcc(viterbi_, ws.deinterleaved[u], mcs_.rate, n_info_bits,
                   cfg_.fec_enabled, ws);
    if (const auto fcs = rx::descramble_psdu(psdu_bytes, ws, pkt.users[u].psdu)) {
      pkt.users[u].fcs_ok = *fcs;
    }
  }
  return true;
}

}  // namespace mimonet::core
