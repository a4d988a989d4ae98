#include "core/transmitter.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <stdexcept>

#include "core/workspace.hpp"
#include "dsp/fft.hpp"
#include "eq/alamouti.hpp"
#include "eq/precoder.hpp"
#include "fec/ldpc.hpp"
#include "fec/scrambler.hpp"
#include "fec/viterbi.hpp"
#include "ofdm/pilots.hpp"
#include "wifi/bits.hpp"
#include "wifi/interleaver.hpp"
#include "wifi/preamble.hpp"
#include "wifi/psdu.hpp"

namespace mimonet::core {

Transmitter::Transmitter(PhyConfig cfg)
    : cfg_(cfg),
      mcs_(cfg.mcs_info()),
      nss_(mcs_.nss),
      nsts_(cfg.n_sts()),
      constellation_(mcs_.modulation),
      parser_(mcs_.bits_per_subcarrier(), nss_),
      ht_mod_(ofdm::CarrierPlan::kHt) {
  if (cfg.stbc && nss_ != 1) {
    throw std::invalid_argument("Transmitter: STBC requires a 1-stream MCS (0-7)");
  }
}

FrameLayout Transmitter::layout(std::size_t psdu_bytes) const {
  FrameLayout fl;
  fl.nss = nsts_;
  fl.n_data_symbols = data_symbol_count(mcs_, psdu_bytes, cfg_.fec_enabled,
                                        cfg_.stbc, cfg_.fec_type);
  return fl;
}

std::span<const std::uint8_t> Transmitter::encode_data_bits_into(
    std::span<const std::uint8_t> psdu, TxWorkspace& ws) const {
  const FrameLayout fl = layout(psdu.size());

  if (cfg_.fec_enabled && cfg_.fec_type == FecType::kLdpc) {
    // LDPC packs whole codewords: SERVICE + PSDU + zero pad to a multiple
    // of k, scrambled, then one encode per codeword; zero filler bits top
    // up the last OFDM symbol.
    const std::size_t n_cw = ldpc_codeword_count(psdu.size());
    ws.bits.assign(kServiceBits, 0);
    wifi::bytes_to_bits_into(psdu, ws.psdu_bits);
    ws.bits.insert(ws.bits.end(), ws.psdu_bits.begin(), ws.psdu_bits.end());
    ws.bits.resize(n_cw * kLdpcK, 0);
    fec::scramble_in_place(ws.bits, cfg_.scrambler_seed);

    static const fec::LdpcCode code;
    ws.coded.assign(fl.n_data_symbols * mcs_.coded_bits_per_symbol(), 0);
    for (std::size_t cw = 0; cw < n_cw; ++cw) {
      code.encode_into(std::span(ws.bits).subspan(cw * kLdpcK, kLdpcK),
                       std::span(ws.coded).subspan(cw * kLdpcN, kLdpcN));
    }
    return ws.coded;
  }

  const std::size_t n_info =
      fl.n_data_symbols *
      (cfg_.fec_enabled ? mcs_.data_bits_per_symbol() : mcs_.coded_bits_per_symbol());

  // SERVICE (16 zero bits: 7 for scrambler init recovery + 9 reserved),
  // PSDU bits, tail, pad — all scrambled; the tail is then re-zeroed so the
  // BCC trellis terminates.
  ws.bits.assign(kServiceBits, 0);
  wifi::bytes_to_bits_into(psdu, ws.psdu_bits);
  ws.bits.insert(ws.bits.end(), ws.psdu_bits.begin(), ws.psdu_bits.end());
  const std::size_t tail_pos = ws.bits.size();
  ws.bits.resize(n_info, 0);  // tail + pad

  fec::scramble_in_place(ws.bits, cfg_.scrambler_seed);
  if (cfg_.fec_enabled) {
    for (std::size_t i = 0; i < kTailBits && tail_pos + i < ws.bits.size(); ++i) {
      ws.bits[tail_pos + i] = 0;
    }
    fec::conv_encode_into(ws.bits, ws.coded);
    fec::puncture_into(ws.coded, mcs_.rate, ws.punctured);
    return ws.punctured;
  }
  return ws.bits;
}

std::vector<std::uint8_t> Transmitter::encode_data_bits(
    std::span<const std::uint8_t> psdu) const {
  TxWorkspace ws;
  const auto bits = encode_data_bits_into(psdu, ws);
  return {bits.begin(), bits.end()};
}

void Transmitter::modulate_stream(std::span<const std::uint8_t> stream_bits,
                                  std::size_t iss, std::size_t n_sts,
                                  std::vector<cf32>& out, TxWorkspace& ws) const {
  wifi::cached_interleaver(mcs_.bits_per_subcarrier(), iss, n_sts)
      .interleave_into(stream_bits, ws.interleaved);
  constellation_.map_all_into(ws.interleaved, ws.symbols);
  constexpr std::size_t per_sym = wifi::kHtDataCarriers;
  for (std::size_t n = 0; n < ws.symbols.size() / per_sym; ++n) {
    append_data_symbol(std::span(ws.symbols).subspan(n * per_sym, per_sym), iss,
                       n_sts, n, out, ws);
  }
}

void Transmitter::modulate_stbc(std::span<const std::uint8_t> stream_bits,
                                TxWorkspace& ws) const {
  // The one spatial stream is interleaved and mapped as without STBC.
  wifi::cached_interleaver(mcs_.bits_per_subcarrier(), 0, 1)
      .interleave_into(stream_bits, ws.interleaved);
  constellation_.map_all_into(ws.interleaved, ws.symbols);
  constexpr std::size_t per_sym = wifi::kHtDataCarriers;
  const std::size_t n_sym = ws.symbols.size() / per_sym;
  if (n_sym % 2 != 0) {
    throw std::logic_error("modulate_stbc: symbol count must be even");
  }
  std::array<cf32, per_sym> sts0;
  std::array<cf32, per_sym> sts1;
  for (std::size_t n = 0; n < n_sym; ++n) {
    const std::size_t m = n - n % 2;  // first symbol of the Alamouti pair
    for (std::size_t i = 0; i < per_sym; ++i) {
      const auto mapped = eq::alamouti_map(ws.symbols[m * per_sym + i],
                                           ws.symbols[(m + 1) * per_sym + i]);
      sts0[i] = n == m ? mapped.sts1_first : mapped.sts1_second;
      sts1[i] = n == m ? mapped.sts2_first : mapped.sts2_second;
    }
    append_data_symbol(sts0, 0, 2, n, ws.chains[0], ws);
    append_data_symbol(sts1, 1, 2, n, ws.chains[1], ws);
  }
}

void Transmitter::append_data_symbol(std::span<const cf32> carriers,
                                     std::size_t iss, std::size_t n_sts,
                                     std::size_t n, std::vector<cf32>& out,
                                     TxWorkspace& ws) const {
  const auto pilots = ofdm::ht_data_pilots(n_sts, iss, n);
  const std::size_t base = out.size();
  ht_mod_.modulate(carriers, std::span<const cf32, 4>(pilots), out,
                   wifi::ht_csd_samples(iss, n_sts), ws.time_scratch);
  const float gain = wifi::tone_gain(ht_mod_.map().num_occupied());
  for (std::size_t i = base; i < out.size(); ++i) out[i] *= gain;
}

void Transmitter::append_legacy_symbol(std::span<const cf32> carriers48,
                                       std::size_t polarity_index, int csd,
                                       std::vector<cf32>& out,
                                       std::vector<cf32>& time_scratch) const {
  if (carriers48.size() != wifi::kLegacyDataCarriers) {
    throw std::invalid_argument("append_legacy_symbol: need 48 carriers");
  }
  static const ofdm::SubcarrierMap legacy_map(ofdm::CarrierPlan::kLegacy);
  std::array<cf32, ofdm::kFftSize> grid{};
  for (std::size_t i = 0; i < carriers48.size(); ++i) {
    grid[legacy_map.data_bins()[i]] = carriers48[i];
  }
  const auto pilots = ofdm::legacy_pilot_values(polarity_index);
  for (std::size_t p = 0; p < 4; ++p) {
    grid[legacy_map.pilot_bins()[p]] = pilots[p];
  }
  wifi::apply_cyclic_shift(grid, csd);

  static const dsp::FftPlan plan(ofdm::kFftSize);
  const std::size_t base = out.size();
  ofdm::SymbolModulator::modulate_grid(plan, grid, ofdm::kCpLen, out, time_scratch);
  const float gain = wifi::tone_gain(52);
  for (std::size_t i = base; i < out.size(); ++i) out[i] *= gain;
}

std::vector<std::vector<cf32>> Transmitter::transmit(
    std::span<const std::uint8_t> psdu) const {
  TxWorkspace ws;
  transmit_into(psdu, ws);
  return std::move(ws.chains);
}

void Transmitter::ensure_sig_carriers(std::size_t psdu_size, TxWorkspace& ws) const {
  // SIG field contents depend only on the PSDU length under a fixed config,
  // so the mapped carriers are cached in the workspace.
  const TxWorkspace::SigKey key{psdu_size, static_cast<int>(cfg_.mcs),
                                cfg_.fec_enabled && cfg_.fec_type == FecType::kLdpc,
                                cfg_.stbc};
  if (ws.sig_key == key) return;

  wifi::LSig lsig;
  lsig.length = layout(psdu_size).spoofed_lsig_length();
  const auto lsig_bits = wifi::encode_lsig(lsig);
  ws.lsig_carriers = wifi::map_sig_field(lsig_bits, /*qbpsk=*/false);

  wifi::HtSig htsig;
  htsig.mcs = static_cast<std::uint8_t>(cfg_.mcs);
  htsig.length = static_cast<std::uint16_t>(psdu_size);
  htsig.fec_coding = key.ldpc;
  htsig.stbc = cfg_.stbc ? 1 : 0;  // N_STS - N_SS
  const auto htsig_bits = wifi::encode_htsig(htsig);
  ws.htsig_carriers = wifi::map_sig_field(htsig_bits, /*qbpsk=*/true);
  ws.sig_key = key;
}

void Transmitter::begin_chain(std::size_t sts, const FrameLayout& fl,
                              std::vector<cf32>& chain, TxWorkspace& ws) const {
  chain.clear();
  chain.reserve(fl.total_samples());
  const wifi::PreambleFields& f = wifi::preamble_fields(sts, fl.nss);
  chain.insert(chain.end(), f.lstf.begin(), f.lstf.end());
  chain.insert(chain.end(), f.lltf.begin(), f.lltf.end());

  // L-SIG (polarity index 0) and HT-SIG (indices 1, 2), legacy CSD.
  const int csd = wifi::legacy_csd_samples(sts, fl.nss);
  const std::span<const cf32> htsig(ws.htsig_carriers);
  append_legacy_symbol(ws.lsig_carriers, 0, csd, chain, ws.time_scratch);
  append_legacy_symbol(htsig.first(48), 1, csd, chain, ws.time_scratch);
  append_legacy_symbol(htsig.subspan(48, 48), 2, csd, chain, ws.time_scratch);

  // HT preamble (per space-time-stream HT CSD + P matrix).
  chain.insert(chain.end(), f.htstf.begin(), f.htstf.end());
  chain.insert(chain.end(), f.htltfs.begin(), f.htltfs.end());
}

void Transmitter::transmit_into(std::span<const std::uint8_t> psdu,
                                TxWorkspace& ws) const {
  if (psdu.size() > wifi::kMaxPsduLen) {
    throw std::invalid_argument("Transmitter: PSDU too large");
  }
  const FrameLayout fl = layout(psdu.size());
  ensure_sig_carriers(psdu.size(), ws);
  parser_.parse_into(encode_data_bits_into(psdu, ws), ws.streams);

  ws.chains.resize(nsts_);
  for (std::size_t sts = 0; sts < nsts_; ++sts) {
    begin_chain(sts, fl, ws.chains[sts], ws);
  }
  if (cfg_.stbc) {
    modulate_stbc(ws.streams[0], ws);
  } else {
    for (std::size_t iss = 0; iss < nss_; ++iss) {
      modulate_stream(ws.streams[iss], iss, nss_, ws.chains[iss], ws);
    }
  }

  // Keep total radiated power constant across stream counts.
  const float norm = 1.0F / std::sqrt(static_cast<float>(nsts_));
  for (auto& chain : ws.chains) {
    for (auto& v : chain) v *= norm;
  }
}

void Transmitter::transmit_virtual_into(std::span<const std::uint8_t> psdu,
                                        std::size_t iss, std::size_t n_sts_total,
                                        TxWorkspace& ws) const {
  if (nss_ != 1 || cfg_.stbc) {
    throw std::logic_error(
        "transmit_virtual_into: needs a 1-stream MCS without STBC");
  }
  if (iss >= n_sts_total || n_sts_total > 4) {
    throw std::invalid_argument("transmit_virtual_into: bad stream index");
  }
  if (psdu.size() > wifi::kMaxPsduLen) {
    throw std::invalid_argument("Transmitter: PSDU too large");
  }
  FrameLayout fl = layout(psdu.size());
  fl.nss = n_sts_total;  // chain iss of the n_sts_total-stream joint PPDU
  ensure_sig_carriers(psdu.size(), ws);
  const auto coded = encode_data_bits_into(psdu, ws);

  ws.chains.resize(1);
  auto& chain = ws.chains[0];
  begin_chain(iss, fl, chain, ws);
  modulate_stream(coded, iss, n_sts_total, chain, ws);

  // Per-user share of the joint transmission's power budget: the U
  // superposed virtual streams arrive with unit total power, matching the
  // single-link convention the BS noise level is calibrated against.
  const float norm = 1.0F / std::sqrt(static_cast<float>(n_sts_total));
  for (auto& v : chain) v *= norm;
}

void Transmitter::transmit_mu_into(
    std::span<const std::span<const std::uint8_t>> psdus, const eq::Precoder& w,
    MuTxWorkspace& ws) const {
  if (nss_ != 1 || cfg_.stbc) {
    throw std::logic_error("transmit_mu_into: needs a 1-stream MCS without STBC");
  }
  const std::size_t n_users = psdus.size();
  if (n_users == 0 || w.n_users() != n_users) {
    throw std::invalid_argument("transmit_mu_into: precoder/user count mismatch");
  }
  ws.per_user.resize(n_users);
  for (std::size_t u = 0; u < n_users; ++u) {
    transmit_into(psdus[u], ws.per_user[u]);
    if (ws.per_user[u].chains[0].size() != ws.per_user[0].chains[0].size()) {
      throw std::invalid_argument(
          "transmit_mu_into: user PPDUs must be equal length (equal PSDU sizes)");
    }
  }

  const std::size_t len = ws.per_user[0].chains[0].size();
  const std::size_t n_tx = w.n_tx();
  ws.chains.resize(n_tx);
  for (std::size_t a = 0; a < n_tx; ++a) {
    auto& chain = ws.chains[a];
    chain.assign(len, cf32{0.0F, 0.0F});
    for (std::size_t u = 0; u < n_users; ++u) {
      const cf32 wau = w.weight(a, u);
      const auto& ppdu = ws.per_user[u].chains[0];
      for (std::size_t t = 0; t < len; ++t) chain[t] += wau * ppdu[t];
    }
  }
}

}  // namespace mimonet::core
