#include "core/mu_link_simulator.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <complex>
#include <cstdint>
#include <exception>
#include <stdexcept>
#include <vector>

#include "chanest/ls_estimator.hpp"
#include "core/bounded_queue.hpp"
#include "core/link_internal.hpp"
#include "core/mu_receiver.hpp"
#include "core/workspace.hpp"
#include "dsp/fft_cache.hpp"
#include "dsp/rng.hpp"
#include "eq/precoder.hpp"
#include "ofdm/subcarriers.hpp"
#include "wifi/bits.hpp"
#include "wifi/preamble.hpp"
#include "wifi/psdu.hpp"

namespace mimonet::core {

void MuLinkResult::merge(const MuLinkResult& other) {
  total.merge(other.total);
  if (per_user.size() < other.per_user.size()) {
    per_user.resize(other.per_user.size());
  }
  for (std::size_t u = 0; u < other.per_user.size(); ++u) {
    per_user[u].merge(other.per_user[u]);
  }
}

namespace {

using detail::account_packet;
using detail::kGolden;
using detail::packet_seed;

channel::MuChannelConfig mu_channel_config(const MuLinkConfig& cfg) {
  channel::MuChannelConfig mc;
  mc.n_users = cfg.n_users;
  mc.n_bs_antennas = cfg.resolved_bs_antennas();
  mc.user = detail::seeded_channel(cfg.user);
  mc.direction = cfg.direction;
  if (cfg.csi_stale_symbols > 0) {
    mc.user.faults.csi_stale(cfg.csi_stale_symbols);
  }
  return mc;
}

/// One packet's contribution: the per-user mergeable partials, folded in
/// packet order on the calling thread exactly like the single-user engine.
struct MuPacketWork {
  std::vector<LinkResult> per_user;
};

/// Per-user MAC frame for packet p: user 0's frame is byte-identical to the
/// single-user engine's (same header, same payload stream), users 1.. vary
/// the destination address and the payload seed.
std::vector<std::uint8_t> build_user_psdu(const MuLinkConfig& cfg,
                                          std::uint64_t pkt_seed,
                                          std::size_t p, std::size_t u) {
  wifi::MacHeader hdr;
  hdr.addr1 = {0x02, 0x11, 0x22, 0x33, 0x44,
               static_cast<std::uint8_t>(0x55 + u)};
  hdr.addr2 = {0x02, 0xAA, 0xBB, 0xCC, 0xDD, 0xEE};
  hdr.addr3 = hdr.addr1;
  hdr.sequence_control = static_cast<std::uint16_t>((p & 0xFFFU) << 4U);

  dsp::BitSource payload_src(pkt_seed * 0x2545F4914F6CDD1DULL + 7 +
                             kGolden * u);
  const auto payload = payload_src.bytes(cfg.user.psdu_payload_bytes);
  return wifi::build_psdu(hdr, payload);
}

/// Genie CSI feedback: run the base station's HT-LTF block (one chain per
/// BS antenna) through a user's channel noiselessly and LS-estimate the
/// flat 1 x n_bs row back out. The per-stream CSD ramp is compensated and
/// the occupied bins averaged, so under the flat profile the row equals the
/// channel taps exactly — staleness (advance_csi) is the only error source
/// the precoder ever sees.
class CsiSounder {
 public:
  explicit CsiSounder(std::size_t n_bs)
      : n_bs_(n_bs),
        n_ltf_(wifi::num_ht_ltfs(n_bs)),
        ls_(1, n_bs),
        map_(ofdm::CarrierPlan::kHt) {
    chains_.reserve(n_bs);
    for (std::size_t s = 0; s < n_bs; ++s) {
      chains_.push_back(wifi::make_htltfs(s, n_bs));
    }
    grids_.assign(1, std::vector<std::vector<cf32>>(
                         n_ltf_, std::vector<cf32>(ofdm::kFftSize)));
  }

  [[nodiscard]] const std::vector<std::vector<cf32>>& chains() const noexcept {
    return chains_;
  }

  [[nodiscard]] std::array<cf32, 4> estimate_row(
      const std::vector<std::vector<cf32>>& rx) {
    const auto& plan = fft_cache_.plan(ofdm::kFftSize);
    for (std::size_t n = 0; n < n_ltf_; ++n) {
      plan.forward(std::span<const cf32>(rx[0]).subspan(
                       n * ofdm::kSymLen + ofdm::kCpLen, ofdm::kFftSize),
                   grids_[0][n]);
    }
    ls_.estimate_into(grids_, est_);

    std::array<cf32, 4> row{};
    for (std::size_t s = 0; s < n_bs_; ++s) {
      const int csd = wifi::ht_csd_samples(s, n_bs_);
      dsp::cf64 acc{0.0, 0.0};
      std::size_t count = 0;
      const auto add_bin = [&](std::size_t b) {
        // Undo the transmit-side cyclic shift exp(-j 2 pi b csd / 64)
        // (ofdm::cyclic_shift_grid's convention, raw FFT bin index).
        const double theta = dsp::two_pi_d * static_cast<double>(b) *
                             static_cast<double>(csd) / 64.0;
        acc += dsp::cf64(est_.h[0][s][b]) * dsp::phasor_d(theta);
        ++count;
      };
      for (const std::size_t b : map_.data_bins()) add_bin(b);
      for (const std::size_t b : map_.pilot_bins()) add_bin(b);
      acc /= static_cast<double>(count);
      row[s] = cf32(static_cast<float>(acc.real()),
                    static_cast<float>(acc.imag()));
    }
    return row;
  }

 private:
  std::size_t n_bs_;
  std::size_t n_ltf_;
  chanest::LsChannelEstimator ls_;
  ofdm::SubcarrierMap map_;
  std::vector<std::vector<cf32>> chains_;  // [bs_antenna][t]
  std::vector<std::vector<std::vector<cf32>>> grids_;  // [1][ltf][bin]
  chanest::MimoChannelEstimate est_;
  dsp::FftPlanCache fft_cache_;
};

/// Worker-owned downlink engine: sound -> age -> zero-force -> mix ->
/// per-user air -> per-user single-link receive. One instance per thread.
class DownlinkEngine {
 public:
  explicit DownlinkEngine(const MuLinkConfig& cfg)
      : cfg_(cfg),
        n_users_(cfg.n_users),
        n_bs_(cfg.resolved_bs_antennas()),
        tx_(cfg.user.phy),
        chan_(mu_channel_config(cfg)),
        rx_(cfg.user.phy, 1),
        sounder_(n_bs_) {}

  [[nodiscard]] MuPacketWork simulate(std::size_t p) {
    const std::uint64_t pkt_seed = packet_seed(cfg_.user.seed, p);
    chan_.reseed(cfg_.user.channel.seed * kGolden + pkt_seed);

    psdus_.clear();
    psdu_spans_.clear();
    for (std::size_t u = 0; u < n_users_; ++u) {
      psdus_.push_back(build_user_psdu(cfg_, pkt_seed, p, u));
    }
    for (const auto& psdu : psdus_) psdu_spans_.emplace_back(psdu);

    // CSI lifecycle: the sounding waveform pins each user's snapshot, then
    // advance_csi ages the air by the configured staleness — the precoder
    // below works from the snapshot, the data transmit crosses the aged
    // channel.
    rows_.resize(n_users_);
    for (std::size_t u = 0; u < n_users_; ++u) {
      const auto sounding_rx = chan_.sound_user(u, sounder_.chains());
      rows_[u] = sounder_.estimate_row(sounding_rx);
      chan_.advance_csi(u);
    }
    const eq::Precoder w = [&] {
      try {
        return eq::Precoder::zero_forcing_rows(rows_, n_bs_);
      } catch (const std::exception&) {
        // Degenerate draw (measure-zero under Rayleigh fading): fall back
        // to a pass-through so the run stays deterministic instead of dying.
        return eq::Precoder::pass_through(n_bs_, n_users_);
      }
    }();

    tx_.transmit_mu_into(std::span<const std::span<const std::uint8_t>>(psdu_spans_),
                         w, mtw_);
    const double airtime = tx_.layout(psdus_[0].size()).airtime_us();

    MuPacketWork work;
    work.per_user.resize(n_users_);
    for (std::size_t u = 0; u < n_users_; ++u) {
      const auto capture = chan_.transmit_downlink(u, mtw_.chains);
      rws_.capture_spans.assign(capture.begin(), capture.end());
      const bool detected = rx_.receive(
          std::span<const std::span<const cf32>>(rws_.capture_spans), rws_);
      account_packet(work.per_user[u], rws_, detected, psdus_[u],
                     cfg_.user.psdu_payload_bytes, airtime,
                     chan_.user_truth(u));
    }
    return work;
  }

 private:
  const MuLinkConfig cfg_;
  std::size_t n_users_;
  std::size_t n_bs_;
  Transmitter tx_;
  channel::MultiUserChannel chan_;
  Receiver rx_;
  CsiSounder sounder_;
  MuTxWorkspace mtw_;
  RxWorkspace rws_;
  std::vector<std::vector<std::uint8_t>> psdus_;
  std::vector<std::span<const std::uint8_t>> psdu_spans_;
  std::vector<std::array<cf32, 4>> rows_;
};

/// Worker-owned uplink engine: per-user virtual-stream PPDUs -> superposed
/// air -> joint detection. One instance per thread.
class UplinkEngine {
 public:
  explicit UplinkEngine(const MuLinkConfig& cfg)
      : cfg_(cfg),
        n_users_(cfg.n_users),
        tx_(cfg.user.phy),
        chan_(mu_channel_config(cfg)),
        murx_(cfg.user.phy, cfg.n_users, cfg.resolved_bs_antennas()),
        utws_(cfg.n_users),
        chains_(cfg.n_users) {}

  [[nodiscard]] MuPacketWork simulate(std::size_t p) {
    const std::uint64_t pkt_seed = packet_seed(cfg_.user.seed, p);
    chan_.reseed(cfg_.user.channel.seed * kGolden + pkt_seed);

    psdus_.clear();
    for (std::size_t u = 0; u < n_users_; ++u) {
      psdus_.push_back(build_user_psdu(cfg_, pkt_seed, p, u));
      tx_.transmit_virtual_into(psdus_[u], u, n_users_, utws_[u]);
      chains_[u].resize(1);
      chains_[u][0] = utws_[u].chains[0];
    }
    const auto capture = chan_.transmit_uplink(chains_);
    mws_.rx.capture_spans.assign(capture.begin(), capture.end());
    const bool detected = murx_.receive(
        std::span<const std::span<const cf32>>(mws_.rx.capture_spans),
        psdus_[0].size(), mws_);
    const auto& truth = chan_.bs_truth();

    // The MU frame flies num_ht_ltfs(U) training symbols, so its airtime is
    // the single-link layout's with the space-time stream count raised.
    FrameLayout fl = tx_.layout(psdus_[0].size());
    fl.nss = n_users_;
    const double airtime = fl.airtime_us();

    MuPacketWork work;
    work.per_user.resize(n_users_);
    for (std::size_t u = 0; u < n_users_; ++u) {
      account_user(work.per_user[u], detected, u, truth, airtime,
                   psdus_[u]);
    }
    return work;
  }

 private:
  void account_user(LinkResult& res, bool detected, std::size_t u,
                    const channel::ChannelTruth& truth, double airtime,
                    std::span<const std::uint8_t> sent) const {
    const std::size_t payload_bytes = cfg_.user.psdu_payload_bytes;
    if (!detected) {
      ++res.undetected;
      res.per.add(false);
      res.throughput.add_packet(0, airtime);
      res.rx_errors.add(metrics::RxError::kNoSync);
      return;
    }
    const MuRxPacket& pkt = mws_.packet;
    const MuUserPacket& up = pkt.users[u];
    res.rx_errors.add(up.fcs_ok ? metrics::RxError::kOk
                                : metrics::RxError::kFcsFail);
    res.per.add(up.fcs_ok);
    res.throughput.add_packet(up.fcs_ok ? payload_bytes : 0, airtime);
    if (up.psdu.size() == sent.size()) {
      const auto sent_bits = wifi::bytes_to_bits(sent);
      const auto got_bits = wifi::bytes_to_bits(up.psdu);
      res.ber.add(sent_bits, got_bits);
    } else {
      res.ber.add_counts(sent.size() * 8, sent.size() * 8);
    }
    res.snr_est_db.add(pkt.snr.snr_db);
    // BS-level sync diagnostics land in every user's partial (it is the
    // timing/CFO error their decode experienced), keeping the invariant
    // that total is exactly the fold of per_user.
    res.timing_err.add(static_cast<double>(pkt.sync.packet_start) -
                       static_cast<double>(truth.packet_start));
    res.cfo_err.add(pkt.sync.cfo_norm - truth.cfo_norm);
    res.stream_sinr_db[0].add(up.sinr_db);
  }

  const MuLinkConfig cfg_;
  std::size_t n_users_;
  Transmitter tx_;
  channel::MultiUserChannel chan_;
  MuUplinkReceiver murx_;
  std::vector<TxWorkspace> utws_;
  std::vector<std::vector<std::vector<cf32>>> chains_;  // [u][1][t]
  MuRxWorkspace mws_;
  std::vector<std::vector<std::uint8_t>> psdus_;
};

/// Both directions run on LinkSimulator's executor: the same packet-index
/// schedule and in-order fold, over either engine.
template <class Engine>
MuLinkResult run_engine(const MuLinkConfig& cfg, const MuRunOptions& opt) {
  MuLinkResult res;
  res.per_user.resize(cfg.n_users);
  run_ordered_fold(
      opt.n_packets, opt.n_threads, [&cfg] { return Engine(cfg); },
      [&res](const MuPacketWork& work) {
        for (std::size_t u = 0; u < work.per_user.size(); ++u) {
          res.per_user[u].merge(work.per_user[u]);
          res.total.merge(work.per_user[u]);
        }
        return false;
      });
  return res;
}

}  // namespace

MuLinkSimulator::MuLinkSimulator(MuLinkConfig cfg) : cfg_(cfg) {
  if (cfg_.n_users == 0 || cfg_.n_users > 4) {
    throw std::invalid_argument("MuLinkSimulator: n_users must be 1..4");
  }
  if (cfg_.resolved_bs_antennas() < cfg_.n_users ||
      cfg_.resolved_bs_antennas() > 4) {
    throw std::invalid_argument(
        "MuLinkSimulator: need n_users <= n_bs_antennas <= 4");
  }
  // A one-user downlink delegates to the single-user engine, which handles
  // any MCS; genuinely multi-user runs (and the trigger-based uplink, whose
  // joint detector validates itself) need the 1-stream template.
  const bool delegated = cfg_.n_users == 1 &&
                         cfg_.direction == channel::MuDirection::kDownlink;
  const auto info = cfg_.user.phy.mcs_info();
  if (!delegated && (info.nss != 1 || cfg_.user.phy.stbc)) {
    throw std::invalid_argument(
        "MuLinkSimulator: users run a 1-stream MCS without STBC");
  }
  if (cfg_.n_users > 1 &&
      cfg_.direction == channel::MuDirection::kDownlink &&
      cfg_.user.channel.profile != channel::DelayProfile::kFlat) {
    throw std::invalid_argument(
        "MuLinkSimulator: downlink precoding needs the flat profile (the "
        "CSI feedback row is a single tap per antenna)");
  }
}

MuLinkResult MuLinkSimulator::run(const MuRunOptions& opt) {
  if (cfg_.n_users == 1 &&
      cfg_.direction == channel::MuDirection::kDownlink) {
    // A one-user downlink is the single-user link: delegate to the SU
    // engine verbatim (same per-packet path, same fold order), which is
    // what makes the N_users == 1 pin a structural bit-identity.
    LinkSimulator su(cfg_.user);
    RunOptions su_opt;
    su_opt.n_packets = opt.n_packets;
    su_opt.n_threads = opt.n_threads;
    MuLinkResult res;
    res.per_user.push_back(su.run(su_opt));
    res.total = res.per_user[0];
    return res;
  }
  if (cfg_.direction == channel::MuDirection::kDownlink) {
    return run_engine<DownlinkEngine>(cfg_, opt);
  }
  return run_engine<UplinkEngine>(cfg_, opt);
}

MuLinkConfig make_mu_link_config(unsigned mcs, double snr_db,
                                 std::size_t n_users,
                                 channel::MuDirection direction,
                                 double doppler_norm) {
  MuLinkConfig cfg;
  cfg.user = make_link_config(mcs, snr_db, /*nrx=*/1);
  cfg.user.channel.ntx = 1;  // per-user template; the MU channel reshapes
  cfg.user.channel.fading = true;
  cfg.user.channel.profile = channel::DelayProfile::kFlat;
  cfg.user.channel.doppler_norm = doppler_norm;
  cfg.n_users = n_users;
  cfg.direction = direction;
  return cfg;
}

}  // namespace mimonet::core
