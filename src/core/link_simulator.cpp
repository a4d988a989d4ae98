#include "core/link_simulator.hpp"

#include <bit>
#include <cmath>
#include <cstdio>

#include "core/bounded_queue.hpp"
#include "core/link_internal.hpp"
#include "core/workspace.hpp"
#include "dsp/rng.hpp"
#include "wifi/psdu.hpp"

namespace mimonet::core {

namespace detail {

std::uint64_t packet_seed(std::uint64_t link_seed, std::size_t p) {
  return dsp::splitmix64(link_seed ^ dsp::splitmix64(static_cast<std::uint64_t>(p) + 1));
}

channel::ChannelConfig seeded_channel(const LinkConfig& cfg) {
  auto ch = cfg.channel;
  ch.seed = ch.seed * kGolden + cfg.seed;
  return ch;
}

void account_packet(LinkResult& res, const RxWorkspace& rws, bool detected,
                    std::span<const std::uint8_t> sent_psdu,
                    std::size_t payload_bytes, double airtime,
                    const channel::ChannelTruth& truth) {
  if (!detected) {
    ++res.undetected;
    res.per.add(false);
    res.throughput.add_packet(0, airtime);
    res.rx_errors.add(rws.packet.error);  // kNoSync or kTruncated
    return;
  }
  const RxPacket& rx_pkt = rws.packet;
  res.rx_errors.add(rx_pkt.error);

  const bool ok = rx_pkt.fcs_ok;
  res.per.add(ok);
  res.throughput.add_packet(ok ? payload_bytes : 0, airtime);

  if (rx_pkt.htsig_ok && rx_pkt.psdu.size() == sent_psdu.size()) {
    // Bit errors counted a byte at a time: the popcount of each XOR.
    std::size_t errors = 0;
    for (std::size_t i = 0; i < sent_psdu.size(); ++i) {
      errors += static_cast<std::size_t>(
          std::popcount(static_cast<unsigned>(sent_psdu[i] ^ rx_pkt.psdu[i])));
    }
    res.ber.add_counts(errors, sent_psdu.size() * 8);
  } else if (rx_pkt.htsig_ok) {
    // Length corrupted: count every PSDU bit as errored.
    res.ber.add_counts(sent_psdu.size() * 8, sent_psdu.size() * 8);
  }

  res.snr_est_db.add(rx_pkt.snr.snr_db);
  if (rx_pkt.pilot_snr.noise_variance > 0.0) {
    res.pilot_snr_db.add(rx_pkt.pilot_snr.snr_db);
  }
  res.timing_err.add(static_cast<double>(rx_pkt.sync.packet_start) -
                     static_cast<double>(truth.packet_start));
  res.cfo_err.add(rx_pkt.sync.cfo_norm - truth.cfo_norm);
  for (std::size_t s = 0; s < rx_pkt.n_stream_sinr; ++s) {
    res.stream_sinr_db[s].add(rx_pkt.stream_sinr_db[s]);
  }
}

}  // namespace detail

namespace {

using detail::kGolden;
using detail::seeded_channel;

/// One packet's contribution: the mergeable partial result plus the
/// observer payload.
struct PacketWork {
  LinkResult partial;
  PacketOutcome outcome;
};

/// One worker's engine: its own transmitter, channel and receiver plus
/// their workspaces, so nothing in the transmit/receive chain is shared
/// across threads and, once warm, a packet without an observer allocates
/// nothing.
class LinkEngine {
 public:
  LinkEngine(const LinkConfig& cfg, bool want_outcome)
      : cfg_(cfg),
        tx_(cfg.phy),
        chan_(seeded_channel(cfg)),
        rx_(cfg.phy, cfg.channel.nrx),
        want_outcome_(want_outcome) {}

  [[nodiscard]] PacketWork simulate(std::size_t p) {
    const std::uint64_t pkt_seed = detail::packet_seed(cfg_.seed, p);
    // Restart the channel's random sources for this packet; offsetting by
    // the channel's own seed keeps common-random-number comparisons working.
    chan_.reseed(cfg_.channel.seed * kGolden + pkt_seed);

    wifi::MacHeader hdr;
    hdr.addr1 = {0x02, 0x11, 0x22, 0x33, 0x44, 0x55};
    hdr.addr2 = {0x02, 0xAA, 0xBB, 0xCC, 0xDD, 0xEE};
    hdr.addr3 = hdr.addr1;
    hdr.sequence_control = static_cast<std::uint16_t>((p & 0xFFFU) << 4U);

    payload_.resize(cfg_.psdu_payload_bytes);
    dsp::BitSource(pkt_seed * 0x2545F4914F6CDD1DULL + 7).bytes_into(payload_);
    wifi::build_psdu_into(hdr, payload_, psdu_);

    tx_.transmit_into(psdu_, tws_);
    tx_spans_.assign(tws_.chains.begin(), tws_.chains.end());
    chan_.transmit_into(tx_spans_, cws_);
    const auto& truth = chan_.truth();

    rws_.capture_spans.assign(cws_.rx.begin(), cws_.rx.end());
    const bool detected = rx_.receive(
        std::span<const std::span<const cf32>>(rws_.capture_spans), rws_);
    const double airtime = tx_.layout(psdu_.size()).airtime_us();

    PacketWork work;
    work.outcome.index = p;
    work.outcome.airtime_us = airtime;
    work.outcome.truth_packet_start = truth.packet_start;
    work.outcome.truth_cfo_norm = truth.cfo_norm;
    detail::account_packet(work.partial, rws_, detected, psdu_, payload_.size(),
                           airtime, truth);
    work.outcome.detected = detected;
    if (want_outcome_) {
      work.outcome.sent_psdu = psdu_;
      if (detected) work.outcome.rx = rws_.packet;
    }
    return work;
  }

 private:
  const LinkConfig& cfg_;
  const Transmitter tx_;
  channel::MimoChannel chan_;
  const Receiver rx_;
  TxWorkspace tws_;
  channel::ChannelWorkspace cws_;
  RxWorkspace rws_;
  std::vector<std::uint8_t> payload_;
  std::vector<std::uint8_t> psdu_;
  std::vector<std::span<const cf32>> tx_spans_;
  /// Copy the sent PSDU and the decoded RxPacket into each outcome. Only
  /// an observer reads them, so the no-observer hot path skips both.
  bool want_outcome_;
};

}  // namespace

void LinkResult::merge(const LinkResult& other) {
  ber.merge(other.ber);
  per.merge(other.per);
  throughput.merge(other.throughput);
  rx_errors.merge(other.rx_errors);
  undetected += other.undetected;
  snr_est_db.merge(other.snr_est_db);
  pilot_snr_db.merge(other.pilot_snr_db);
  timing_err.merge(other.timing_err);
  cfo_err.merge(other.cfo_err);
  for (std::size_t s = 0; s < stream_sinr_db.size(); ++s) {
    stream_sinr_db[s].merge(other.stream_sinr_db[s]);
  }
  for (std::size_t k = 0; k < attempts_hist.size(); ++k) {
    attempts_hist[k] += other.attempts_hist[k];
  }
  harq_combined_ok += other.harq_combined_ok;
}

std::vector<std::string> LinkResult::summary_headers() {
  return {"packets", "PER", "BER", "Mb/s", "SNRest dB", "avg att", "harq ok"};
}

std::vector<std::string> LinkResult::summary_row() const {
  char buf[64];
  std::vector<std::string> row;
  row.push_back(std::to_string(per.packets()));
  std::snprintf(buf, sizeof buf, "%.3f", per.per());
  row.emplace_back(buf);
  std::snprintf(buf, sizeof buf, "%.2e", ber.ber());
  row.emplace_back(buf);
  std::snprintf(buf, sizeof buf, "%.1f", throughput.goodput_mbps());
  row.emplace_back(buf);
  std::snprintf(buf, sizeof buf, "%.1f",
                snr_est_db.count() > 0 ? snr_est_db.mean() : 0.0);
  row.emplace_back(buf);
  std::size_t finished = 0;
  std::size_t transmissions = 0;
  for (std::size_t k = 1; k < attempts_hist.size(); ++k) {
    finished += attempts_hist[k];
    transmissions += k * attempts_hist[k];
  }
  std::snprintf(buf, sizeof buf, "%.2f",
                finished > 0 ? static_cast<double>(transmissions) /
                                   static_cast<double>(finished)
                             : 0.0);
  row.emplace_back(buf);
  row.push_back(std::to_string(harq_combined_ok));
  return row;
}

LinkConfig::Builder LinkConfig::make() { return {}; }

RunOptions::Builder RunOptions::make() { return {}; }

LinkConfig LinkConfig::Builder::build() const {
  LinkConfig cfg = make_link_config(mcs_, snr_db_, nrx_);
  if (nss_ != 0) {
    cfg.channel.ntx = nss_;
    if (nrx_ == 0) cfg.channel.nrx = nss_;
  }
  cfg.psdu_payload_bytes = payload_bytes_;
  cfg.seed = seed_;
  cfg.channel.fading = fading_;
  cfg.channel.profile = profile_;
  cfg.channel.cfo_norm = cfo_norm_;
  cfg.channel.doppler_norm = doppler_norm_;
  if (equalizer_) cfg.phy.equalizer = *equalizer_;
  cfg.phy.stbc = stbc_;
  cfg.phy.fec_enabled = fec_enabled_;
  return cfg;
}

LinkSimulator::LinkSimulator(LinkConfig cfg)
    : cfg_(cfg),
      tx_(cfg.phy),
      chan_(seeded_channel(cfg)),
      rx_(cfg.phy, cfg.channel.nrx) {}

LinkResult LinkSimulator::run(const RunOptions& opt,
                              const PacketObserver& observer) {
  const std::size_t bound = (opt.target_per_events > 0 && opt.max_packets > 0)
                                ? opt.max_packets
                                : opt.n_packets;
  const bool want_outcome = static_cast<bool>(observer);
  LinkResult res;
  run_ordered_fold(
      bound, opt.n_threads, [&] { return LinkEngine(cfg_, want_outcome); },
      [&](const PacketWork& work) {
        res.merge(work.partial);
        if (observer) observer(work.outcome);
        return opt.target_per_events > 0 &&
               res.per.failures() >= opt.target_per_events;
      });
  return res;
}

LinkConfig make_link_config(unsigned mcs, double snr_db, std::size_t nrx) {
  LinkConfig cfg;
  cfg.phy.mcs = mcs;
  const auto info = wifi::mcs_info(mcs);
  cfg.channel.ntx = info.nss;
  cfg.channel.nrx = (nrx == 0) ? info.nss : nrx;
  cfg.channel.snr_db = snr_db;
  cfg.channel.timing_pad = 400;
  cfg.channel.tail_pad = 100;
  return cfg;
}

}  // namespace mimonet::core
