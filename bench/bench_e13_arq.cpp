// E13 — MAC-level ARQ (Table reconstruction): what stop-and-wait
// retransmission buys at the network level, the layer the paper's MIMONet
// platform targets ("network-level exploitation of MIMO technology").
// Stop-and-wait is SelectiveRepeatLink with a window of one and no rate
// adaptation.
//
// Expected shape: raw PHY loss grows as SNR drops; ARQ holds residual loss
// near zero down to several dB below the PHY cliff, paying with goodput
// (retransmission airtime); once even retries can't get through, loss
// returns and goodput collapses.
#include <cstdio>

#include "bench_util.hpp"
#include "mac/arq.hpp"

using namespace mimonet;

namespace {

struct Row {
  double per_raw;      // single-shot PHY loss
  double loss_arq;     // residual loss with retries
  double goodput_arq;  // Mb/s including retry + ACK airtime
  double retx_per_msdu;
};

Row run_point(double snr, unsigned max_retries, std::size_t msdus,
              std::uint64_t seed) {
  mac::SrConfig cfg;
  cfg.window = 1;
  cfg.adapt.fallback_after = 0;  // hold MCS 11
  cfg.adapt.recover_after = 0;
  cfg.arq.data_phy.mcs = 11;  // 16-QAM 1/2, 2 streams
  cfg.arq.ack_phy.mcs = 0;
  cfg.arq.forward.ntx = 2;
  cfg.arq.forward.nrx = 2;
  cfg.arq.forward.fading = true;
  cfg.arq.forward.snr_db = snr;
  cfg.arq.forward.timing_pad = 300;
  cfg.arq.forward.tail_pad = 80;
  cfg.arq.forward.seed = seed;
  cfg.arq.reverse.snr_db = snr;
  cfg.arq.reverse.fading = true;
  cfg.arq.reverse.timing_pad = 300;
  cfg.arq.reverse.tail_pad = 80;
  cfg.arq.reverse.seed = seed + 1;
  cfg.arq.max_retries = max_retries;

  mac::SelectiveRepeatLink link(cfg);
  for (std::size_t i = 0; i < msdus; ++i) {
    link.queue(std::vector<std::uint8_t>(1000, 0x42));
  }
  const auto& st = link.run();
  // With retries allowed, attempts_hist[1] counts exactly the frames ACKed
  // on their first transmission.
  const std::size_t first_try_fail = msdus - st.attempts_hist[1];
  return Row{
      .per_raw = static_cast<double>(first_try_fail) / static_cast<double>(msdus),
      .loss_arq = st.loss_rate(),
      .goodput_arq = st.goodput_mbps(),
      .retx_per_msdu =
          static_cast<double>(st.retransmissions) / static_cast<double>(msdus),
  };
}

}  // namespace

int main() {
  bench::heading("E13", "Stop-and-wait ARQ over 2x2 fading (Table)");
  constexpr std::size_t kMsdus = 25;
  bench::note("MCS 11 data + MCS 0 ACKs, %zu 1000-byte MSDUs per point,", kMsdus);
  bench::note("7 retries; 'raw loss' counts first-attempt failures");

  const bench::Table table(
      {"SNR dB", "raw loss", "ARQ loss", "goodput", "retx/MSDU"}, 12);
  std::string pts = "[";
  bool first = true;
  for (double snr = 6.0; snr <= 24.0; snr += 3.0) {
    const auto row = run_point(snr, 7, kMsdus, 130);
    table.row({bench::fix(snr, 0), bench::fix(row.per_raw, 2),
               bench::fix(row.loss_arq, 2), bench::fix(row.goodput_arq, 1),
               bench::fix(row.retx_per_msdu, 2)});
    char obj[224];
    std::snprintf(obj, sizeof obj,
                  "%s{\"snr_db\": %g, \"raw_loss\": %.6g, \"arq_loss\": %.6g, "
                  "\"goodput_mbps\": %.6g, \"retx_per_msdu\": %.6g}",
                  first ? "" : ", ", snr, row.per_raw, row.loss_arq,
                  row.goodput_arq, row.retx_per_msdu);
    pts += obj;
    first = false;
  }
  bench::note("expected: ARQ loss ~0 while raw loss climbs; goodput degrades");
  bench::note("gracefully with retx/MSDU before collapsing");

  bench::JsonReport report("e13_arq");
  report.field("msdus_per_point", kMsdus)
      .field("max_retries", 7)
      .raw("points", pts + "]")
      .emit();
  return 0;
}
