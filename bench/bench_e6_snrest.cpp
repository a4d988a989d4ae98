// E6 — Fine-grained SNR estimator accuracy: estimated vs true SNR for the
// L-LTF repetition method and the pilot-EVM method, through the full
// receiver (sync and channel estimation errors included).
//
// Expected shape: both estimators track the 1:1 line over 0-30 dB; the
// LTF method is unbiased, the pilot-EVM method saturates at very high SNR
// (it also absorbs residual channel-estimation error).
#include <cstdio>

#include "bench_util.hpp"
#include "core/link_simulator.hpp"

using namespace mimonet;

int main() {
  bench::heading("E6", "SNR estimator accuracy (Fig. reconstruction)");
  constexpr std::size_t kPackets = 20;
  bench::note("%zu 1x1 AWGN packets per point; mean +/- stddev of estimates",
              kPackets);

  const bench::Table table(
      {"true dB", "LTF mean", "LTF sd", "pilot mean", "pilot sd", "bias"}, 11);
  std::string pts = "[";
  bool first = true;
  for (double snr = 0.0; snr <= 30.0; snr += 3.0) {
    auto cfg = core::make_link_config(0, snr);
    cfg.psdu_payload_bytes = 800;
    cfg.seed = 60 + static_cast<std::uint64_t>(snr);
    core::LinkSimulator sim(cfg);
    const auto res = sim.run(kPackets);
    if (res.snr_est_db.count() == 0) {
      table.row({bench::fix(snr, 0), "x", "x", "x", "x", "x"});
      continue;
    }
    table.row({bench::fix(snr, 0), bench::fix(res.snr_est_db.mean(), 1),
               bench::fix(res.snr_est_db.stddev(), 2),
               bench::fix(res.pilot_snr_db.mean(), 1),
               bench::fix(res.pilot_snr_db.stddev(), 2),
               bench::fix(res.snr_est_db.mean() - snr, 2)});
    char obj[224];
    std::snprintf(obj, sizeof obj,
                  "%s{\"true_snr_db\": %g, \"ltf_mean_db\": %.4g, "
                  "\"ltf_stddev_db\": %.4g, \"pilot_mean_db\": %.4g, "
                  "\"pilot_stddev_db\": %.4g}",
                  first ? "" : ", ", snr, res.snr_est_db.mean(),
                  res.snr_est_db.stddev(), res.pilot_snr_db.mean(),
                  res.pilot_snr_db.stddev());
    pts += obj;
    first = false;
  }

  bench::note("per-subcarrier view at 20 dB (one packet, LTF method):");
  {
    auto cfg = core::make_link_config(0, 20.0);
    cfg.seed = 77;
    core::LinkSimulator sim(cfg);
    chanest::SnrEstimate snapshot;
    (void)sim.run(core::RunOptions{.n_packets = 1}, [&](const core::PacketOutcome& o) {
      if (o.detected) snapshot = o.rx.snr;
    });
    std::printf("  bin: ");
    for (int k = -26; k <= 26; k += 4) {
      if (k == 0) continue;
      std::printf("%5d", k);
    }
    std::printf("\n  dB:  ");
    for (int k = -26; k <= 26; k += 4) {
      if (k == 0) continue;
      const auto bin = ofdm::SubcarrierMap::logical_to_bin(k);
      std::printf("%5.1f", snapshot.bin_valid(bin) ? snapshot.per_bin_db[bin] : 0.0);
    }
    std::printf("\n");
  }
  bench::note("expected: means within ~1 dB of truth across the range");

  bench::JsonReport report("e6_snrest");
  report.field("packets_per_point", kPackets).raw("points", pts + "]").emit();
  return 0;
}
