// E7 — Goodput per MCS (Table reconstruction): the spatial-multiplexing
// headline — two streams double throughput without extra bandwidth.
//
// Expected shape: at high SNR, goodput approaches the PHY rate minus
// preamble overhead, and MCS 8-15 deliver ~2x their MCS 0-7 counterparts;
// at moderate SNR the fastest MCS collapses first (PER dominates).
#include <cstdio>

#include "bench_util.hpp"
#include "core/link_simulator.hpp"

using namespace mimonet;

namespace {

core::LinkResult run_cell(unsigned mcs, double snr, std::size_t packets,
                          std::uint64_t seed) {
  auto cfg = core::LinkConfig::make()
                 .mcs(mcs)
                 .snr_db(snr)
                 .payload_bytes(1500)
                 .seed(seed)
                 .build();
  core::LinkSimulator sim(cfg);
  return sim.run(
      core::RunOptions{.n_packets = packets, .n_threads = bench::threads()});
}

}  // namespace

int main() {
  bench::heading("E7", "Goodput per MCS, 1500-byte payloads (Table reconstruction)");
  constexpr std::size_t kPackets = 20;
  bench::note("%zu packets per cell, AWGN; goodput = delivered bits / air time",
              kPackets);

  std::string pts = "[";
  bool first = true;
  for (const double snr : {30.0, 18.0, 10.0}) {
    std::printf("\n  SNR %.0f dB\n", snr);
    std::vector<std::string> headers{"MCS", "PHY Mb/s", "nss"};
    for (const auto& h : core::LinkResult::summary_headers()) headers.push_back(h);
    const bench::Table table(headers, 11);
    // Distinct seed family per SNR point so cells stay independent draws.
    const std::uint64_t seed_base = snr == 30.0 ? 70 : (snr == 18.0 ? 170 : 270);
    for (unsigned mcs = 0; mcs <= 15; ++mcs) {
      const auto info = wifi::mcs_info(mcs);
      const auto res = run_cell(mcs, snr, kPackets, seed_base + mcs);
      std::vector<std::string> cells{std::to_string(mcs),
                                     bench::fix(info.data_rate_mbps(), 1),
                                     std::to_string(info.nss)};
      for (auto& c : res.summary_row()) cells.push_back(std::move(c));
      table.row(cells);
      char obj[224];
      std::snprintf(obj, sizeof obj,
                    "%s{\"snr_db\": %g, \"mcs\": %u, \"nss\": %zu, "
                    "\"phy_mbps\": %.4g, \"goodput_mbps\": %.4g, \"per\": %.4g}",
                    first ? "" : ", ", snr, mcs, info.nss,
                    info.data_rate_mbps(), res.throughput.goodput_mbps(),
                    res.per.per());
      pts += obj;
      first = false;
    }
  }
  bench::note("expected: MCS k+8 goodput ~= 2x MCS k at 30 dB (spatial multiplexing");
  bench::note("doubles rate in the same 20 MHz); high MCS collapse first as SNR drops");

  bench::JsonReport report("e7_throughput");
  report.field("packets_per_point", kPackets)
      .field("payload_bytes", std::size_t{1500})
      .raw("points", pts + "]")
      .emit();
  return 0;
}
