// Channel-condition monitoring example: the paper's "fine grained SNR
// estimation ... allows us to evaluate the channel conditions". A link runs
// while the true SNR drifts; each received packet reports its wideband and
// per-subcarrier SNR estimates, revealing both the drift and the frequency
// selectivity of the channel.
#include <cstdio>
#include <string>

#include "core/link_simulator.hpp"
#include "ofdm/subcarriers.hpp"

int main() {
  using namespace mimonet;

  std::printf("wideband SNR tracking (true SNR drifts 30 -> 5 dB):\n");
  std::printf("%8s %10s %10s %10s\n", "true dB", "LTF est", "pilot est", "FCS");
  for (int step = 0; step <= 10; ++step) {
    const double snr = 30.0 - 2.5 * step;
    auto cfg = core::make_link_config(3, snr);
    cfg.psdu_payload_bytes = 300;
    cfg.seed = 400 + static_cast<std::uint64_t>(step);
    core::LinkSimulator sim(cfg);
    bool printed = false;
    (void)sim.run(core::RunOptions{.n_packets = 1}, [&](const core::PacketOutcome& o) {
      if (!o.detected) return;
      std::printf("%8.1f %10.1f %10.1f %10s\n", snr, o.rx.snr.snr_db,
                  o.rx.pilot_snr.snr_db, o.rx.fcs_ok ? "ok" : "FAIL");
      printed = true;
    });
    if (!printed) std::printf("%8.1f %10s %10s %10s\n", snr, "-", "-", "lost");
  }

  std::printf("\nper-subcarrier SNR under a frequency-selective channel "
              "(notches = fades):\n");
  auto cfg = core::make_link_config(0, 25.0);
  cfg.channel.fading = true;
  cfg.channel.profile = channel::DelayProfile::kLong;
  cfg.seed = 99;
  core::LinkSimulator sim(cfg);
  (void)sim.run(core::RunOptions{.n_packets = 1}, [&](const core::PacketOutcome& o) {
    if (!o.detected) return;
    const core::RxPacket& pkt = o.rx;
    for (int k = -26; k <= 26; k += 2) {
      if (k == 0) continue;
      const auto bin = ofdm::SubcarrierMap::logical_to_bin(k);
      if (!pkt.snr.bin_valid(bin)) continue;
      const double db = pkt.snr.per_bin_db[bin];
      const int bars = std::max(0, static_cast<int>(db / 2.0));
      std::printf("  k=%+3d %6.1f dB |%s\n", k, db, std::string(bars, '#').c_str());
    }
  });
  return 0;
}
