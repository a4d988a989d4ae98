// Rate-adaptation example: network-level exploitation of the PHY's
// diagnostics (the "MIMONet platform for network-level exploitation of MIMO
// technology"). A simple SNR-threshold rate controller picks the MCS for
// the next packet from the receiver's SNR estimate, and is compared against
// fixed-rate links over the same slow drift in channel quality.
#include <cstdio>
#include <vector>

#include "core/link_simulator.hpp"

namespace {

using namespace mimonet;

// SNR (dB) above which each 2-stream MCS (8..15) is usually clean in AWGN;
// derived from the E1/E3 waterfalls, with ~3 dB margin.
constexpr double kThresholds[8] = {5, 8, 10, 13, 17, 21, 22, 24};

unsigned pick_mcs(double snr_db) {
  unsigned best = 8;
  for (unsigned i = 0; i < 8; ++i) {
    if (snr_db >= kThresholds[i]) best = 8 + i;
  }
  return best;
}

struct Tally {
  double delivered_bits = 0.0;
  double airtime_us = 0.0;
  std::size_t retransmissions = 0;
  [[nodiscard]] double goodput() const {
    return airtime_us > 0 ? delivered_bits / airtime_us : 0.0;
  }
};

// Deliver one packet *reliably* at `mcs` over a channel at `snr`: losses
// are retransmitted (up to a cap), so picking too fast an MCS costs air
// time instead of silently dropping data. Returns the attempts used.
unsigned send_reliably(unsigned mcs, double snr, std::uint64_t seed, Tally& tally,
                       double* est_snr_out) {
  constexpr unsigned kMaxTries = 10;
  for (unsigned attempt = 1; attempt <= kMaxTries; ++attempt) {
    core::LinkSimulator sim(core::LinkConfig::make()
                                .mcs(mcs)
                                .snr_db(snr)
                                .payload_bytes(1200)
                                .seed(seed * 16 + attempt));
    bool got = false;
    const auto on_packet = [&](const core::PacketOutcome& o) {
      if (!o.detected) return;
      got = true;
      if (est_snr_out != nullptr) *est_snr_out = o.rx.snr.snr_db;
    };
    const auto res = sim.run(core::RunOptions{.n_packets = 1}, on_packet);
    tally.airtime_us += res.throughput.airtime_us();
    if (res.per.failures() == 0 && got) {
      tally.delivered_bits += 1200 * 8;
      return attempt;
    }
    ++tally.retransmissions;
  }
  return kMaxTries;
}

}  // namespace

int main() {
  // The channel quality drifts sinusoidally between ~8 and ~28 dB.
  std::vector<double> snr_trace;
  for (int t = 0; t < 60; ++t) {
    snr_trace.push_back(18.0 + 10.0 * std::sin(0.15 * t));
  }

  Tally adaptive;
  Tally fixed_slow;   // MCS 8 all the time
  Tally fixed_fast;   // MCS 15 all the time

  double last_est_snr = 15.0;  // controller state: previous packet's estimate
  std::printf("%4s %8s %9s %9s\n", "t", "true dB", "MCS pick", "tries");
  for (std::size_t t = 0; t < snr_trace.size(); ++t) {
    const double snr = snr_trace[t];
    const unsigned mcs = pick_mcs(last_est_snr);
    double est = last_est_snr;
    const unsigned tries = send_reliably(mcs, snr, 1000 + t, adaptive, &est);
    last_est_snr = est;
    if (t % 6 == 0) {
      std::printf("%4zu %8.1f %9u %9u\n", t, snr, mcs, tries);
    }
    (void)send_reliably(8, snr, 2000 + t, fixed_slow, nullptr);
    (void)send_reliably(15, snr, 3000 + t, fixed_fast, nullptr);
  }

  std::printf("\n%-24s %12s %8s\n", "strategy", "rel. goodput", "retx");
  std::printf("%-24s %7.1f Mb/s %8zu\n", "adaptive (SNR-driven)",
              adaptive.goodput(), adaptive.retransmissions);
  std::printf("%-24s %7.1f Mb/s %8zu\n", "fixed MCS 8 (13 Mb/s)",
              fixed_slow.goodput(), fixed_slow.retransmissions);
  std::printf("%-24s %7.1f Mb/s %8zu\n", "fixed MCS 15 (130 Mb/s)",
              fixed_fast.goodput(), fixed_fast.retransmissions);
  std::printf("\nreliable-delivery goodput: adaptive beats both — fixed-slow\n"
              "wastes air time at high SNR, fixed-fast burns retries in the\n"
              "troughs.\n");
  return 0;
}
