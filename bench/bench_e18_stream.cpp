// E18 — streaming receive path: packets/sec over long multi-packet captures.
//
// Times core::StreamReceiver scanning a capture of many back-to-back PPDUs
// (idle gaps between them), clean and with a FaultPlan interferer burst in
// every other gap, so the figure covers both the steady-state decode rate
// and the resync overhead the fault campaign exercises. Single scan thread;
// the workspace is reused across passes so the loop runs allocation-free.
//
// A length sweep scans the clean 1x1 MCS 7 stream at N, 4N and 16N packets
// and reports flatness = Msamp/s at N / Msamp/s at 16N (best of the timed
// passes each). A scan whose work is linear in capture length keeps it near
// 1; the bench exits nonzero above kMaxFlatness (within 20% of flat).
//
// MIMONET_BENCH_PACKETS overrides N, the per-capture packet count (default
// 32; check.sh's scan-smoke step uses a small value).
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "channel/fault_plan.hpp"
#include "channel/mimo_channel.hpp"
#include "core/stream_receiver.hpp"
#include "core/transmitter.hpp"
#include "core/workspace.hpp"
#include "wifi/psdu.hpp"

using namespace mimonet;
using dsp::cf32;

namespace {

constexpr std::size_t kPayloadBytes = 700;
constexpr std::size_t kGapLen = 600;
constexpr double kMaxFlatness = 1.25;

struct Stream {
  core::PhyConfig phy;
  std::vector<std::vector<cf32>> capture;
  std::size_t n_packets = 0;
};

/// `n_packets` PPDUs with idle gaps through a clean flat channel; when
/// `faulted`, a CW interferer burst lands in every other gap.
Stream make_stream(unsigned mcs, std::size_t n_packets, bool faulted) {
  Stream s;
  s.phy.mcs = mcs;
  s.n_packets = n_packets;
  const core::Transmitter tx(s.phy);
  const std::size_t nss = tx.num_streams();
  constexpr std::size_t kPad = 200;

  std::vector<std::uint8_t> payload(kPayloadBytes);
  for (std::size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<std::uint8_t>(i * 31 + 7);
  }
  const auto psdu = wifi::build_psdu(wifi::MacHeader{}, payload);
  const auto streams = tx.transmit(psdu);

  channel::FaultPlan plan;
  std::vector<std::vector<cf32>> concat(nss);
  for (std::size_t p = 0; p < n_packets; ++p) {
    if (faulted && p + 1 < n_packets && p % 2 == 0) {
      // A CW tone autocorrelates like an STF plateau, so each burst costs
      // the scanner rejected candidates before it resyncs onto the next
      // packet — the interesting overhead to measure.
      plan.tone_burst(kPad + concat[0].size() + streams[0].size() + 150, 240,
                      3.0, 0.07);
    }
    for (std::size_t c = 0; c < nss; ++c) {
      concat[c].insert(concat[c].end(), streams[c].begin(), streams[c].end());
      if (p + 1 < n_packets) concat[c].resize(concat[c].size() + kGapLen);
    }
  }

  channel::ChannelConfig ccfg;
  ccfg.ntx = nss;
  ccfg.nrx = nss;
  ccfg.snr_db = 30.0;
  ccfg.timing_pad = kPad;
  ccfg.tail_pad = 100;
  ccfg.seed = 0xE18;
  ccfg.faults = plan;
  channel::MimoChannel chan(ccfg);
  s.capture = chan.transmit(concat);
  return s;
}

struct Measurement {
  double packets_per_sec = 0.0;
  double samples_per_sec = 0.0;
  std::size_t delivered = 0;
  std::size_t resync_events = 0;
};

Measurement run_case(const Stream& s, std::size_t passes) {
  const core::StreamReceiver srx(s.phy, s.capture.size());
  core::RxWorkspace ws;
  std::vector<std::span<const cf32>> spans(s.capture.begin(), s.capture.end());

  // Warm pass: allocator pools, FFT plans, branch predictors.
  core::StreamStats warm;
  srx.scan(spans, ws, warm, [](const core::StreamEvent&) {});

  core::StreamStats stats;
  const auto t0 = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < passes; ++i) {
    srx.scan(spans, ws, stats, [](const core::StreamEvent&) {});
  }
  const auto t1 = std::chrono::steady_clock::now();
  const double secs = std::chrono::duration<double>(t1 - t0).count();

  Measurement m;
  m.delivered = stats.delivered / passes;
  m.resync_events = stats.resync_events / passes;
  m.packets_per_sec = static_cast<double>(stats.delivered) / secs;
  m.samples_per_sec = static_cast<double>(stats.samples_scanned) / secs;
  return m;
}

/// Best single-pass scan rate of `s` in Msamp/s over `passes` timed passes
/// (after a warm pass); `delivered` is the warm pass's delivered count.
double best_msamp_s(const Stream& s, std::size_t passes, std::size_t& delivered) {
  const core::StreamReceiver srx(s.phy, s.capture.size());
  core::RxWorkspace ws;
  std::vector<std::span<const cf32>> spans(s.capture.begin(), s.capture.end());
  core::StreamStats warm;
  srx.scan(spans, ws, warm, [](const core::StreamEvent&) {});
  delivered = warm.delivered;

  double best = 0.0;
  for (std::size_t i = 0; i < passes; ++i) {
    core::StreamStats stats;
    const auto t0 = std::chrono::steady_clock::now();
    srx.scan(spans, ws, stats, [](const core::StreamEvent&) {});
    const double secs =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
    best = std::max(best, static_cast<double>(stats.samples_scanned) / secs / 1e6);
  }
  return best;
}

struct Case {
  const char* name;
  unsigned mcs;
  bool faulted;
};

}  // namespace

int main() {
  bench::heading("E18", "Streaming receive path: scan packets/sec");

  std::size_t n_packets = 32;
  if (const char* env = std::getenv("MIMONET_BENCH_PACKETS")) {
    const long v = std::strtol(env, nullptr, 10);
    if (v > 0) n_packets = static_cast<std::size_t>(v);
  }
  constexpr std::size_t kPasses = 3;
  bench::note("%zu packets per capture, %zu-byte payload, %zu-sample gaps, "
              "30 dB AWGN, %zu timed scan passes",
              n_packets, kPayloadBytes, kGapLen, kPasses);

  const std::vector<Case> cases{
      {"1x1_mcs7_clean", 7, false},
      {"1x1_mcs7_faulted_gaps", 7, true},
      {"2x2_mcs15_clean", 15, false},
  };

  const bench::Table table(
      {"case", "pkt/s", "Msamp/s", "delivered", "resyncs"}, 22);

  bench::JsonReport report("stream");
  report.field("packets_per_capture", n_packets);
  report.field("payload_bytes", kPayloadBytes);
  report.field("gap_samples", kGapLen);
  report.field("snr_db", 30.0);
  report.field("scan_passes", kPasses);

  std::string cases_json = "[";
  bool all_delivered = true;
  for (std::size_t i = 0; i < cases.size(); ++i) {
    const auto& c = cases[i];
    const Stream s = make_stream(c.mcs, n_packets, c.faulted);
    const auto m = run_case(s, kPasses);
    // Gap faults must not cost packets: the scanner resyncs past them.
    all_delivered = all_delivered && (m.delivered == s.n_packets);
    table.row({c.name, bench::fix(m.packets_per_sec, 1),
               bench::fix(m.samples_per_sec / 1e6, 3),
               std::to_string(m.delivered) + "/" + std::to_string(s.n_packets),
               std::to_string(m.resync_events)});

    bench::JsonReport cj(c.name);
    cj.field("mcs", c.mcs);
    cj.field("faulted_gaps", c.faulted);
    cj.field("packets_per_sec", m.packets_per_sec);
    cj.field("samples_per_sec", m.samples_per_sec);
    cj.field("delivered_per_pass", m.delivered);
    cj.field("resync_events_per_pass", m.resync_events);
    if (i != 0) cases_json += ", ";
    cases_json += cj.to_json();
  }
  cases_json += "]";
  report.raw("cases", cases_json);

  // Length sweep: the same clean stream at N, 4N and 16N packets.
  std::printf("\n");
  const bench::Table sweep_table({"packets", "samples", "Msamp/s", "delivered"}, 14);
  std::string sweep_json = "[";
  double rate_n = 0.0;
  double rate_16n = 0.0;
  for (const std::size_t mult : {1, 4, 16}) {
    const std::size_t n = mult * n_packets;
    const Stream s = make_stream(7, n, false);
    std::size_t delivered = 0;
    const double rate = best_msamp_s(s, kPasses, delivered);
    all_delivered = all_delivered && delivered == n;
    if (mult == 1) rate_n = rate;
    rate_16n = rate;
    sweep_table.row({std::to_string(n), std::to_string(s.capture[0].size()),
                     bench::fix(rate, 3),
                     std::to_string(delivered) + "/" + std::to_string(n)});
    if (mult != 1) sweep_json += ", ";
    sweep_json += "{\"packets\": " + std::to_string(n) +
                  ", \"samples\": " + std::to_string(s.capture[0].size()) +
                  ", \"msamp_s\": " + bench::fix(rate, 4) + "}";
  }
  sweep_json += "]";
  const double flatness = rate_n / rate_16n;
  const bool flat = flatness <= kMaxFlatness;
  bench::note("flatness (Msamp/s at %zu / at %zu packets) = %.3f, gate %.2f: %s",
              n_packets, 16 * n_packets, flatness, kMaxFlatness,
              flat ? "ok" : "FAILED");

  report.raw("length_sweep", sweep_json);
  report.field("flatness", flatness);
  report.field("max_flatness", kMaxFlatness);
  report.field("all_packets_delivered", all_delivered);
  report.emit_merged();  // preserve E19's "farm" table if already present
  return all_delivered && flat ? 0 : 1;
}
