// E20 — front-end scan throughput: can the always-on packet scan keep up
// with a live 20 Msps air interface on one core?
//
// Three figures per case, all in Msamp/s of capture time (one "sample" is
// one multi-antenna sample instant, the unit an air interface produces):
//   coarse   — the decimated two-pass coarse sweep (PacketDetector::
//              scan_coarse, stride 8), the stage that runs on every sample;
//   full     — the full-rate sliding-correlation kernel (per-antenna
//              lag_autocorrelate_into over the whole capture), the
//              exhaustive-scan baseline the coarse pass gates;
//   e2e      — StreamReceiver::scan end to end (detect + sync + decode),
//              exhaustive vs two-pass.
// Three cases fill the air densely (600-sample gaps); the fourth puts the
// frames on 5% of the air time, where the idle gaps two-pass skips
// dominate the scan.
// The two-pass end-to-end scan must deliver records identical to the
// exhaustive scan on every case — this bench re-checks that on its own
// captures, so the throughput figures can never drift away from the
// equivalence contract they assume.
//
// The acceptance bar (ISSUE 7): coarse >= 20 Msamp/s for the 2x2 clean
// capture. The process exits nonzero if the bar or the record-equivalence
// check fails. MIMONET_BENCH_PACKETS shrinks the captures for smoke runs.
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
#include "dsp/correlator.hpp"
#include "sync/packet_detector.hpp"
#include "wifi/psdu.hpp"

using namespace mimonet;
using dsp::cf32;

namespace {

constexpr std::size_t kPayloadBytes = 700;
constexpr std::size_t kGapLen = 600;
constexpr std::size_t kDecimation = 8;

struct Stream {
  core::PhyConfig phy;
  std::vector<std::vector<cf32>> capture;
  std::size_t n_packets = 0;
};

/// Same capture shape as E18: `n_packets` PPDUs with idle gaps, clean flat
/// channel; when `faulted`, a CW interferer burst in every other gap. The
/// gaps are kGapLen samples, or with `air_pct` > 0 long enough that the
/// frames fill that percentage of the capture.
Stream make_stream(unsigned mcs, std::size_t n_packets, bool faulted,
                   std::size_t air_pct) {
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
  const std::size_t gap =
      air_pct == 0 ? kGapLen : streams[0].size() * (100 - air_pct) / air_pct;

  channel::FaultPlan plan;
  std::vector<std::vector<cf32>> concat(nss);
  for (std::size_t p = 0; p < n_packets; ++p) {
    if (faulted && p + 1 < n_packets && p % 2 == 0) {
      plan.tone_burst(kPad + concat[0].size() + streams[0].size() + 150, 240,
                      3.0, 0.07);
    }
    for (std::size_t c = 0; c < nss; ++c) {
      concat[c].insert(concat[c].end(), streams[c].begin(), streams[c].end());
      if (p + 1 < n_packets) concat[c].resize(concat[c].size() + gap);
    }
  }

  channel::ChannelConfig ccfg;
  ccfg.ntx = nss;
  ccfg.nrx = nss;
  ccfg.snr_db = 30.0;
  ccfg.timing_pad = kPad;
  ccfg.tail_pad = 100;
  ccfg.seed = 0xE20;
  ccfg.faults = plan;
  channel::MimoChannel chan(ccfg);
  s.capture = chan.transmit(concat);
  return s;
}

/// Time `fn` repeatedly until at least ~0.2 s has elapsed (after one warm
/// call); returns wall seconds per call.
template <typename Fn>
double time_per_call(Fn&& fn) {
  fn();  // warm: scratch capacity, caches, dispatch
  std::size_t calls = 1;
  for (;;) {
    const auto t0 = std::chrono::steady_clock::now();
    for (std::size_t i = 0; i < calls; ++i) fn();
    const double secs =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    if (secs >= 0.2 || calls >= 1U << 14) {
      return secs / static_cast<double>(calls);
    }
    calls *= 4;
  }
}

struct ScanFigures {
  double coarse_msps = 0.0;
  double full_msps = 0.0;
  double full_scalar_msps = 0.0;  ///< kernel forced onto the scalar path
  double e2e_exhaustive_msps = 0.0;
  double e2e_twopass_msps = 0.0;
  std::size_t delivered = 0;
  bool records_identical = false;
};

/// End-to-end record signature for the equivalence check.
struct RecordSig {
  std::size_t offset;
  metrics::RxError error;
  bool fcs_ok;
  std::vector<std::uint8_t> psdu;
  bool operator==(const RecordSig&) const = default;
};

ScanFigures run_case(const Stream& s) {
  ScanFigures f;
  const std::size_t nrx = s.capture.size();
  const std::size_t len = s.capture[0].size();
  const double mega = 1e6;
  std::vector<std::span<const cf32>> spans(s.capture.begin(), s.capture.end());
  const std::span<const std::span<const cf32>> sspan(spans.data(), nrx);

  // Coarse pass (the always-on stage of the two-pass scan).
  {
    sync::ScanMode scan;
    scan.decimation = kDecimation;
    const sync::PacketDetector det(sync::DetectorConfig{}, scan);
    sync::DetectScratch scratch;
    std::vector<sync::CoarseRegion> regions;
    const double secs = time_per_call([&] {
      regions.clear();
      (void)det.scan_coarse(sspan, scratch, regions);
    });
    f.coarse_msps = static_cast<double>(len) / secs / mega;
  }

  // Full-rate correlation kernel (exhaustive-scan baseline), AVX2-dispatch
  // and forced-scalar — the SIMD speedup is the difference.
  {
    std::vector<dsp::AutocorrResult> res(nrx);
    const auto sweep = [&] {
      for (std::size_t a = 0; a < nrx; ++a) {
        dsp::lag_autocorrelate_into(spans[a], 16, 48, res[a]);
      }
    };
    f.full_msps = static_cast<double>(len) / time_per_call(sweep) / mega;
    dsp::detail::force_scalar_autocorr(true);
    f.full_scalar_msps = static_cast<double>(len) / time_per_call(sweep) / mega;
    dsp::detail::force_scalar_autocorr(false);
  }

  // End to end: exhaustive vs two-pass StreamReceiver scans, with the
  // record-equivalence check folded in.
  std::vector<RecordSig> ref_recs;
  std::vector<RecordSig> tp_recs;
  for (const bool twopass : {false, true}) {
    auto scfg = core::StreamReceiverConfig::make();
    if (twopass) scfg.scan_decimation(kDecimation);
    const core::StreamReceiver srx(s.phy, nrx, scfg.build());
    core::RxWorkspace ws;
    auto& recs = twopass ? tp_recs : ref_recs;
    core::StreamStats warm_stats;
    const double secs = time_per_call([&] {
      recs.clear();
      srx.scan(sspan, ws, warm_stats, [&recs](const core::StreamEvent& ev) {
        RecordSig r;
        r.offset = ev.offset;
        r.error = ev.error;
        r.fcs_ok = ev.packet != nullptr && ev.packet->fcs_ok;
        if (ev.packet != nullptr) r.psdu = ev.packet->psdu;
        recs.push_back(std::move(r));
      });
    });
    const double msps = static_cast<double>(len) / secs / mega;
    (twopass ? f.e2e_twopass_msps : f.e2e_exhaustive_msps) = msps;
  }
  f.records_identical = ref_recs == tp_recs;
  for (const auto& r : ref_recs) f.delivered += r.fcs_ok;
  return f;
}

struct Case {
  const char* name;
  unsigned mcs;
  bool faulted;
  std::size_t air_pct = 0;  ///< 0: kGapLen gaps
};

}  // namespace

int main() {
  bench::heading("E20", "Front-end scan throughput (Msamp/s per stage)");

  std::size_t n_packets = 32;
  if (const char* env = std::getenv("MIMONET_BENCH_PACKETS")) {
    const long v = std::strtol(env, nullptr, 10);
    if (v > 0) n_packets = static_cast<std::size_t>(v);
  }
  bench::note("%zu packets per capture, %zu-byte payload, %zu-sample gaps, "
              "coarse decimation %zu, AVX2 kernel %s",
              n_packets, kPayloadBytes, kGapLen, kDecimation,
              dsp::detail::autocorr_simd_active() ? "active" : "unavailable");

  const std::vector<Case> cases{
      {"1x1_mcs7_clean", 7, false},
      {"1x1_mcs7_faulted_gaps", 7, true},
      {"2x2_mcs15_clean", 15, false},
      {"2x2_mcs15_5pct_air", 15, false, 5},
  };

  const bench::Table table({"case", "coarse", "full", "full-sc", "e2e-exh",
                            "e2e-2pass", "identical"},
                           12);

  bench::JsonReport report("stream");
  bench::JsonReport scan("e20_scan");
  scan.field("packets_per_capture", n_packets);
  scan.field("decimation", kDecimation);
  scan.field("simd_active", dsp::detail::autocorr_simd_active());

  std::string cases_json = "[";
  bool all_identical = true;
  double coarse_2x2_clean = 0.0;
  for (std::size_t i = 0; i < cases.size(); ++i) {
    const auto& c = cases[i];
    const Stream s = make_stream(c.mcs, n_packets, c.faulted, c.air_pct);
    const ScanFigures f = run_case(s);
    all_identical = all_identical && f.records_identical;
    if (std::string(c.name) == "2x2_mcs15_clean") coarse_2x2_clean = f.coarse_msps;
    table.row({c.name, bench::fix(f.coarse_msps, 1), bench::fix(f.full_msps, 1),
               bench::fix(f.full_scalar_msps, 1),
               bench::fix(f.e2e_exhaustive_msps, 2),
               bench::fix(f.e2e_twopass_msps, 2),
               f.records_identical ? "yes" : "NO"});

    bench::JsonReport cj(c.name);
    cj.field("mcs", c.mcs);
    cj.field("faulted_gaps", c.faulted);
    if (c.air_pct != 0) cj.field("air_pct", c.air_pct);
    cj.field("coarse_msamp_s", f.coarse_msps);
    cj.field("full_kernel_msamp_s", f.full_msps);
    cj.field("full_kernel_scalar_msamp_s", f.full_scalar_msps);
    cj.field("e2e_exhaustive_msamp_s", f.e2e_exhaustive_msps);
    cj.field("e2e_twopass_msamp_s", f.e2e_twopass_msps);
    cj.field("delivered", f.delivered);
    cj.field("records_identical", f.records_identical);
    if (i != 0) cases_json += ", ";
    cases_json += cj.to_json();
  }
  cases_json += "]";
  scan.raw("cases", cases_json);

  const bool meets_bar = coarse_2x2_clean >= 20.0;
  scan.field("coarse_2x2_clean_msamp_s", coarse_2x2_clean);
  scan.field("meets_20msps_bar", meets_bar);
  report.raw("scan", scan.to_json());
  report.emit_merged();  // preserve E18/E19 tables in BENCH_stream.json

  if (!all_identical) {
    std::fprintf(stderr,
                 "E20: two-pass records diverged from the exhaustive scan\n");
    return 1;
  }
  if (!meets_bar) {
    std::fprintf(stderr,
                 "E20: coarse pass %.1f Msamp/s below the 20 Msamp/s bar\n",
                 coarse_2x2_clean);
    return 1;
  }
  return 0;
}
