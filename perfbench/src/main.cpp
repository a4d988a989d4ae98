// perfbench: the MIMONet repository benchmark.
//
//   perfbench --workload <stream_long|burst_rx|montecarlo> --seed <n>
//             --seconds <s> --trace <0|1> [--tiny] [--trace-out <file.csv>]
//
// --trace 0 measures the end-to-end metrics for --seconds; --trace 1 runs
// the fixed-work traced pass that yields the per-layer metrics. Either way
// the last stdout line is one JSON object {correct, attempted, failed,
// metrics}; lines before it start with '#'. A failed correctness gate makes
// the exit code non-zero. perfbench/README.md documents every metric.
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <chrono>
#include <cstdio>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "alloc_hook.hpp"
#include "core/link_simulator.hpp"
#include "core/receive_session.hpp"
#include "core/workspace.hpp"
#include "dsp/correlator.hpp"
#include "dsp/fft.hpp"
#include "mod/constellation.hpp"
#include "replay.hpp"
#include "trace.hpp"
#include "wifi/interleaver.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

namespace core = mimonet::core;
using mimonet::metrics::RxError;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank percentile, q in (0, 1].
double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(v.size())));
  return v[std::min(v.size(), std::max<std::size_t>(rank, 1)) - 1];
}

// The host shares its cores with other tenants, whose bursts of load slow
// whole stretches of a run by 15-25%. A median moves as soon as half of a
// run's passes are slowed, so a run reports the upper quartile of its pass
// rates and the lower quartile of its times: the passes the neighbours left
// alone, which follow the program.
double fast_rate(const std::vector<double>& rates) { return percentile(rates, 0.75); }
double fast_time(const std::vector<double>& times) { return percentile(times, 0.25); }

/// Each item's fast_time latency over the passes that received it. `lat`
/// holds whole passes over `items` items, in item order.
std::vector<double> item_fast_times(const std::vector<double>& lat, std::size_t items) {
  std::vector<double> out(items);
  std::vector<double> per_item;
  for (std::size_t i = 0; i < items; ++i) {
    per_item.clear();
    for (std::size_t k = i; k < lat.size(); k += items) per_item.push_back(lat[k]);
    out[i] = fast_time(per_item);
  }
  return out;
}

std::size_t nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) == 0) {
    const int n = CPU_COUNT(&set);
    if (n > 0) return static_cast<std::size_t>(n);
  }
  return std::max(1U, std::thread::hardware_concurrency());
}

/// Worker threads for LinkSimulator::run. Its calling thread merges every
/// packet in order while the workers run in lockstep, so nproc - 1 workers
/// keep the process at nproc threads; with nproc workers, one preempted
/// thread stalls the whole pool.
std::size_t mc_threads(std::size_t n_cpu) { return std::max<std::size_t>(1, n_cpu - 1); }

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::uint64_t fnv1a(std::span<const std::uint8_t> bytes) {
  std::uint64_t h = 0xCBF29CE484222325ULL;
  for (const std::uint8_t b : bytes) {
    h ^= b;
    h *= 0x100000001B3ULL;
  }
  return h;
}

std::string num(double v) {
  char buf[64];
  const auto r = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, r.ptr);
}

// ---- results --------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::string note;  ///< sample count or base, printed on the '#' line
};

struct Result {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<std::string> gate_failures;
  std::vector<Metric> metrics;

  void gate(bool ok, const std::string& what) {
    if (!ok) gate_failures.push_back(what);
  }
  void add(std::string name, double value, std::string unit, std::string note = "") {
    metrics.push_back({std::move(name), value, std::move(unit), std::move(note)});
  }
  [[nodiscard]] bool correct() const { return gate_failures.empty() && failed == 0; }

  void print() const {
    for (const auto& g : gate_failures) std::printf("# GATE FAILED: %s\n", g.c_str());
    for (const auto& m : metrics) {
      std::printf("# %-28s %14.6g %-8s %s\n", m.name.c_str(), m.value, m.unit.c_str(),
                  m.note.c_str());
    }
    std::string json = "{\"correct\": ";
    json += correct() ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(attempted);
    json += ", \"failed\": " + std::to_string(failed);
    json += ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
      if (i != 0) json += ", ";
      json += "\"" + metrics[i].name + "\": {\"value\": " + num(metrics[i].value) +
              ", \"unit\": \"" + metrics[i].unit + "\"}";
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
  }
};

void print_host(std::size_t n_cpu) {
#if defined(__clang__)
  const char* compiler = "clang " __clang_version__;
#elif defined(__GNUC__)
  const char* compiler = "gcc " __VERSION__;
#else
  const char* compiler = "unknown";
#endif
  std::printf(
      "# host {\"nproc\": %zu, \"fft_avx2\": %s, \"demap_simd\": %s, "
      "\"deinterleave_simd\": %s, \"autocorr_simd\": %s, \"compiler\": \"%s\", "
      "\"build_type\": \"%s\"}\n",
      n_cpu, mimonet::dsp::fft_kernel_is_avx2() ? "true" : "false",
      mimonet::mod::detail::demap_simd_active() ? "true" : "false",
      mimonet::wifi::detail::deinterleave_simd_active() ? "true" : "false",
      mimonet::dsp::detail::autocorr_simd_active() ? "true" : "false", compiler,
      PERFBENCH_BUILD_TYPE);
}

// ---- engines --------------------------------------------------------------

/// Everything the timed loops call into, built once per run.
struct Engines {
  Engines(const Workload& w, std::size_t n_cpu)
      : one(w.phy, kNrx, core::ReceiveSessionConfig::make().workers(1)),
        sharded(w.phy, kNrx, core::ReceiveSessionConfig::make().workers(n_cpu)),
        sim(w.link) {}
  core::ReceiveSession one;      ///< receive_one and the 1-worker scan
  core::ReceiveSession sharded;  ///< nproc-worker sharded scan
  core::LinkSimulator sim;
};

/// Build the engines and run the first receive through each receive path
/// (the farm's worker pool starts on its first scan).
std::unique_ptr<Engines> set_up(const Workload& w, std::size_t n_cpu) {
  auto e = std::make_unique<Engines>(w, n_cpu);
  const RxItem& first = w.rx[w.warm_item];
  (void)e->one.receive_one(std::span<const std::span<const cf32>>(first.input));
  e->sharded.scan(std::span<const std::span<const cf32>>(first.window),
                  [](const core::StreamEvent&) {});
  return e;
}

// ---- scan -------------------------------------------------------------------

/// One scan event, reduced to what must agree between scan modes.
struct Rec {
  std::size_t offset = 0;
  RxError error = RxError::kOk;
  bool fcs_ok = false;
  std::uint64_t psdu_hash = 0;
  std::size_t packet_start = 0;
  double cfo_norm = 0.0;
  bool operator==(const Rec&) const = default;
};

struct ScanLog {
  std::vector<Rec> recs;
  std::vector<std::int64_t> t_ns;  ///< callback time of each event
};

/// Scan `cap` once; returns seconds. When `log` is set, every event is
/// recorded from the callback, microseconds per event against milliseconds
/// of scan work per event.
double scan_once(core::ReceiveSession& s, const View& cap, ScanLog* log) {
  const auto t0 = Clock::now();
  s.scan(std::span<const std::span<const cf32>>(cap), [log](const core::StreamEvent& ev) {
    if (log == nullptr) return;
    Rec r;
    r.offset = ev.offset;
    r.error = ev.error;
    if (ev.packet != nullptr) {
      r.fcs_ok = ev.packet->fcs_ok;
      r.psdu_hash = fnv1a(ev.packet->psdu);
      r.packet_start = ev.packet->sync.packet_start;
      r.cfo_norm = ev.packet->sync.cfo_norm;
    }
    log->recs.push_back(r);
    log->t_ns.push_back(Tracer::now_ns());
  });
  return seconds_since(t0);
}

/// Frames of the scan capture delivered with the PSDU that was sent; a
/// delivered record that matches no sent frame counts as a wrong output.
std::size_t count_delivered(const Workload& w, const ScanLog& log, std::size_t& wrong) {
  std::size_t delivered = 0;
  for (const Rec& r : log.recs) {
    if (!r.fcs_ok) continue;
    const auto it = std::lower_bound(w.stream_starts.begin(), w.stream_starts.end(),
                                     r.offset > 80 ? r.offset - 80 : 0);
    const bool match = it != w.stream_starts.end() && *it <= r.offset + 80 &&
                       fnv1a(w.frames[w.stream_frames[static_cast<std::size_t>(
                                 it - w.stream_starts.begin())]]
                                 .psdu) == r.psdu_hash;
    if (match) {
      ++delivered;
    } else {
      ++wrong;
    }
  }
  return delivered;
}

View stream_view(const Workload& w, std::size_t len) {
  View v;
  for (std::size_t a = 0; a < kNrx; ++a) v[a] = std::span<const cf32>(w.stream[a]).first(len);
  return v;
}

// ---- receive_one ------------------------------------------------------------

struct RxPass {
  double seconds = 0.0;
  std::size_t ok = 0;
};

/// receive_one over every item; appends per-call latencies (us).
RxPass rx_once(core::ReceiveSession& s, const Workload& w, std::vector<double>* lat_us,
               std::size_t& wrong) {
  RxPass pass;
  const auto t0 = Clock::now();
  for (const RxItem& item : w.rx) {
    const auto c0 = Clock::now();
    (void)s.receive_one(std::span<const std::span<const cf32>>(item.input));
    const auto c1 = Clock::now();
    if (lat_us != nullptr) {
      lat_us->push_back(std::chrono::duration<double, std::micro>(c1 - c0).count());
    }
    const core::RxPacket& pkt = s.packet();
    if (pkt.fcs_ok) {
      if (pkt.psdu == w.frames[item.frame].psdu) {
        ++pass.ok;
      } else {
        ++wrong;
      }
    }
  }
  pass.seconds = seconds_since(t0);
  return pass;
}

// ---- Monte Carlo ------------------------------------------------------------

/// The LinkResult counters that must not depend on the thread count.
std::vector<std::size_t> counters(const core::LinkResult& r) {
  std::vector<std::size_t> c{r.per.packets(), r.per.failures(), r.ber.bits(),
                             r.ber.errors(), r.undetected};
  for (std::size_t e = 0; e < mimonet::metrics::kRxErrorCount; ++e) {
    c.push_back(r.rx_errors.count(static_cast<RxError>(e)));
  }
  return c;
}

core::LinkResult mc_once(core::LinkSimulator& sim, std::size_t n, std::size_t threads,
                         double& seconds) {
  const auto t0 = Clock::now();
  auto res = sim.run(core::RunOptions::make().n_packets(n).n_threads(threads));
  seconds = seconds_since(t0);
  return res;
}

// ---- the untraced run ---------------------------------------------------------

Result run_untraced(const Workload& w, double budget_s, std::size_t n_cpu) {
  Result out;
  // Set-up is timed once for the engines the run uses and then again after
  // every pass, on throwaway engines, so its median covers the whole run.
  std::vector<double> setup_s;
  const auto time_set_up = [&] {
    const auto t0 = Clock::now();
    auto e = set_up(w, n_cpu);
    setup_s.push_back(seconds_since(t0));
    return e;
  };
  const std::unique_ptr<Engines> eng = time_set_up();

  const View cap = stream_view(w, w.stream[0].size());
  const double msamp = static_cast<double>(cap[0].size()) / 1e6;
  std::vector<double> scan1, scan_n, rx_rate, lat_us, mc_rate;
  std::size_t delivered = 0, rx_ok = 0;
  double mc_per = 0.0;
  std::vector<std::size_t> mc_ref;
  std::vector<Rec> scan_ref;

  // Phases: 1-worker scan, sharded scan, receive_one, Monte Carlo. Each
  // step runs one pass of the phase furthest below its share of the time,
  // so the phases interleave and see the same machine. The 1-worker scan
  // goes first; its records are the reference every later scan must match.
  constexpr int kPhases = 4;
  const double share[kPhases] = {w.shares.scan, w.shares.scan_sharded, w.shares.rx,
                                 w.shares.mc};
  double spent[kPhases] = {};
  bool first[kPhases] = {true, true, true, true};
  const auto pending = [&] { return std::find(first, first + kPhases, true) != first + kPhases; };
  const auto t_start = Clock::now();
  while (pending() || seconds_since(t_start) < budget_s) {
    int k = 0;
    for (int i = 1; i < kPhases; ++i) {
      if (spent[i] / share[i] < spent[k] / share[k]) k = i;
    }
    const auto p0 = Clock::now();
    if (k <= 1) {
      ScanLog log;
      const double t = scan_once(k == 0 ? eng->one : eng->sharded, cap, &log);
      (k == 0 ? scan1 : scan_n).push_back(msamp / t);
      out.attempted += w.stream_frames.size();
      if (first[0]) {
        delivered = count_delivered(w, log, out.failed);
        scan_ref = log.recs;
      } else {
        out.gate(log.recs == scan_ref, k == 0 ? "scan: records differ between passes"
                                              : "scan: sharded records differ from 1-worker");
      }
    } else if (k == 2) {
      const RxPass pass = rx_once(eng->one, w, &lat_us, out.failed);
      rx_rate.push_back(static_cast<double>(w.rx.size()) / pass.seconds);
      out.attempted += w.rx.size();
      if (first[2]) rx_ok = pass.ok;
      out.gate(pass.ok == rx_ok, "receive_one: outcome differs between passes");
    } else {
      double secs = 0.0;
      const auto res = mc_once(eng->sim, w.mc_packets, mc_threads(n_cpu), secs);
      mc_rate.push_back(static_cast<double>(w.mc_packets) / secs);
      out.attempted += w.mc_packets;
      if (first[3]) {
        mc_ref = counters(res);
        mc_per = res.per.per();
      }
      out.gate(counters(res) == mc_ref, "montecarlo: LinkResult differs between passes");
    }
    first[k] = false;
    spent[k] += seconds_since(p0);
    (void)time_set_up();
  }

  const std::size_t n_frames = w.stream_frames.size();
  if (w.stream_must_deliver_all) {
    out.gate(delivered == n_frames, "scan: delivered " + std::to_string(delivered) +
                                        " of " + std::to_string(n_frames) + " frames");
  }
  const auto n_str = [](std::size_t n, const char* what) {
    return "n=" + std::to_string(n) + " " + what;
  };
  const auto range = [](const std::vector<double>& v) {
    const auto [lo, hi] = std::minmax_element(v.begin(), v.end());
    return v.empty() ? std::string() : " [" + num(*lo) + ", " + num(*hi) + "]";
  };
  out.add("setup_s", median(setup_s), "s", n_str(setup_s.size(), "set-ups") + range(setup_s));
  out.add("rss_mb", peak_rss_mb(), "MB", "peak resident set");
  out.add("scan_msamp_s", fast_rate(scan1), "Msamp/s",
          n_str(scan1.size(), "passes") + range(scan1) + ", " + num(msamp) +
              " Msamp/antenna");
  out.add("scan_sharded_msamp_s", fast_rate(scan_n), "Msamp/s",
          n_str(scan_n.size(), "passes") + range(scan_n) +
              ", workers=" + std::to_string(n_cpu));
  out.add("scan_delivered_frac",
          static_cast<double>(delivered) / static_cast<double>(std::max<std::size_t>(n_frames, 1)),
          "ratio", std::to_string(delivered) + "/" + std::to_string(n_frames));
  out.add("rx_pkt_s", fast_rate(rx_rate), "pkt/s",
          n_str(rx_rate.size(), "passes") + range(rx_rate) + " of " +
              std::to_string(w.rx.size()));
  // Percentiles over the items of each item's fast latency across passes:
  // the spread that comes from the inputs, not from a passing hiccup of the
  // machine, which only some passes of an item see.
  const auto per_item = item_fast_times(lat_us, w.rx.size());
  const std::string lat_note = n_str(per_item.size(), "items") + " x " +
                               std::to_string(lat_us.size() / w.rx.size()) + " passes";
  out.add("rx_lat_p50_us", percentile(per_item, 0.50), "us", lat_note);
  out.add("rx_lat_p99_us", percentile(per_item, 0.99), "us", lat_note);
  out.add("rx_ok_frac",
          static_cast<double>(rx_ok) / static_cast<double>(std::max<std::size_t>(w.rx.size(), 1)),
          "ratio", std::to_string(rx_ok) + "/" + std::to_string(w.rx.size()));
  out.add("mc_pkt_s", fast_rate(mc_rate), "pkt/s",
          n_str(mc_rate.size(), "runs") + range(mc_rate) + " of " + std::to_string(w.mc_packets) +
              ", threads=" + std::to_string(mc_threads(n_cpu)));
  out.add("mc_per", mc_per, "ratio", std::to_string(w.mc_packets) + " packets");
  return out;
}

// ---- the traced run -----------------------------------------------------------

/// Median gap between consecutive scan events whose offsets fall in
/// [lo, hi), in us.
double event_gap_us(const ScanLog& log, std::int64_t t0, std::size_t lo, std::size_t hi) {
  std::vector<double> gaps;
  std::int64_t prev = t0;
  for (std::size_t i = 0; i < log.recs.size(); ++i) {
    if (log.recs[i].offset >= lo && log.recs[i].offset < hi) {
      gaps.push_back(static_cast<double>(log.t_ns[i] - prev) / 1e3);
    }
    prev = log.t_ns[i];
  }
  return median(gaps);
}

Result run_traced(const Workload& w, std::size_t n_cpu, const std::string& trace_out) {
  Result out;
  auto eng = set_up(w, n_cpu);
  const std::size_t len = w.stream[0].size();
  const View cap = stream_view(w, len);
  const double msamp = static_cast<double>(len) / 1e6;
  const std::string& primary = w.primary;
  std::size_t primary_allocs = 0, primary_pkts = 1;

  // ---- scan layer: candidates, event spacing, flatness, farm ----
  {
    (void)scan_once(eng->one, cap, nullptr);  // warm
    const std::int64_t t0 = Tracer::now_ns();
    ScanLog log1;
    const double t1 = scan_once(eng->one, cap, &log1);
    ScanLog logn;
    const double tn = scan_once(eng->sharded, cap, &logn);
    out.gate(log1.recs == logn.recs, "scan: sharded records differ from 1-worker");
    std::size_t wrong = 0;
    const std::size_t delivered = count_delivered(w, log1, wrong);
    out.failed += wrong;
    out.attempted += 2 * w.stream_frames.size();
    if (w.stream_must_deliver_all) {
      out.gate(delivered == w.stream_frames.size(), "scan: not every frame delivered");
    }
    const double t1b = scan_once(eng->one, cap, nullptr);
    const double tnb = scan_once(eng->sharded, cap, nullptr);
    const double whole = std::min(t1, t1b);
    const View eighth = stream_view(w, len / 8);
    double t8 = 1e30;
    for (int i = 0; i < 3; ++i) t8 = std::min(t8, scan_once(eng->one, eighth, nullptr));
    if (primary == "scan") {
      const AllocCount allocs;
      (void)scan_once(eng->one, cap, nullptr);
      primary_allocs = allocs.count();
      primary_pkts = std::max<std::size_t>(delivered, 1);
    }
    const auto& scfg = eng->sharded.session_config();
    const double seam = static_cast<double>(scfg.resolved_seam(w.phy)) *
                        static_cast<double>(scfg.resolved_shards() - 1);
    out.add("stream.cand_per_pkt",
            static_cast<double>(log1.recs.size()) /
                static_cast<double>(std::max<std::size_t>(delivered, 1)),
            "ratio", std::to_string(log1.recs.size()) + " events");
    out.add("stream.cand_us_head", event_gap_us(log1, t0, 0, len / 10), "us");
    out.add("stream.cand_us_tail", event_gap_us(log1, t0, len - len / 10, len), "us");
    out.add("stream.flatness", ((static_cast<double>(len / 8) / 1e6) / t8) / (msamp / whole),
            "ratio", "first eighth vs whole capture");
    out.add("farm.speedup", std::min(t1, t1b) / std::min(tn, tnb), "ratio",
            "workers=" + std::to_string(n_cpu));
    out.add("farm.seam_frac", seam / static_cast<double>(len), "ratio");
  }

  // ---- receive layers: replay every item, bit-identical to receive_one ----
  {
    const Replayer replayer(w.phy, kNrx);
    core::RxWorkspace rws;
    std::size_t wrong = 0;
    (void)rx_once(eng->one, w, nullptr, wrong);  // warm
    out.failed += wrong;
    out.attempted += w.rx.size();
    if (primary == "rx") {
      std::size_t ignored = 0;
      const AllocCount allocs;
      (void)rx_once(eng->one, w, nullptr, ignored);
      primary_allocs = allocs.count();
      primary_pkts = w.rx.size();
    }

    // Each item goes through receive_one, the untraced replay and the
    // traced replay back to back, in an order that rotates with the item,
    // so all three see the same machine and the same cache warmth. The
    // replay must reproduce receive_one's packet bit for bit.
    Tracer off(false);
    Tracer tr(true, w.rx.size() * 64);
    std::size_t derot = 0, derot_off = 0, mismatches = 0;
    double rx_total_us = 0.0, untraced_us = 0.0, traced_us = 0.0;
    for (std::size_t i = 0; i < w.rx.size(); ++i) {
      const auto in = std::span<const std::span<const cf32>>(w.rx[i].input);
      tr.set_packet(static_cast<std::uint32_t>(i));
      for (std::size_t k = 0; k < 3; ++k) {
        const auto c0 = Clock::now();
        switch ((i + k) % 3) {
          case 0: (void)eng->one.receive_one(in); break;
          case 1: (void)replayer.receive(in, rws, off, derot_off); break;
          default: (void)replayer.receive(in, rws, tr, derot); break;
        }
        const double us = std::chrono::duration<double, std::micro>(Clock::now() - c0).count();
        ((i + k) % 3 == 0 ? rx_total_us : (i + k) % 3 == 1 ? untraced_us : traced_us) += us;
      }
      if (!same_packet(rws.packet, eng->one.packet())) ++mismatches;
    }
    out.gate(mismatches == 0, "replay: " + std::to_string(mismatches) +
                                  " packets differ from receive_one");
    out.attempted += 3 * w.rx.size();

    const double n = static_cast<double>(w.rx.size());
    const auto self = tr.self_us();
    const auto per_pkt = [&](const char* name) {
      const auto it = self.find(name);
      return it == self.end() ? 0.0 : it->second / n;
    };
    double stage_sum_us = 0.0;
    for (const auto& [name, us] : self) {
      if (name != "rx") stage_sum_us += us;
    }
    const std::string n_note = "per packet, n=" + std::to_string(w.rx.size());
    out.add("sync.us", per_pkt("sync"), "us", n_note);
    out.add("channel.cfo_us", per_pkt("channel.cfo"), "us", n_note);
    out.add("core.derot_samples_per_pkt", static_cast<double>(derot) / n, "samples", n_note);
    out.add("chanest.us", per_pkt("chanest"), "us", n_note);
    out.add("wifi.sig_us", per_pkt("wifi.sig"), "us", n_note);
    out.add("ofdm.fft_us", per_pkt("ofdm.fft"), "us", n_note);
    out.add("chanest.track_us", per_pkt("chanest.track"), "us", n_note);
    out.add("eq.us", per_pkt("eq"), "us", n_note);
    out.add("mod.demap_us", per_pkt("mod.demap"), "us", n_note);
    out.add("wifi.deint_us", per_pkt("wifi.deint"), "us", n_note);
    out.add("fec.viterbi_us", per_pkt("fec.viterbi"), "us", n_note);
    out.add("wifi.fcs_us", per_pkt("wifi.fcs"), "us", n_note);
    out.add("trace.replay_gap_frac", 1.0 - stage_sum_us / rx_total_us, "ratio",
            "stage self time vs receive_one wall time");
    out.add("trace.overhead_frac", traced_us / untraced_us - 1.0, "ratio",
            "traced vs untraced replay");
    if (!trace_out.empty() && !tr.write_csv(trace_out)) {
      std::fprintf(stderr, "perfbench: could not write %s\n", trace_out.c_str());
    }

    // Tail cost: the same frame received from a window of its extent vs
    // from the tail to the end of its capture (best of 2 each).
    const core::Receiver& rx = eng->one.receiver();
    double tail_us = 0.0;
    std::size_t n_tail = 0;
    for (const RxItem& item : w.rx) {
      double best[2] = {1e30, 1e30};
      bool ok = true;
      for (int rep = 0; rep < 2; ++rep) {
        for (int k = 0; k < 2; ++k) {
          const View& v = k == 0 ? item.window : item.tail;
          const auto c0 = Clock::now();
          (void)rx.receive(std::span<const std::span<const cf32>>(v), rws);
          best[k] = std::min(best[k],
                             std::chrono::duration<double, std::micro>(Clock::now() - c0).count());
          ok = ok && rws.packet.fcs_ok;
        }
      }
      if (!ok) continue;
      tail_us += best[1] - best[0];
      ++n_tail;
    }
    out.add("core.rx_tail_us", n_tail > 0 ? tail_us / static_cast<double>(n_tail) : 0.0, "us",
            "per delivered frame, n=" + std::to_string(n_tail));
  }

  // ---- Monte-Carlo layers ----
  {
    const std::size_t threads = mc_threads(n_cpu);
    double tn = 0.0, t1 = 0.0;
    const auto res_n = mc_once(eng->sim, w.mc_packets, threads, tn);
    const auto res_1 = mc_once(eng->sim, w.mc_packets, 1, t1);
    out.attempted += 2 * w.mc_packets;
    out.gate(counters(res_n) == counters(res_1),
             "montecarlo: " + std::to_string(threads) +
                 "-thread LinkResult differs from 1-thread");
    if (primary == "mc") {
      double ignored = 0.0;
      const AllocCount allocs;
      (void)mc_once(eng->sim, w.mc_packets, threads, ignored);
      primary_allocs = allocs.count();
      primary_pkts = w.mc_packets;
    }
    const auto& e = res_n.rx_errors;
    const std::size_t early = e.count(RxError::kNoSync) + e.count(RxError::kFalseSync) +
                              e.count(RxError::kHtsigFail) + e.count(RxError::kTruncated);
    out.add("mc.par_eff", t1 / (tn * static_cast<double>(threads)), "ratio",
            "threads=" + std::to_string(threads));
    out.add("mc.early_exit_frac",
            e.errors() > 0 ? static_cast<double>(early) / static_cast<double>(e.errors()) : 0.0,
            "ratio", std::to_string(early) + "/" + std::to_string(e.errors()) + " errors");

    // Per-stage cost of one packet through a separate simulator's parts.
    core::LinkSimulator sim(w.link);
    core::TxWorkspace tws;
    core::RxWorkspace rws;
    const std::size_t n = std::max<std::size_t>(8, w.mc_packets / 8);
    double tx_us = 0.0, ch_us = 0.0, rx_us = 0.0;
    for (std::size_t p = 0; p < n + 1; ++p) {  // packet 0 warms up
      const auto psdu = link_psdu(w.link, p);
      sim.channel().reseed(link_channel_seed(w.link, p));
      const auto c0 = Clock::now();
      sim.transmitter().transmit_into(psdu, tws);
      const auto c1 = Clock::now();
      const auto capture = sim.channel().transmit(tws.chains);
      const auto c2 = Clock::now();
      rws.capture_spans.assign(capture.begin(), capture.end());
      (void)sim.receiver().receive(
          std::span<const std::span<const cf32>>(rws.capture_spans), rws);
      const auto c3 = Clock::now();
      if (p == 0) continue;
      tx_us += std::chrono::duration<double, std::micro>(c1 - c0).count();
      ch_us += std::chrono::duration<double, std::micro>(c2 - c1).count();
      rx_us += std::chrono::duration<double, std::micro>(c3 - c2).count();
    }
    const std::string n_note = "per packet, n=" + std::to_string(n);
    out.add("core.tx_us", tx_us / static_cast<double>(n), "us", n_note);
    out.add("channel.us", ch_us / static_cast<double>(n), "us", n_note);
    out.add("core.rx_us", rx_us / static_cast<double>(n), "us", n_note);
  }

  out.add("core.allocs_per_pkt",
          static_cast<double>(primary_allocs) / static_cast<double>(primary_pkts), "count",
          primary + " loop, " + std::to_string(primary_pkts) + " packets");
  return out;
}

// ---- command line -------------------------------------------------------------

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool tiny = false;
  std::string trace_out;
};

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument("missing value for " + k);
      return argv[++i];
    };
    if (k == "--workload") {
      a.workload = value();
    } else if (k == "--seed") {
      a.seed = std::stoull(value());
    } else if (k == "--seconds") {
      a.seconds = std::stod(value());
    } else if (k == "--trace") {
      a.trace = value() != "0";
    } else if (k == "--tiny") {
      a.tiny = true;
    } else if (k == "--trace-out") {
      a.trace_out = value();
    } else {
      throw std::invalid_argument("unknown argument " + k);
    }
  }
  if (a.workload.empty()) throw std::invalid_argument("--workload is required");
  if (!(a.seconds > 0.0)) throw std::invalid_argument("--seconds must be positive");
  return a;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  try {
    const Args args = parse(argc, argv);
    const std::size_t n_cpu = nproc();
    print_host(n_cpu);
    const auto g0 = Clock::now();
    const Workload w = make_workload(args.workload, args.seed, args.tiny);
    std::printf("# workload %s seed %llu: %zu scan samples/antenna, %zu receive items, "
                "%zu Monte-Carlo packets, inputs built in %.2f s\n",
                w.name.c_str(), static_cast<unsigned long long>(args.seed), w.stream[0].size(),
                w.rx.size(), w.mc_packets, seconds_since(g0));
    const Result r = args.trace ? run_traced(w, n_cpu, args.trace_out)
                                : run_untraced(w, args.seconds, n_cpu);
    r.print();
    return r.correct() ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
}
