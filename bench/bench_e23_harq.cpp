// E23 — HARQ chase combining + evidence-driven link adaptation: what soft
// retransmission combining and outcome-taxonomy rate control buy at the
// link level.
//
// Two scenarios, three policies:
//
//   SNR sweep (identity AWGN at the 64-QAM 5/6 cliff) — standalone retries
//   vs chase combining vs chase + the evidence controller. Expected shape:
//   just below the standalone delivery cliff there is a window where no
//   single attempt survives the FCS but summing per-attempt LLRs across
//   retransmissions decodes cleanly — chase holds delivery (and goodput)
//   through SNRs where standalone loses everything. The evidence
//   controller reads the same window as genuine channel evidence (the
//   preamble SNR really is short of what the rate needs) and steps the
//   MCS down instead.
//
//   Interference campaign (30 dB channel + pulsed wideband bursts) — the
//   failure-count baseline cannot tell burst losses from a channel that
//   stopped supporting the rate and steps the MCS down blindly; the
//   evidence controller sees healthy-preamble FCS failures, holds the
//   rate, stretches the retry backoff past the bursts, and keeps the
//   high-MCS goodput.
//
// MIMONET_BENCH_PACKETS overrides the per-point MSDU count (check.sh's
// harq-smoke runs a reduced sweep). Everything is deterministic in the
// configured seeds: reruns emit bit-identical JSON.
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "mac/arq.hpp"

using namespace mimonet;

namespace {

constexpr unsigned kMcs = 7;            // 64-QAM 5/6, 1 stream
constexpr double kCliffSnrDb = 16.0;    // chase decodes, standalone cannot
constexpr std::size_t kPayload = 300;

enum class Policy { kStandalone, kChase, kChaseEvidence };

const char* policy_name(Policy p) {
  switch (p) {
    case Policy::kStandalone: return "standalone";
    case Policy::kChase: return "chase";
    case Policy::kChaseEvidence: return "chase_evidence";
  }
  return "?";
}

struct Row {
  std::size_t delivered = 0;
  std::size_t lost = 0;
  double goodput = 0.0;
  double avg_attempts = 0.0;
  std::size_t harq_ok = 0;
  std::size_t fallbacks = 0;
  std::size_t holds = 0;
  unsigned final_mcs = 0;
};

Row collect(mac::SelectiveRepeatLink& link) {
  const auto& st = link.run();
  Row r;
  r.delivered = st.delivered;
  r.lost = st.lost;
  r.goodput = st.goodput_mbps();
  std::size_t finished = 0, attempts = 0;
  for (std::size_t k = 0; k < st.attempts_hist.size(); ++k) {
    finished += st.attempts_hist[k];
    attempts += k * st.attempts_hist[k];
  }
  r.avg_attempts = finished > 0 ? static_cast<double>(attempts) /
                                      static_cast<double>(finished)
                                : 0.0;
  r.harq_ok = st.harq_combined_ok;
  r.fallbacks = st.mcs_fallbacks;
  r.holds = st.interference_holds;
  r.final_mcs = link.current_mcs();
  return r;
}

void apply_policy(mac::SrConfig& cfg, Policy p) {
  switch (p) {
    case Policy::kStandalone:
      // The pre-adaptor link: hard-decision retries, blind streak counting.
      cfg.harq = false;
      break;
    case Policy::kChase:
      cfg.harq = true;
      break;
    case Policy::kChaseEvidence:
      cfg.harq = true;
      cfg.adapt.policy = mac::AdaptPolicy::kEvidence;
      break;
  }
}

/// One AWGN sweep point. MCS fallback is frozen for the failure-count
/// policies so the sweep isolates what combining itself buys at a fixed
/// rate; the evidence controller keeps its own down_after/up_after knobs —
/// a genuinely short channel is exactly what it should step down on.
Row run_snr_point(double snr_db, Policy p, std::size_t msdus) {
  mac::SrConfig cfg;
  cfg.arq.data_phy.mcs = kMcs;
  cfg.arq.ack_phy.mcs = 0;
  cfg.arq.forward.snr_db = snr_db;
  cfg.arq.forward.timing_pad = 300;
  cfg.arq.forward.tail_pad = 80;
  cfg.arq.forward.seed = 2300;
  cfg.arq.reverse = cfg.arq.forward;
  cfg.arq.reverse.snr_db = 30.0;  // keep the ACK path clean: forward is the DUT
  cfg.arq.reverse.seed = 2301;
  cfg.arq.seed = 2300;
  cfg.arq.max_retries = 6;
  cfg.adapt.fallback_after = 0;
  cfg.adapt.recover_after = 0;
  apply_policy(cfg, p);
  mac::SelectiveRepeatLink link(cfg);
  for (std::size_t i = 0; i < msdus; ++i) {
    link.queue(std::vector<std::uint8_t>(kPayload, static_cast<std::uint8_t>(i)));
  }
  return collect(link);
}

/// The interference campaign: healthy 30 dB channel, strong 25 us bursts
/// every 120 us clipping nearly every frame's data field while the
/// preamble escapes (same schedule the stress campaign pins down).
Row run_interference(Policy p, std::size_t msdus) {
  mac::SrConfig cfg;
  cfg.arq.data_phy.mcs = kMcs;
  cfg.arq.ack_phy.mcs = 0;
  cfg.arq.forward.snr_db = 30.0;
  cfg.arq.forward.timing_pad = 300;
  cfg.arq.forward.tail_pad = 80;
  cfg.arq.forward.seed = 5150;
  cfg.arq.reverse = cfg.arq.forward;
  cfg.arq.reverse.seed = 5151;
  cfg.arq.seed = 5150;
  cfg.arq.max_retries = 6;
  for (double t = 60.0; t < 40000.0; t += 120.0) {
    cfg.arq.interference.push_back({t, t + 25.0, 2.0});
  }
  apply_policy(cfg, p);
  mac::SelectiveRepeatLink link(cfg);
  for (std::size_t i = 0; i < msdus; ++i) {
    link.queue(std::vector<std::uint8_t>(kPayload, static_cast<std::uint8_t>(i)));
  }
  return collect(link);
}

std::string json_row(const char* extra, double snr_db, Policy p, const Row& r,
                     bool first) {
  char obj[320];
  std::snprintf(
      obj, sizeof obj,
      "%s{%s\"policy\": \"%s\", \"delivered\": %zu, \"lost\": %zu, "
      "\"goodput_mbps\": %.6g, \"avg_attempts\": %.6g, "
      "\"harq_combined_ok\": %zu, \"mcs_fallbacks\": %zu, "
      "\"interference_holds\": %zu, \"final_mcs\": %u}",
      first ? "" : ", ", extra, policy_name(p), r.delivered, r.lost, r.goodput,
      r.avg_attempts, r.harq_ok, r.fallbacks, r.holds, r.final_mcs);
  std::string out = obj;
  if (snr_db >= 0.0) {
    char snr[48];
    std::snprintf(snr, sizeof snr, "\"snr_db\": %g, ", snr_db);
    const auto pos = out.find('{') + 1;
    out.insert(pos, snr);
  }
  return out;
}

}  // namespace

int main() {
  bench::heading("E23", "HARQ chase combining + evidence-driven adaptation");

  std::size_t n_msdus = 20;
  if (const char* env = std::getenv("MIMONET_BENCH_PACKETS")) {
    const long v = std::strtol(env, nullptr, 10);
    if (v > 0) n_msdus = static_cast<std::size_t>(v);
  }
  const std::size_t n_campaign = n_msdus * 2;
  bench::note("MCS %u, %zu-byte MSDUs, %zu per sweep point, 6 retries,",
              kMcs, kPayload, n_msdus);
  bench::note("cliff pinned at %.0f dB (identity 1x1 AWGN)", kCliffSnrDb);

  const Policy policies[] = {Policy::kStandalone, Policy::kChase,
                             Policy::kChaseEvidence};
  const double snrs[] = {14.0, 15.0, kCliffSnrDb, 17.0, 18.0, 20.0};

  std::printf("\n  SNR sweep (delivered/goodput per policy)\n");
  const bench::Table table({"SNR dB", "policy", "deliv", "lost", "goodput",
                            "avg att", "harq ok", "mcs"},
                           10);
  std::string pts = "[";
  bool first = true;
  Row cliff[3];
  for (const double snr : snrs) {
    for (std::size_t pi = 0; pi < 3; ++pi) {
      const Row r = run_snr_point(snr, policies[pi], n_msdus);
      if (snr == kCliffSnrDb) cliff[pi] = r;
      table.row({bench::fix(snr, 0), policy_name(policies[pi]),
                 std::to_string(r.delivered), std::to_string(r.lost),
                 bench::fix(r.goodput, 2), bench::fix(r.avg_attempts, 2),
                 std::to_string(r.harq_ok), std::to_string(r.final_mcs)});
      pts += json_row("", snr, policies[pi], r, first);
      first = false;
    }
  }

  std::printf("\n  Interference campaign (30 dB + pulsed bursts)\n");
  const bench::Table itable({"policy", "deliv", "lost", "goodput", "fallbk",
                             "holds", "harq ok", "mcs"},
                            10);
  std::string ipts = "[";
  Row campaign[3];
  for (std::size_t pi = 0; pi < 3; ++pi) {
    campaign[pi] = run_interference(policies[pi], n_campaign);
    const Row& r = campaign[pi];
    itable.row({policy_name(policies[pi]), std::to_string(r.delivered),
                std::to_string(r.lost), bench::fix(r.goodput, 2),
                std::to_string(r.fallbacks), std::to_string(r.holds),
                std::to_string(r.harq_ok), std::to_string(r.final_mcs)});
    ipts += json_row("", -1.0, policies[pi], r, pi == 0);
  }

  bench::note("expected: at the cliff chase delivers where standalone cannot;");
  bench::note("under bursts the evidence policy holds MCS %u and out-earns the",
              kMcs);
  bench::note("blind fallback baseline");

  // The two load-bearing shapes, asserted here so a smoke run fails loudly
  // rather than committing a baseline that no longer shows the effect.
  bool shape_ok = true;
  if (cliff[1].delivered <= cliff[0].delivered) {
    std::fprintf(stderr,
                 "E23: chase combining delivered %zu <= standalone %zu at the "
                 "%.0f dB cliff\n",
                 cliff[1].delivered, cliff[0].delivered, kCliffSnrDb);
    shape_ok = false;
  }
  if (campaign[2].goodput < campaign[0].goodput) {
    std::fprintf(stderr,
                 "E23: evidence goodput %.3g < failure-count baseline %.3g "
                 "under interference\n",
                 campaign[2].goodput, campaign[0].goodput);
    shape_ok = false;
  }

  bench::JsonReport report("harq");
  report.field("msdus_per_point", n_msdus)
      .field("campaign_msdus", n_campaign)
      .field("payload_bytes", kPayload)
      .field("mcs", kMcs)
      .field("cliff_snr_db", kCliffSnrDb)
      .field("max_retries", 6)
      .field("shape_ok", shape_ok)
      .raw("points", pts + "]")
      .raw("interference", ipts + "]")
      .emit();
  return shape_ok ? 0 : 1;
}
