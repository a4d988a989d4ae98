#include "workloads.hpp"

#include <algorithm>
#include <stdexcept>

#include "channel/fault_plan.hpp"
#include "channel/mimo_channel.hpp"
#include "core/transmitter.hpp"
#include "core/workspace.hpp"
#include "dsp/rng.hpp"
#include "wifi/psdu.hpp"

namespace perfbench {

namespace core = mimonet::core;
namespace channel = mimonet::channel;
namespace dsp = mimonet::dsp;
namespace wifi = mimonet::wifi;

namespace {

constexpr std::size_t kPsduOverhead = wifi::kMacHeaderLen + wifi::kFcsLen;
/// Samples of air kept before and after a frame in its receive window.
constexpr std::size_t kWindowPre = 100;
constexpr std::size_t kWindowPost = 100;

/// splitmix64 stream: the only randomness in input generation, so a seed
/// fixes every input on any compiler and standard library.
class Rng {
 public:
  Rng(std::uint64_t seed, std::uint64_t stream)
      : state_(dsp::splitmix64(seed ^ dsp::splitmix64(stream))) {}
  std::uint64_t next() {
    state_ += 0x9E3779B97F4A7C15ULL;
    return dsp::splitmix64(state_);
  }
  /// Uniform integer in [lo, hi].
  std::size_t uniform(std::size_t lo, std::size_t hi) {
    return lo + static_cast<std::size_t>(next() % (hi - lo + 1));
  }
  /// Fisher-Yates.
  template <typename T>
  void shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) std::swap(v[i - 1], v[uniform(0, i - 1)]);
  }
  /// Uniform real in [lo, hi).
  double uniform_real(double lo, double hi) {
    return lo + (hi - lo) * static_cast<double>(next() >> 11) * 0x1.0p-53;
  }

 private:
  std::uint64_t state_;
};

wifi::MacHeader header_for(std::size_t seq) {
  wifi::MacHeader hdr;
  hdr.addr1 = {0x02, 0x11, 0x22, 0x33, 0x44, 0x55};
  hdr.addr2 = {0x02, 0xAA, 0xBB, 0xCC, 0xDD, 0xEE};
  hdr.addr3 = hdr.addr1;
  hdr.sequence_control = static_cast<std::uint16_t>((seq & 0xFFFU) << 4U);
  return hdr;
}

std::vector<std::uint8_t> random_psdu(std::uint64_t seed, std::size_t seq,
                                      std::size_t psdu_bytes) {
  dsp::BitSource src(seed);
  const auto payload = src.bytes(psdu_bytes - kPsduOverhead);
  return wifi::build_psdu(header_for(seq), payload);
}

View view(const Capture& c, std::size_t begin, std::size_t end) {
  View v;
  for (std::size_t a = 0; a < kNrx; ++a) {
    v[a] = std::span<const cf32>(c[a]).subspan(begin, end - begin);
  }
  return v;
}

/// Receive item for the frame starting at `start` in `parent`.
RxItem make_item(const Capture& parent, View input, std::size_t start,
                 std::size_t extent, std::size_t frame) {
  const std::size_t len = parent[0].size();
  const std::size_t begin = start > kWindowPre ? start - kWindowPre : 0;
  const std::size_t end = std::min(len, start + extent + kWindowPost);
  return RxItem{input, view(parent, begin, end), view(parent, begin, len), frame};
}

/// Append the captures `picks` end to end into w.stream.
void concat_stream(Workload& w, const std::vector<std::size_t>& picks) {
  w.stream.assign(kNrx, {});
  for (const std::size_t i : picks) {
    w.stream_frames.push_back(i);
    w.stream_starts.push_back(w.stream[0].size() + w.frames[i].start);
    for (std::size_t a = 0; a < kNrx; ++a) {
      w.stream[a].insert(w.stream[a].end(), w.captures[i][a].begin(),
                         w.captures[i][a].end());
    }
  }
}

struct FrameSpec {
  unsigned mcs = 0;
  std::size_t psdu_bytes = 0;
  std::size_t rank = 0;  ///< position in the unshuffled mix
};

/// `n` frames whose PSDU sizes are spread evenly over [lo, hi], with the
/// MCS cycling through `mcs` along the sizes, in seeded order. Every seed
/// gets the same multiset of (MCS, size) pairs, so the amount of decode
/// work stays the same from seed to seed and seeds move the figures only
/// through order, air and noise.
std::vector<FrameSpec> frame_mix(std::size_t n, std::span<const unsigned> mcs,
                                 std::size_t lo, std::size_t hi, Rng& rng) {
  std::vector<FrameSpec> out(n);
  for (std::size_t i = 0; i < n; ++i) {
    out[i].mcs = mcs[i % mcs.size()];
    out[i].psdu_bytes = lo + (hi - lo) * i / std::max<std::size_t>(n - 1, 1);
    out[i].rank = i;
  }
  rng.shuffle(out);
  return out;
}

/// One transmitter per MCS of `mcs`, in that order.
std::vector<core::Transmitter> transmitters(std::span<const unsigned> mcs) {
  std::vector<core::Transmitter> txs;
  for (const unsigned m : mcs) {
    core::PhyConfig phy;
    phy.mcs = m;
    txs.emplace_back(phy);
  }
  return txs;
}

const core::Transmitter& tx_for(const std::vector<core::Transmitter>& txs, unsigned mcs) {
  for (const auto& tx : txs) {
    if (tx.config().mcs == mcs) return tx;
  }
  throw std::logic_error("no transmitter for MCS");
}

/// One long 2-RX capture of back-to-back PPDUs through 30 dB flat AWGN:
/// MCS 4-7 (one TX antenna) and 12-15, 200-1500 B, seeded idle gaps that
/// pad the capture to a fixed length, and a tone burst in every fourth gap.
Workload stream_long(std::uint64_t seed, bool tiny) {
  Workload w;
  w.name = "stream_long";
  w.shares = {0.35, 0.25, 0.15, 0.25};
  w.primary = "scan";
  w.stream_must_deliver_all = true;
  Rng rng(seed, 1);

  constexpr std::array<unsigned, 8> kMcs{4, 5, 6, 7, 12, 13, 14, 15};
  const auto txs = transmitters(kMcs);
  constexpr std::size_t kTimingPad = 200;
  constexpr std::size_t kMinGap = 500;
  const std::size_t n = tiny ? 16 : 256;
  const std::size_t air = tiny ? 60'000 : 1'000'000;  // PPDUs plus gaps

  std::vector<std::vector<std::vector<cf32>>> ppdus;
  std::size_t busy = 0;
  for (const FrameSpec& spec : frame_mix(n, kMcs, 200, 1500, rng)) {
    if (spec.rank == 0) w.warm_item = w.frames.size();
    Frame f;
    f.psdu = random_psdu(rng.next(), w.frames.size(), spec.psdu_bytes);
    ppdus.push_back(tx_for(txs, spec.mcs).transmit(f.psdu));
    f.extent = ppdus.back()[0].size();
    busy += f.extent;
    w.frames.push_back(std::move(f));
  }
  // Split the idle air left over into n - 1 gaps of seeded relative size.
  std::vector<std::size_t> weights(n - 1);
  std::size_t weight_sum = 0;
  for (auto& wt : weights) weight_sum += (wt = rng.uniform(500, 1500));
  const std::size_t tone_phase = rng.uniform(0, 3);
  const std::size_t min_air = busy + (n - 1) * kMinGap;
  const std::size_t slack = air > min_air ? air - min_air : 0;

  Capture chains(kNrx);
  channel::FaultPlan plan;
  for (std::size_t p = 0; p < n; ++p) {
    w.frames[p].start = kTimingPad + chains[0].size();
    for (std::size_t a = 0; a < kNrx; ++a) {
      if (a < ppdus[p].size()) {
        chains[a].insert(chains[a].end(), ppdus[p][a].begin(), ppdus[p][a].end());
      } else {
        chains[a].resize(chains[a].size() + w.frames[p].extent);
      }
    }
    if (p + 1 == n) break;
    const std::size_t gap = kMinGap + slack * weights[p] / weight_sum;
    if (p % 4 == tone_phase) {
      plan.tone_burst(kTimingPad + chains[0].size() + 150, 240, 3.0, 0.07);
    }
    for (auto& c : chains) c.resize(c.size() + gap);
  }

  channel::ChannelConfig ccfg;
  ccfg.ntx = kNrx;
  ccfg.nrx = kNrx;
  ccfg.snr_db = 30.0;
  ccfg.timing_pad = kTimingPad;
  ccfg.tail_pad = 100;
  ccfg.faults = plan;
  ccfg.seed = rng.next();
  channel::MimoChannel chan(ccfg);
  w.stream = chan.transmit(chains);

  for (std::size_t i = 0; i < w.frames.size(); ++i) {
    w.stream_frames.push_back(i);
    w.stream_starts.push_back(w.frames[i].start);
    RxItem item = make_item(w.stream, {}, w.frames[i].start, w.frames[i].extent, i);
    item.input = item.window;
    w.rx.push_back(item);
  }
  w.link = reference_link(seed);
  w.mc_packets = tiny ? 24 : 1000;
  return w;
}

/// SNR per MCS for burst_rx: most frames decode, some fail the FCS.
double burst_snr_db(unsigned mcs) {
  constexpr std::array<double, 8> kSnr{8.0, 11.0, 16.0, 19.0, 25.0, 30.0, 34.0, 38.0};
  return kSnr[mcs - 8];
}

/// Independent short captures: random pad, one MCS 8-15 PPDU (100-1500 B)
/// and a tail, each through a fresh TGn-D-like 2x2 fading draw with CFO.
Workload burst_rx(std::uint64_t seed, bool tiny) {
  Workload w;
  w.name = "burst_rx";
  w.shares = {0.1, 0.15, 0.55, 0.2};
  w.primary = "rx";
  Rng rng(seed, 2);

  constexpr std::array<unsigned, 8> kMcs{8, 9, 10, 11, 12, 13, 14, 15};
  const auto txs = transmitters(kMcs);
  const std::size_t n = tiny ? 24 : 2000;
  std::vector<std::size_t> by_rank(n);
  for (const FrameSpec& spec : frame_mix(n, kMcs, 100, 1500, rng)) {
    by_rank[spec.rank] = w.frames.size();
    Frame f;
    f.psdu = random_psdu(rng.next(), w.frames.size(), spec.psdu_bytes);
    const auto ppdu = tx_for(txs, spec.mcs).transmit(f.psdu);

    channel::ChannelConfig ccfg;
    ccfg.ntx = kNrx;
    ccfg.nrx = kNrx;
    ccfg.fading = true;
    ccfg.profile = channel::DelayProfile::kTypical;
    ccfg.snr_db = burst_snr_db(spec.mcs);
    ccfg.cfo_norm = rng.uniform_real(-2e-3, 2e-3);
    ccfg.timing_pad = rng.uniform(100, 600);
    ccfg.tail_pad = rng.uniform(100, 300);
    ccfg.seed = rng.next();
    channel::MimoChannel chan(ccfg);
    w.captures.push_back(chan.transmit(ppdu));

    f.start = chan.truth().packet_start;
    f.extent = ppdu[0].size();
    w.frames.push_back(std::move(f));
  }
  for (std::size_t i = 0; i < n; ++i) {
    const Capture& c = w.captures[i];
    w.rx.push_back(make_item(c, view(c, 0, c[0].size()), w.frames[i].start,
                             w.frames[i].extent, i));
  }
  w.warm_item = by_rank[0];
  // The scan capture strings together every 15th frame of the unshuffled
  // mix in a fixed interleaved order: the same MCS and size sequence for
  // every seed, spanning the whole mix, so the sharded scan's balance of
  // work across shards does not change from seed to seed.
  const std::size_t n_scan = tiny ? 8 : 128;
  std::vector<std::size_t> scan_picks(n_scan);
  for (std::size_t j = 0; j < n_scan; ++j) {
    scan_picks[j] = by_rank[(n / n_scan) * ((j * 37) % n_scan)];
  }
  concat_stream(w, scan_picks);
  w.link = reference_link(seed);
  w.mc_packets = tiny ? 24 : 1000;
  return w;
}

/// The reference link's Monte-Carlo run, plus captures of the same link
/// (through a LinkSimulator's transmitter and channel) for receive_one and
/// the scan.
Workload montecarlo(std::uint64_t seed, bool tiny) {
  Workload w;
  w.name = "montecarlo";
  w.shares = {0.075, 0.075, 0.15, 0.7};
  w.primary = "mc";
  w.link = reference_link(seed);
  w.mc_packets = tiny ? 40 : 4000;

  core::LinkSimulator sim(w.link);
  core::TxWorkspace tws;
  const std::size_t n = tiny ? 16 : 1000;
  for (std::size_t p = 0; p < n; ++p) {
    Frame f;
    f.psdu = link_psdu(w.link, p);
    sim.channel().reseed(link_channel_seed(w.link, p));
    sim.transmitter().transmit_into(f.psdu, tws);
    w.captures.push_back(sim.channel().transmit(tws.chains));
    f.start = sim.channel().truth().packet_start;
    f.extent = tws.chains[0].size();
    w.frames.push_back(std::move(f));
  }
  for (std::size_t i = 0; i < n; ++i) {
    const Capture& c = w.captures[i];
    w.rx.push_back(make_item(c, view(c, 0, c[0].size()), w.frames[i].start,
                             w.frames[i].extent, i));
  }
  std::vector<std::size_t> scan_picks(tiny ? 8 : 256);
  for (std::size_t i = 0; i < scan_picks.size(); ++i) scan_picks[i] = i;
  concat_stream(w, scan_picks);
  return w;
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names{"stream_long", "burst_rx", "montecarlo"};
  return names;
}

core::LinkConfig reference_link(std::uint64_t seed) {
  core::LinkConfig cfg = core::LinkConfig::make()
                             .mcs(12)
                             .snr_db(22.0)
                             .fading(true, channel::DelayProfile::kTypical)
                             .doppler_norm(2e-7)
                             .cfo_norm(1e-3)
                             .seed(dsp::splitmix64(seed ^ 0x3C))
                             .build();
  return cfg;
}

std::vector<std::uint8_t> link_psdu(const core::LinkConfig& link, std::size_t p) {
  return random_psdu(dsp::splitmix64(link.seed + 2 * p + 1), p,
                     link.psdu_payload_bytes + kPsduOverhead);
}

std::uint64_t link_channel_seed(const core::LinkConfig& link, std::size_t p) {
  return dsp::splitmix64(link.seed + 2 * p + 2);
}

Workload make_workload(const std::string& name, std::uint64_t seed, bool tiny) {
  if (name == "stream_long") return stream_long(seed, tiny);
  if (name == "burst_rx") return burst_rx(seed, tiny);
  if (name == "montecarlo") return montecarlo(seed, tiny);
  throw std::invalid_argument("unknown workload: " + name);
}

}  // namespace perfbench
