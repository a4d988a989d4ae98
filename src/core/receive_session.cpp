#include "core/receive_session.hpp"

#include <thread>
#include <utility>

#include "core/mu_receiver.hpp"
#include "core/receiver_farm.hpp"
#include "core/workspace.hpp"

namespace mimonet::core {

ReceiveSessionConfig::Builder ReceiveSessionConfig::make() { return {}; }

std::size_t ReceiveSessionConfig::resolved_workers() const {
  if (workers != 0) return workers;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw != 0 ? hw : 1;
}

std::size_t ReceiveSessionConfig::resolved_seam(const PhyConfig& phy) const {
  if (seam_samples != 0) return seam_samples;
  // Upper bound on any frame's sample extent: the widest HT preamble (4
  // space-time streams) combined with the largest data-symbol count any
  // supported coding takes for max_frame_bytes — MCS 0 carries the fewest
  // bits per symbol, and STBC's even-symbol rounding can add one more.
  FrameLayout fl;
  fl.nss = 4;
  fl.n_data_symbols = data_symbol_count(wifi::mcs_info(0), max_frame_bytes,
                                        phy.fec_enabled, /*stbc=*/true,
                                        phy.fec_type);
  // Plus a re-alignment margin: a shard scan entering mid-packet burns a
  // few resync hops (and possibly one bounded rewind) inside its lead-in
  // before locking onto the first candidate it owns.
  return fl.total_samples() + 8 * scan.resync_advance + 256;
}

ReceiveSession::ReceiveSession(PhyConfig phy, std::size_t nrx,
                               ReceiveSessionConfig cfg)
    : cfg_(cfg),
      engine_(std::move(phy), nrx, cfg.scan),
      nrx_(nrx),
      ws_(std::make_unique<RxWorkspace>()) {}

ReceiveSession::~ReceiveSession() = default;

ReceiverFarm& ReceiveSession::farm() {
  if (!farm_) {
    farm_ = std::make_unique<ReceiverFarm>(engine_.config(), nrx_, cfg_);
  }
  return *farm_;
}

bool ReceiveSession::receive_one(
    std::span<const std::span<const cf32>> capture) {
  const bool got = engine_.receiver().receive(capture, *ws_);
  const RxPacket& pkt = ws_->packet;
  stats_.samples_scanned += capture.empty() ? 0 : capture[0].size();
  stats_.errors.add(pkt.error);
  if (pkt.htsig_ok) ++stats_.frames;
  if (got) ++stats_.delivered;
  return got;
}

bool ReceiveSession::receive_one(
    const std::vector<std::vector<cf32>>& capture) {
  std::vector<std::span<const cf32>> spans(capture.begin(), capture.end());
  return receive_one(std::span<const std::span<const cf32>>(spans));
}

const RxPacket& ReceiveSession::packet() const noexcept { return ws_->packet; }

bool ReceiveSession::receive_mu_one(
    std::span<const std::span<const cf32>> capture, std::size_t n_users,
    std::size_t psdu_bytes) {
  if (!mu_rx_ || mu_rx_->n_users() != n_users) {
    mu_rx_ = std::make_unique<MuUplinkReceiver>(engine_.config(), n_users, nrx_);
    if (!mu_ws_) mu_ws_ = std::make_unique<MuRxWorkspace>();
  }
  if (mu_stats_.size() < n_users) mu_stats_.resize(n_users);

  const bool got = mu_rx_->receive(capture, psdu_bytes, *mu_ws_);
  const std::size_t samples = capture.empty() ? 0 : capture[0].size();
  stats_.samples_scanned += samples;

  for (std::size_t u = 0; u < n_users; ++u) {
    StreamStats& st = mu_stats_[u];
    st.samples_scanned += samples;
    if (!got) {
      st.errors.add(metrics::RxError::kNoSync);
      stats_.errors.add(metrics::RxError::kNoSync);
      continue;
    }
    const MuUserPacket& up = mu_ws_->packet.users[u];
    ++st.frames;
    ++stats_.frames;
    const auto err =
        up.fcs_ok ? metrics::RxError::kOk : metrics::RxError::kFcsFail;
    st.errors.add(err);
    stats_.errors.add(err);
    if (up.fcs_ok) {
      ++st.delivered;
      ++stats_.delivered;
    }
    st.stream_sinr_db[0].add(up.sinr_db);
    stats_.stream_sinr_db[u].add(up.sinr_db);
  }
  return got;
}

const MuRxPacket& ReceiveSession::mu_packet() const { return mu_ws_->packet; }

void ReceiveSession::scan(std::span<const std::span<const cf32>> capture,
                          const EventFn& on_event) {
  // max_packets caps the *global* frame count, which has no per-shard
  // meaning — such scans stay on the calling thread regardless of workers.
  if (cfg_.resolved_workers() > 1 && cfg_.scan.max_packets == 0) {
    farm().scan(capture, stats_, on_event);
  } else {
    engine_.scan(capture, *ws_, stats_, on_event);
  }
}

std::vector<StreamRecord> ReceiveSession::receive_all(
    const std::vector<std::vector<cf32>>& capture) {
  std::vector<StreamRecord> out;
  std::vector<std::span<const cf32>> spans(capture.begin(), capture.end());
  scan(std::span<const std::span<const cf32>>(spans),
       [&out](const StreamEvent& ev) { out.emplace_back() = ev; });
  return out;
}

void ReceiveSession::run_streams(std::span<const StreamJob> jobs,
                                 std::span<StreamStats> per_stream) {
  ReceiverFarm& f = farm();
  f.run(jobs, per_stream);
  stats_.merge(f.last_run_stats());
}

}  // namespace mimonet::core
