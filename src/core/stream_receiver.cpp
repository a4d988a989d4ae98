#include "core/stream_receiver.hpp"

#include <algorithm>
#include <array>
#include <optional>
#include <stdexcept>

#include "core/workspace.hpp"

namespace mimonet::core {

StreamReceiverConfig::Builder StreamReceiverConfig::make() { return {}; }

StreamReceiver::StreamReceiver(PhyConfig cfg, std::size_t nrx,
                               StreamReceiverConfig scfg)
    : scfg_(scfg), rx_(std::move(cfg), nrx, scfg.scan_mode()), nrx_(nrx) {
  if (scfg_.min_advance == 0) {
    throw std::invalid_argument("StreamReceiver: min_advance must be >= 1");
  }
  if (scfg_.resync_advance == 0) {
    throw std::invalid_argument("StreamReceiver: resync_advance must be >= 1");
  }
  // scan_decimation / coarse knobs are validated by the PacketDetector the
  // Receiver ctor just built from scan_mode().
}

StreamRecord& StreamRecord::operator=(const StreamEvent& ev) {
  offset = ev.offset;
  error = ev.error;
  has_packet = ev.packet != nullptr;
  if (has_packet) packet = *ev.packet;
  return *this;
}

std::vector<StreamRecord> StreamReceiver::receive_all(
    const std::vector<std::vector<cf32>>& capture) const {
  RxWorkspace ws;
  StreamStats stats;
  std::vector<StreamRecord> out;
  std::vector<std::span<const cf32>> spans(capture.begin(), capture.end());
  scan(spans, ws, stats,
       [&out](const StreamEvent& ev) { out.emplace_back() = ev; });
  return out;
}

void StreamReceiver::scan(std::span<const std::span<const cf32>> capture,
                          RxWorkspace& ws, StreamStats& stats,
                          const EventFn& on_event) const {
  ScanCursor cursor;
  scan_window(capture, ws, stats, on_event, ScanWindow{}, cursor);
  stats.samples_scanned += capture[0].size();
}

void StreamReceiver::scan_window(std::span<const std::span<const cf32>> capture,
                                 RxWorkspace& ws, StreamStats& stats,
                                 const EventFn& on_event, const ScanWindow& window,
                                 ScanCursor& cur) const {
  if (capture.size() != nrx_) {
    throw std::invalid_argument("StreamReceiver::scan: antenna count mismatch");
  }
  const std::size_t len = capture[0].size();
  for (const auto& s : capture) {
    if (s.size() != len) {
      throw std::invalid_argument("StreamReceiver::scan: ragged capture");
    }
  }
  const std::size_t vis_end = std::min(window.visible_end, len);
  const std::size_t stop = std::min(vis_end, window.own_end);

  // The scan window lives on the stack (Receiver caps nrx at 4), so the
  // loop stays allocation-free regardless of how `capture` was staged.
  std::array<std::span<const cf32>, 4> view{};
  while (cur.pos < stop) {
    const std::size_t pos = cur.pos;
    for (std::size_t a = 0; a < nrx_; ++a) {
      view[a] = capture[a].subspan(pos, vis_end - pos);
    }
    ++cur.attempts;
    const bool got =
        rx_.receive(std::span<const std::span<const cf32>>(view.data(), nrx_), ws);
    const RxPacket& pkt = ws.packet;
    const metrics::RxError err = pkt.error;

    if (!got && err == metrics::RxError::kNoSync) {
      // Nothing detectable in the remainder — the normal end of a scan, so
      // the trailing idle air is not counted as an error.
      break;
    }

    // Every other classification comes with a synchronized candidate.
    // Ownership follows the scan path, not the offset: the window owns its
    // events from its first candidate at or past own_begin on, rewinds
    // below own_begin included, and stops at its first candidate at or past
    // own_end, before emitting it or rewinding from it. Adjacent windows
    // that align on the same scan path therefore split it exactly once.
    const std::size_t frame_start = pos + pkt.sync.packet_start;
    if (frame_start >= window.own_end) break;
    const bool truncated = err == metrics::RxError::kTruncated;
    // A frame cut by the visible end may still be streaming in: hold the
    // cursor on it until a later call sees more of it.
    if (truncated && window.more_follows) break;
    cur.entered = cur.entered || frame_start >= window.own_begin;
    const bool ours = cur.entered;
    if (ours) {
      stats.errors.add(err);
      on_event(StreamEvent{frame_start, err, &pkt});
      if (pkt.htsig_ok) {
        ++stats.frames;
        ++cur.frames;
        if (pkt.fcs_ok) ++stats.delivered;
        for (std::size_t s = 0; s < pkt.n_stream_sinr; ++s) {
          stats.stream_sinr_db[s].add(pkt.stream_sinr_db[s]);
        }
      }
    }

    // The HT-SIG-announced extent, when the frame corroborates it (FCS, or
    // an L-SIG that agrees). An extent announced by HT-SIG alone may be a
    // false sync's lucky CRC-8, so it is neither skipped nor trusted to run
    // past the window.
    const std::optional<std::size_t> extent =
        corroborated_frame_samples(pkt, rx_.config());
    if (truncated && (!pkt.htsig_ok || extent)) {
      // The frame provably extends past the end of the visible window
      // (either its preamble or its corroborated extent), so no later
      // packet can complete either: this window's scan is done. Against the
      // true capture end this is the genuine truncation classification; in
      // a farm shard the seam is sized so an owned frame never hits it.
      break;
    }
    if (scfg_.max_packets != 0 && cur.frames >= scfg_.max_packets) break;

    std::size_t next;
    bool rewound = false;
    bool abandon = false;
    if (extent) {
      // A consumed frame (kOk / kLsigFail / kFcsFail): skip its extent.
      cur.failed_candidates = 0;
      next = frame_start + *extent;
    } else {
      // Failed candidate (kFalseSync / kHtsigFail / kUnsupportedMcs) or an
      // uncorroborated frame: hop past its start and rescan.
      if (ours) {
        if (!pkt.htsig_ok) ++stats.resync_events;
        ++cur.failed_candidates;
      }
      // When fine sync reports that the candidate's L-LTF implies a packet
      // starting *before* this attempt's start, a previous resync hop
      // overshot a real packet's L-STF: rewind onto the implied start
      // instead of hopping forward over the rest of the packet. The barrier
      // keeps the target after every earlier candidate's start.
      const std::size_t deficit =
          !got ? ws.sync.rejected_start_deficit : std::size_t{0};
      if (deficit != 0 && pos >= deficit && pos - deficit >= cur.rewind_barrier) {
        next = pos - deficit;
        rewound = true;
      } else {
        next = frame_start + scfg_.resync_advance;
      }
      if (scfg_.candidate_budget != 0 &&
          cur.failed_candidates > scfg_.candidate_budget) {
        // Watchdog: a pathological capture keeps producing candidates that
        // never decode. Report the exhaustion and abandon the capture
        // rather than grinding through it one resync hop at a time; the
        // cursor is left past the abandoned attempt.
        stats.errors.add(metrics::RxError::kBudgetExceeded);
        ++stats.budget_exhaustions;
        on_event(StreamEvent{next, metrics::RxError::kBudgetExceeded, nullptr});
        abandon = true;
        rewound = false;
      }
    }
    // A rewind may only land after this candidate's start: no candidate is
    // decoded twice, and rewind targets strictly increase, so backward hops
    // cannot loop. Every other move obeys the monotonic-advance floor:
    // termination in at most len / min_advance forward moves no matter what
    // the candidates looked like.
    cur.rewind_barrier = std::max(cur.rewind_barrier, frame_start + 1);
    cur.pos = rewound ? next : std::max(next, pos + scfg_.min_advance);
    if (abandon) break;
  }
}

}  // namespace mimonet::core
