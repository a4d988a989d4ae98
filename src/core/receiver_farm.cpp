#include "core/receiver_farm.hpp"

#include <algorithm>
#include <stdexcept>

#include "core/workspace.hpp"

namespace mimonet::core {

void ReceiverFarm::RecordBuffer::push(const StreamEvent& ev) {
  if (used == recs.size()) recs.emplace_back();
  recs[used++] = ev;
}

ReceiverFarm::ReceiverFarm(PhyConfig phy, std::size_t nrx,
                           ReceiveSessionConfig cfg)
    : cfg_(cfg),
      engine_(phy, nrx, cfg.scan),
      nrx_(nrx),
      seam_(cfg.resolved_seam(phy)) {
  const std::size_t n = cfg_.resolved_workers();
  workers_.reserve(n);
  for (std::size_t w = 0; w < n; ++w) {
    workers_.push_back(std::make_unique<Worker>());
    workers_.back()->ws = std::make_unique<RxWorkspace>();
  }
  // Spawn only after every Worker exists: a thief walks the whole vector.
  for (std::size_t w = 0; w < n; ++w) {
    workers_[w]->thread = std::thread([this, w] { worker_loop(w); });
  }
}

ReceiverFarm::~ReceiverFarm() {
  {
    std::lock_guard<std::mutex> lk(pool_m_);
    stop_ = true;
  }
  pool_cv_.notify_all();
  for (auto& w : workers_) {
    if (w->thread.joinable()) w->thread.join();
  }
}

bool ReceiverFarm::pop_own(std::size_t w, std::size_t& idx) {
  Worker& wk = *workers_[w];
  std::lock_guard<std::mutex> lk(wk.m);
  if (wk.head >= wk.q.size()) return false;
  idx = wk.q[wk.head++];
  return true;
}

bool ReceiverFarm::steal(std::size_t w, std::size_t& idx) {
  const std::size_t n = workers_.size();
  for (std::size_t hop = 1; hop < n; ++hop) {
    Worker& victim = *workers_[(w + hop) % n];
    std::lock_guard<std::mutex> lk(victim.m);
    if (victim.head < victim.q.size()) {
      idx = victim.q.back();
      victim.q.pop_back();
      return true;
    }
  }
  return false;
}

void ReceiverFarm::execute(std::size_t w, std::size_t idx) {
  Worker& wk = *workers_[w];
  if (mode_ == Mode::kShards) {
    RecordBuffer& rb = shard_records_[idx];
    const Shard& shard = shards_[idx];
    ScanCursor cursor = shard.start;
    engine_.scan_window(
        capture_, *wk.ws, shard_stats_[idx],
        [&rb](const StreamEvent& ev) { rb.push(ev); }, shard.window, cursor);
  } else {
    const StreamJob& job = jobs_[idx];
    wk.scratch.reset();
    if (stream_event_ != nullptr && *stream_event_) {
      const StreamEventFn& fn = *stream_event_;
      const std::size_t stream = job.stream;
      engine_.scan(job.capture, *wk.ws, wk.scratch,
                   [&fn, stream](const StreamEvent& ev) { fn(stream, ev); });
    } else {
      engine_.scan(job.capture, *wk.ws, wk.scratch, [](const StreamEvent&) {});
    }
    std::lock_guard<std::mutex> lk(merge_m_);
    per_stream_[job.stream].merge(wk.scratch);
    run_total_.merge(wk.scratch);
  }
}

void ReceiverFarm::worker_loop(std::size_t w) {
  std::uint64_t seen = 0;
  for (;;) {
    {
      std::unique_lock<std::mutex> lk(pool_m_);
      pool_cv_.wait(lk, [&] { return stop_ || epoch_ != seen; });
      if (stop_) return;
      seen = epoch_;
    }
    std::size_t idx = 0;
    while (pop_own(w, idx) || steal(w, idx)) {
      try {
        execute(w, idx);
      } catch (...) {
        std::lock_guard<std::mutex> lk(pool_m_);
        if (!first_error_) first_error_ = std::current_exception();
      }
      std::lock_guard<std::mutex> lk(pool_m_);
      if (--remaining_ == 0) done_cv_.notify_all();
    }
  }
}

void ReceiverFarm::dispatch(std::size_t n_jobs) {
  // Arm the completion counter BEFORE staging: a worker still draining the
  // tail of the previous epoch may legally pop and run freshly staged jobs,
  // and its decrement must land on an already-armed counter.
  {
    std::lock_guard<std::mutex> lk(pool_m_);
    remaining_ = n_jobs;
    first_error_ = nullptr;
  }
  for (auto& w : workers_) {
    std::lock_guard<std::mutex> lk(w->m);
    w->q.clear();  // keeps capacity: staging is allocation-free once warm
    w->head = 0;
  }
  for (std::size_t i = 0; i < n_jobs; ++i) {
    Worker& wk = *workers_[i % workers_.size()];
    std::lock_guard<std::mutex> lk(wk.m);
    wk.q.push_back(i);
  }
  {
    std::lock_guard<std::mutex> lk(pool_m_);
    ++epoch_;
  }
  pool_cv_.notify_all();
  std::exception_ptr err;
  {
    std::unique_lock<std::mutex> lk(pool_m_);
    done_cv_.wait(lk, [&] { return remaining_ == 0; });
    err = first_error_;
    first_error_ = nullptr;
  }
  mode_ = Mode::kIdle;
  if (err) std::rethrow_exception(err);
}

void ReceiverFarm::scan(std::span<const std::span<const cf32>> capture,
                        StreamStats& stats,
                        const StreamReceiver::EventFn& on_event) {
  if (capture.size() != nrx_) {
    throw std::invalid_argument("ReceiverFarm::scan: antenna count mismatch");
  }
  const std::size_t len = capture[0].size();
  for (const auto& s : capture) {
    if (s.size() != len) {
      throw std::invalid_argument("ReceiverFarm::scan: ragged capture");
    }
  }
  if (cfg_.scan.max_packets != 0) {
    throw std::invalid_argument(
        "ReceiverFarm::scan: max_packets has no per-shard meaning; use a "
        "single-worker session");
  }

  const std::size_t n_shards = cfg_.resolved_shards();
  shards_.clear();
  for (std::size_t i = 0; i < n_shards; ++i) {
    const std::size_t own_begin = len * i / n_shards;
    const std::size_t own_end = len * (i + 1) / n_shards;
    if (own_begin == own_end) continue;  // degenerate shard of a tiny capture
    const std::size_t begin = own_begin > seam_ ? own_begin - seam_ : 0;
    shards_.push_back({ScanCursor{.pos = begin, .rewind_barrier = begin},
                       ScanWindow{.visible_end = std::min(len, own_end + seam_),
                                  .own_begin = own_begin,
                                  .own_end = own_end}});
  }
  const std::size_t n_win = shards_.size();
  if (shard_stats_.size() < n_win) shard_stats_.resize(n_win);
  if (shard_records_.size() < n_win) shard_records_.resize(n_win);
  for (std::size_t j = 0; j < n_win; ++j) {
    shard_stats_[j].reset();
    shard_records_[j].clear();
  }

  stats.samples_scanned += len;
  if (n_win == 0) return;

  capture_ = capture;
  mode_ = Mode::kShards;
  dispatch(n_win);

  // Merge in shard order: each shard owns the next stretch of the scan
  // path, so concatenating per-shard events reproduces stream order.
  for (std::size_t j = 0; j < n_win; ++j) {
    stats.merge(shard_stats_[j]);
    RecordBuffer& rb = shard_records_[j];
    for (std::size_t k = 0; k < rb.used; ++k) {
      const StreamRecord& r = rb.recs[k];
      on_event(
          StreamEvent{r.offset, r.error, r.has_packet ? &r.packet : nullptr});
    }
  }
}

void ReceiverFarm::run(std::span<const StreamJob> jobs,
                       std::span<StreamStats> per_stream,
                       const StreamEventFn& on_event) {
  for (const StreamJob& job : jobs) {
    if (job.stream >= per_stream.size()) {
      throw std::out_of_range("ReceiverFarm::run: stream index out of range");
    }
    if (job.capture.size() != nrx_) {
      throw std::invalid_argument(
          "ReceiverFarm::run: job antenna count mismatch");
    }
  }
  run_total_.reset();
  if (jobs.empty()) return;
  jobs_ = jobs;
  per_stream_ = per_stream;
  stream_event_ = &on_event;
  mode_ = Mode::kStreams;
  dispatch(jobs.size());
  stream_event_ = nullptr;
}

}  // namespace mimonet::core
