// Parallel receive farm: one persistent worker pool, two ways to feed it.
//
// Sharded-capture mode (`scan`) splits one long capture into shards scanned
// concurrently with overlap-save seams. Each worker scans its shard plus a
// seam-wide lead-in (to re-align if the shard boundary fell mid-packet) and
// sees a seam-wide tail past its shard (so an owned frame that straddles the
// boundary decodes fully), but reports only the stretch of the scan path it
// owns: from its first candidate at or past the shard start (rewinds below
// it included) up to its first candidate at or past the shard end — so
// every packet is decoded exactly once and the merged event stream and
// statistics are bit-identical to a single-threaded StreamReceiver::scan
// for any shard and worker count.
//
// Base-station mode (`run`) multiplexes many independent per-user streams
// over the same pool: jobs are dealt round-robin onto per-worker deques,
// owners drain their deque front-to-back (FIFO fairness) and idle workers
// steal from the back of a victim's deque, so one pathological stream
// cannot starve the rest. Statistics and the RxError taxonomy are kept per
// stream.
//
// Workers are spawned once in the constructor and each owns a warm
// RxWorkspace, so steady-state operation performs no heap allocation in
// either mode.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <memory>
#include <mutex>
#include <span>
#include <thread>
#include <vector>

#include "core/phy_config.hpp"
#include "core/receive_session.hpp"
#include "core/stream_receiver.hpp"

namespace mimonet::core {

class ReceiverFarm {
 public:
  /// Per-stream event callback for base-station mode. Invoked from worker
  /// threads — jobs for one stream never run concurrently with themselves,
  /// but different streams do, so the callback must be thread-safe.
  using StreamEventFn =
      std::function<void(std::size_t stream, const StreamEvent&)>;

  ReceiverFarm(PhyConfig phy, std::size_t nrx, ReceiveSessionConfig cfg = {});
  ~ReceiverFarm();
  ReceiverFarm(const ReceiverFarm&) = delete;
  ReceiverFarm& operator=(const ReceiverFarm&) = delete;

  /// Sharded-capture scan. Events are delivered on the calling thread in
  /// stream order after the shards complete; `stats` accumulates exactly
  /// what a single-threaded scan would have produced. Requires
  /// max_packets == 0 (a global frame cap has no per-shard meaning); the
  /// candidate-budget watchdog applies per shard.
  void scan(std::span<const std::span<const cf32>> capture, StreamStats& stats,
            const StreamReceiver::EventFn& on_event);

  /// Base-station mode: scan every job over the pool, folding each job's
  /// statistics into per_stream[job.stream]. Jobs sharing a stream index
  /// must not overlap in flight — submit them in one run() and they are
  /// executed (possibly by different workers) and merged losslessly.
  void run(std::span<const StreamJob> jobs, std::span<StreamStats> per_stream,
           const StreamEventFn& on_event = {});

  [[nodiscard]] std::size_t num_workers() const noexcept {
    return workers_.size();
  }
  /// Aggregate statistics of the most recent run() (sum over its jobs).
  [[nodiscard]] const StreamStats& last_run_stats() const noexcept {
    return run_total_;
  }
  /// Overlap-save seam width (samples) sharded scans use.
  [[nodiscard]] std::size_t seam() const noexcept { return seam_; }
  [[nodiscard]] const StreamReceiver& engine() const noexcept {
    return engine_;
  }
  [[nodiscard]] const ReceiveSessionConfig& session_config() const noexcept {
    return cfg_;
  }

 private:
  /// Reusable event buffer: records are assigned in place so a warm buffer
  /// captures a shard's events without allocating.
  struct RecordBuffer {
    std::vector<StreamRecord> recs;
    std::size_t used = 0;
    void clear() noexcept { used = 0; }
    void push(const StreamEvent& ev);
  };

  /// One shard of a sharded scan: where its scan starts (a seam-wide
  /// lead-in before the range it owns) and the window it scans.
  struct Shard {
    ScanCursor start;
    ScanWindow window;
  };

  struct Worker {
    std::thread thread;
    std::unique_ptr<RxWorkspace> ws;
    StreamStats scratch;
    // Work-stealing deque of job indices, staged before each epoch. Valid
    // entries are q[head..q.size()): the owner pops the front (head++),
    // thieves pop the back. Guarded by m.
    std::vector<std::size_t> q;
    std::size_t head = 0;
    std::mutex m;
  };

  enum class Mode { kIdle, kShards, kStreams };

  void worker_loop(std::size_t w);
  bool pop_own(std::size_t w, std::size_t& idx);
  bool steal(std::size_t w, std::size_t& idx);
  void execute(std::size_t w, std::size_t idx);
  /// Stage `n_jobs` indices round-robin onto the deques, open an epoch,
  /// block until every job completed, rethrow the first worker exception.
  void dispatch(std::size_t n_jobs);

  ReceiveSessionConfig cfg_;
  StreamReceiver engine_;
  std::size_t nrx_;
  std::size_t seam_;
  std::vector<std::unique_ptr<Worker>> workers_;

  // Epoch machinery (all guarded by pool_m_).
  std::mutex pool_m_;
  std::condition_variable pool_cv_;  ///< workers wait for the next epoch
  std::condition_variable done_cv_;  ///< dispatcher waits for completion
  std::uint64_t epoch_ = 0;
  std::size_t remaining_ = 0;
  bool stop_ = false;
  std::exception_ptr first_error_;

  // Description of the in-flight run. Written by the dispatching thread
  // before the epoch opens (published by the epoch's release/acquire pair),
  // read-only to workers during the epoch.
  Mode mode_ = Mode::kIdle;
  std::span<const std::span<const cf32>> capture_;
  std::vector<Shard> shards_;
  std::vector<StreamStats> shard_stats_;
  std::vector<RecordBuffer> shard_records_;
  std::span<const StreamJob> jobs_;
  std::span<StreamStats> per_stream_;
  const StreamEventFn* stream_event_ = nullptr;
  StreamStats run_total_;
  std::mutex merge_m_;  ///< serializes per-stream stat merges
};

}  // namespace mimonet::core
