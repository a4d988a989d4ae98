// The deterministic parallel executor behind the Monte-Carlo engines
// (LinkSimulator and both MuLinkSimulator directions): a bounded
// single-producer queue per worker, and run_ordered_fold, which folds the
// workers' results on the calling thread in global item order. That order
// is what makes the engines' aggregates thread-count invariant.
//
// ReceiverFarm keeps its own persistent pool: it holds warm per-worker
// workspaces across calls, steals work and completes jobs in any order.
#pragma once

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <exception>
#include <mutex>
#include <optional>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

namespace mimonet::core {

/// A single-producer, single-consumer queue of at most `cap` items, held in
/// a ring of `cap` slots allocated once: items move in and out of the
/// slots, so a push or pop never allocates. T must be default
/// constructible and move assignable. close() signals the producer is
/// done; stop() aborts a blocked producer.
template <class T>
class BoundedQueue {
 public:
  explicit BoundedQueue(std::size_t cap) : slots_(cap) {}

  bool push(T&& work) {
    std::unique_lock lk(m_);
    cv_space_.wait(lk, [&] { return size_ < slots_.size() || stopped_; });
    if (stopped_) return false;
    slots_[(head_ + size_) % slots_.size()] = std::move(work);
    ++size_;
    cv_item_.notify_one();
    return true;
  }

  void close() {
    const std::lock_guard lk(m_);
    closed_ = true;
    cv_item_.notify_all();
  }

  void stop() {
    const std::lock_guard lk(m_);
    stopped_ = true;
    cv_space_.notify_all();
  }

  /// Next item in production order; nullopt once the producer closed and
  /// the queue drained (i.e. the worker exited early).
  std::optional<T> pop() {
    std::unique_lock lk(m_);
    cv_item_.wait(lk, [&] { return size_ > 0 || closed_; });
    if (size_ == 0) return std::nullopt;
    std::optional<T> work(std::move(slots_[head_]));
    head_ = (head_ + 1) % slots_.size();
    --size_;
    cv_space_.notify_one();
    return work;
  }

 private:
  std::mutex m_;
  std::condition_variable cv_item_;
  std::condition_variable cv_space_;
  std::vector<T> slots_;
  std::size_t head_ = 0;  ///< slot of the oldest item
  std::size_t size_ = 0;
  bool closed_ = false;
  bool stopped_ = false;
};

/// Simulate items 0 .. n_items-1 and fold their results in item order on
/// the calling thread.
///
/// - `make_engine()` builds one engine state; `engine.simulate(p)` returns
///   item p's result. Worker w owns one engine and simulates the items
///   p ≡ w (mod n) in increasing order, feeding its own queue of depth 4.
/// - `fold(result)` runs on the caller in item order (merge, observers);
///   returning true stops the run after that item.
/// - n_threads = 0 means hardware concurrency; the pool never exceeds
///   n_items, and n_threads <= 1 runs inline on the caller.
///
/// One shutdown path: stop and join every started worker, then rethrow the
/// first exception in item order — the one that lost the fold its next
/// item, or the one the fold (or starting a thread) threw.
template <class MakeEngine, class Fold>
void run_ordered_fold(std::size_t n_items, std::size_t n_threads,
                      const MakeEngine& make_engine, Fold&& fold) {
  if (n_items == 0) return;
  if (n_threads == 0) {
    n_threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  n_threads = std::min(n_threads, n_items);

  if (n_threads <= 1) {
    auto engine = make_engine();
    for (std::size_t p = 0; p < n_items; ++p) {
      if (fold(engine.simulate(p))) return;
    }
    return;
  }

  using Engine = std::invoke_result_t<const MakeEngine&>;
  using Work = decltype(std::declval<Engine&>().simulate(std::size_t{}));
  constexpr std::size_t kQueueDepth = 4;
  std::deque<BoundedQueue<Work>> queues;
  for (std::size_t w = 0; w < n_threads; ++w) queues.emplace_back(kQueueDepth);
  // errors[w] is written before worker w closes its queue, so the caller
  // reads it safely once pop() reports the queue closed.
  std::vector<std::exception_ptr> errors(n_threads);
  std::atomic<bool> stop{false};

  std::vector<std::thread> workers;
  workers.reserve(n_threads);
  std::exception_ptr error;
  try {
    for (std::size_t w = 0; w < n_threads; ++w) {
      workers.emplace_back([&, w] {
        try {
          auto engine = make_engine();
          for (std::size_t p = w; p < n_items; p += n_threads) {
            if (stop.load(std::memory_order_relaxed)) break;
            if (!queues[w].push(engine.simulate(p))) break;
          }
        } catch (...) {
          errors[w] = std::current_exception();
        }
        queues[w].close();
      });
    }
    for (std::size_t p = 0; p < n_items; ++p) {
      auto work = queues[p % n_threads].pop();
      if (!work) {  // the worker exited without delivering: it threw
        error = errors[p % n_threads];
        break;
      }
      if (fold(std::move(*work))) break;
    }
  } catch (...) {
    error = std::current_exception();
  }
  stop.store(true, std::memory_order_relaxed);
  for (auto& q : queues) q.stop();
  for (auto& t : workers) t.join();
  if (error) std::rethrow_exception(error);
}

}  // namespace mimonet::core
