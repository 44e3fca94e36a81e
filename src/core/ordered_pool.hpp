// The deterministic worker pool behind LinkSimulator and MuLinkSimulator.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <deque>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

#include "core/bounded_queue.hpp"

namespace mimonet::core {

/// Worker count for a run of `bound` items: `requested`, or the hardware
/// concurrency when 0, never more than there are items.
[[nodiscard]] inline std::size_t pool_threads(std::size_t requested,
                                              std::size_t bound) {
  const std::size_t n =
      requested != 0
          ? requested
          : std::max<std::size_t>(1, std::thread::hardware_concurrency());
  return std::min(n, bound);
}

/// Fold items 0 .. bound-1 in order over `n_threads` workers: worker w
/// produces items w, w + n, w + 2n, ... into its own BoundedQueue and the
/// calling thread pops them in global order. Each item depends only on its
/// index, so the fold is the same for any worker count.
///  - make_producer() runs once per worker, on the worker thread; it returns
///    the worker's producer, callable as produce(p) -> Work. All per-worker
///    state (transceivers, workspaces) lives in it.
///  - fold(const Work&) runs on the calling thread, in index order; returning
///    true stops the run early.
/// n_threads <= 1 runs one producer on the calling thread. A worker's
/// exception is rethrown once the fold reaches the item it did not deliver;
/// an exception from fold shuts the pool down and propagates.
template <class Work, class MakeProducer, class Fold>
void run_ordered(std::size_t bound, std::size_t n_threads,
                 MakeProducer&& make_producer, Fold&& fold) {
  if (n_threads <= 1) {
    auto produce = make_producer();
    for (std::size_t p = 0; p < bound; ++p) {
      if (fold(produce(p))) break;
    }
    return;
  }

  constexpr std::size_t kQueueDepth = 4;
  std::deque<BoundedQueue<Work>> queues;  // stable addresses, no moves
  for (std::size_t w = 0; w < n_threads; ++w) queues.emplace_back(kQueueDepth);

  std::atomic<bool> stop{false};
  std::mutex err_mutex;
  std::exception_ptr worker_error;

  std::vector<std::thread> workers;
  workers.reserve(n_threads);
  const auto shut_down = [&] {
    stop.store(true, std::memory_order_relaxed);
    for (auto& q : queues) q.stop();
    for (auto& t : workers) t.join();
  };

  bool worker_died = false;
  try {
    for (std::size_t w = 0; w < n_threads; ++w) {
      workers.emplace_back([&, w] {
        try {
          auto produce = make_producer();
          for (std::size_t p = w; p < bound; p += n_threads) {
            if (stop.load(std::memory_order_relaxed)) break;
            if (!queues[w].push(produce(p))) break;
          }
        } catch (...) {
          const std::lock_guard lk(err_mutex);
          if (!worker_error) worker_error = std::current_exception();
        }
        queues[w].close();
      });
    }
    for (std::size_t p = 0; p < bound; ++p) {
      auto work = queues[p % n_threads].pop();
      if (!work) {  // producer exited without delivering: it threw
        worker_died = true;
        break;
      }
      if (fold(*work)) break;
    }
  } catch (...) {
    // A fold exception, or a worker thread that failed to start: join the
    // started workers before the queues they use go away.
    shut_down();
    throw;
  }
  shut_down();
  if (worker_died && worker_error) std::rethrow_exception(worker_error);
}

}  // namespace mimonet::core
