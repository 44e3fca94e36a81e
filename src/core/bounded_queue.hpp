// Bounded single-producer queue feeding a merging (consumer) thread — the
// backpressure primitive behind run_ordered (core/ordered_pool.hpp), the
// simulators' deterministic pool. Each worker owns one queue; the consumer
// pops queues in global packet order, which is what makes the pool's
// aggregates thread-count invariant.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <mutex>
#include <optional>
#include <utility>

namespace mimonet::core {

/// close() signals the producer is done; stop() aborts a blocked producer.
template <class T>
class BoundedQueue {
 public:
  explicit BoundedQueue(std::size_t cap) : cap_(cap) {}

  bool push(T&& work) {
    std::unique_lock lk(m_);
    cv_space_.wait(lk, [&] { return q_.size() < cap_ || stopped_; });
    if (stopped_) return false;
    q_.push_back(std::move(work));
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
    cv_item_.wait(lk, [&] { return !q_.empty() || closed_; });
    if (q_.empty()) return std::nullopt;
    T work = std::move(q_.front());
    q_.pop_front();
    cv_space_.notify_one();
    return work;
  }

 private:
  std::mutex m_;
  std::condition_variable cv_item_;
  std::condition_variable cv_space_;
  std::deque<T> q_;
  std::size_t cap_;
  bool closed_ = false;
  bool stopped_ = false;
};

}  // namespace mimonet::core
