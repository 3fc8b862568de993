// pipeline.h - Bounded-queue stage primitive for the fused
// compute->compress->io pipeline.
//
// The FPGA PaSTRI successor (arXiv:2303.13632) computes and compresses
// ERIs in one hardware pipeline with no intermediate tensor; the
// software analogue connects asynchronous stages (quartet generation,
// batch encode, shard io) with bounded queues so the stages overlap
// while peak memory stays O(batch x depth).  `BoundedQueue` is that
// connective tissue: a small MPMC blocking queue with close semantics
// (the writing side signals end-of-stream; readers drain and stop) and
// per-side stall accounting, which is what the pipeline's overlap
// telemetry (pastri_qc_pipeline_*_stall_ns) is computed from.
//
// The queue is deliberately mutex-based, not lock-free: items are whole
// chunks (a batch of blocks or ~256 KiB of container bytes), so queue
// operations happen a few thousand times per run and correctness under
// ThreadSanitizer matters far more than nanoseconds of lock overhead.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <mutex>
#include <utility>

namespace pastri {

template <typename T>
class BoundedQueue {
 public:
  /// A queue that holds at most `capacity` items (>= 1).
  explicit BoundedQueue(std::size_t capacity)
      : capacity_(capacity < 1 ? 1 : capacity) {}

  BoundedQueue(const BoundedQueue&) = delete;
  BoundedQueue& operator=(const BoundedQueue&) = delete;

  /// Block until there is room, then enqueue.  Returns false (item
  /// dropped) if the queue was closed before room appeared.
  bool push(T item) {
    std::unique_lock<std::mutex> lk(mu_);
    if (items_.size() >= capacity_ && !closed_) {
      const auto t0 = std::chrono::steady_clock::now();
      not_full_.wait(lk, [&] { return items_.size() < capacity_ || closed_; });
      producer_wait_ns_ += elapsed_ns_(t0);
    }
    if (closed_) return false;
    items_.push_back(std::move(item));
    lk.unlock();
    not_empty_.notify_one();
    return true;
  }

  /// Block until an item is available, then dequeue into `out`.
  /// Returns false once the queue is closed AND drained.
  bool pop(T& out) {
    std::unique_lock<std::mutex> lk(mu_);
    if (items_.empty() && !closed_) {
      const auto t0 = std::chrono::steady_clock::now();
      not_empty_.wait(lk, [&] { return !items_.empty() || closed_; });
      consumer_wait_ns_ += elapsed_ns_(t0);
    }
    if (items_.empty()) return false;  // closed and drained
    out = std::move(items_.front());
    items_.pop_front();
    lk.unlock();
    not_full_.notify_one();
    return true;
  }

  /// End-of-stream: a blocked push() drops its item and returns false;
  /// pop() keeps draining what is queued, then returns false.
  void close() {
    {
      std::lock_guard<std::mutex> lk(mu_);
      closed_ = true;
    }
    not_full_.notify_all();
    not_empty_.notify_all();
  }

  bool closed() const {
    std::lock_guard<std::mutex> lk(mu_);
    return closed_;
  }

  std::size_t size() const {
    std::lock_guard<std::mutex> lk(mu_);
    return items_.size();
  }

  std::size_t capacity() const { return capacity_; }

  /// Cumulative time push() spent blocked on a full queue (the
  /// downstream stage is the bottleneck) and pop() on an empty one (the
  /// upstream stage is).  Read these after the stage threads have
  /// joined, or accept a slightly stale view.
  std::uint64_t producer_wait_ns() const {
    std::lock_guard<std::mutex> lk(mu_);
    return producer_wait_ns_;
  }
  std::uint64_t consumer_wait_ns() const {
    std::lock_guard<std::mutex> lk(mu_);
    return consumer_wait_ns_;
  }

 private:
  static std::uint64_t elapsed_ns_(
      std::chrono::steady_clock::time_point t0) {
    const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                        std::chrono::steady_clock::now() - t0)
                        .count();
    return ns > 0 ? static_cast<std::uint64_t>(ns) : 0;
  }

  const std::size_t capacity_;
  mutable std::mutex mu_;
  std::condition_variable not_full_;
  std::condition_variable not_empty_;
  std::deque<T> items_;
  bool closed_ = false;
  std::uint64_t producer_wait_ns_ = 0;
  std::uint64_t consumer_wait_ns_ = 0;
};

}  // namespace pastri
