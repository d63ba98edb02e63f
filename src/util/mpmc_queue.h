// Bounded multi-producer multi-consumer queue.
//
// The paper's runtime engine (§6.1) pipelines preprocessing producers and DNN
// execution consumers through an MPMC queue (folly::MPMCQueue in the original).
// This one is a mutex around a std::queue with two condition variables (one
// for "not full", one for "not empty"): push blocks while full, pop blocks
// while empty, and a close() protocol lets consumers drain and exit cleanly.
#ifndef SMOL_UTIL_MPMC_QUEUE_H_
#define SMOL_UTIL_MPMC_QUEUE_H_

#include <condition_variable>
#include <cstddef>
#include <mutex>
#include <optional>
#include <queue>
#include <vector>

namespace smol {

/// \brief Bounded blocking MPMC queue with a close protocol.
///
/// Push blocks while full; Pop blocks while empty and the queue is open.
/// After Close(), pushes are rejected and pops drain remaining items, then
/// return std::nullopt. All operations are thread-safe.
template <typename T>
class MpmcQueue {
 public:
  /// \param capacity maximum number of buffered items (>= 1).
  explicit MpmcQueue(size_t capacity) : capacity_(capacity < 1 ? 1 : capacity) {}

  MpmcQueue(const MpmcQueue&) = delete;
  MpmcQueue& operator=(const MpmcQueue&) = delete;

  /// Blocks until space is available; returns false if the queue was closed.
  bool Push(T item) { return PushReclaim(item); }

  /// Non-blocking push; returns false when full or closed.
  bool TryPush(T item) { return TryPushReclaim(item); }

  /// Like Push/TryPush, but \p item is only moved from on success: when the
  /// push fails the caller still owns it. The serving runtime relies on this
  /// to complete rejected requests (which carry a promise) instead of
  /// silently dropping them.
  bool PushReclaim(T& item) {
    std::unique_lock<std::mutex> lock(mutex_);
    not_full_.wait(lock, [&] { return closed_ || items_.size() < capacity_; });
    if (closed_) return false;
    items_.push(std::move(item));
    lock.unlock();
    not_empty_.notify_one();
    return true;
  }
  bool TryPushReclaim(T& item) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (closed_ || items_.size() >= capacity_) return false;
      items_.push(std::move(item));
    }
    not_empty_.notify_one();
    return true;
  }

  /// Blocks until an item is available or the queue is closed and drained.
  std::optional<T> Pop() {
    std::unique_lock<std::mutex> lock(mutex_);
    not_empty_.wait(lock, [&] { return closed_ || !items_.empty(); });
    if (items_.empty()) return std::nullopt;  // closed and drained
    T item = std::move(items_.front());
    items_.pop();
    lock.unlock();
    not_full_.notify_one();
    return item;
  }

  /// Non-blocking pop.
  std::optional<T> TryPop() {
    std::unique_lock<std::mutex> lock(mutex_);
    if (items_.empty()) return std::nullopt;
    T item = std::move(items_.front());
    items_.pop();
    lock.unlock();
    not_full_.notify_one();
    return item;
  }

  /// Closes the queue: subsequent pushes fail, pops drain then end.
  void Close() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      closed_ = true;
    }
    not_empty_.notify_all();
    not_full_.notify_all();
  }

  bool closed() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return closed_;
  }

  size_t size() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return items_.size();
  }

  size_t capacity() const { return capacity_; }

 private:
  const size_t capacity_;
  mutable std::mutex mutex_;
  std::condition_variable not_full_;
  std::condition_variable not_empty_;
  std::queue<T> items_;
  bool closed_ = false;
};

}  // namespace smol

#endif  // SMOL_UTIL_MPMC_QUEUE_H_
