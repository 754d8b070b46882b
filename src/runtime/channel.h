// Blocking MPMC channel — the message transport between node threads in the runtime
// (switch and server inboxes, client reply queues). Consumers block in Receive();
// nothing polls a channel.
//
// Shutdown discipline: a channel is closed by its consumer side (Close). Send() on
// a closed channel is *rejected*, never silently enqueued — the bool return is the
// only delivery signal a producer gets, so it is [[nodiscard]]: every caller must
// either handle a false result (reply unavailable, count a drop, ...) or
// deliberately discard it with a cast. This is the compile-time regression guard
// for the stranded-message class of shutdown bug (a producer that assumes delivery
// while the consumer is gone).
#ifndef DISTCACHE_RUNTIME_CHANNEL_H_
#define DISTCACHE_RUNTIME_CHANNEL_H_

#include <condition_variable>
#include <deque>
#include <mutex>
#include <optional>
#include <utility>

namespace distcache {

template <typename T>
class Channel {
 public:
  // Enqueues `item` unless the channel is closed. Returns false — and drops the
  // item — when closed; see the header comment for the caller contract.
  //
  // The notify happens *under* the mutex, deliberately: reply channels are
  // owned by short-lived consumers (a runtime Client), and a consumer that
  // wakes from Receive(), takes the item and returns may destroy the channel
  // immediately. Holding mu_ across the signal pins the waiter inside wait()
  // until the signal completes, so the condvar can never be destroyed mid-
  // notify. (Signal-after-unlock is the textbook micro-optimization and was a
  // TSan-caught use-after-free here.)
  [[nodiscard]] bool Send(T item) {
    std::lock_guard<std::mutex> lock(mu_);
    if (closed_) {
      return false;
    }
    items_.push_back(std::move(item));
    cv_.notify_one();
    return true;
  }

  // Blocks until an item is available or the channel is closed and drained.
  std::optional<T> Receive() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [this] { return !items_.empty() || closed_; });
    if (items_.empty()) {
      return std::nullopt;
    }
    T item = std::move(items_.front());
    items_.pop_front();
    return item;
  }

  // Closes the channel: subsequent Sends are rejected; queued items remain
  // receivable until drained (Receive returns them, then nullopt). Notify under
  // the lock for the same lifetime reason as Send.
  void Close() {
    std::lock_guard<std::mutex> lock(mu_);
    closed_ = true;
    cv_.notify_all();
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<T> items_;
  bool closed_ = false;
};

}  // namespace distcache

#endif  // DISTCACHE_RUNTIME_CHANNEL_H_
