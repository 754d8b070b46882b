// Bounded lock-free single-producer/single-consumer ring for typed in-process
// messages.
//
// The shard runtime (sim/multiproc_backend.h) runs the same design ported onto
// the shared-memory arena (runtime/shm_ring.h): one ring per directed shard
// pair, so the request loop's batch-boundary poll is a single acquire load per
// peer and a send never takes a lock or wakes a futex. This typed version is
// the reference the port follows and the in-process baseline the ring
// microbenchmarks measure.
//
// Layout: the classic Lamport ring with head (consumer) and tail (producer)
// indices on their own cache lines, plus a producer-side cached copy of head
// and a consumer-side cached copy of tail. The caches make the common case —
// ring neither full nor empty — touch only the issuing thread's own line and
// the slot itself: the shared index line is read only when the cached bound is
// exhausted, which amortizes cross-core traffic over capacity-many operations
// (Lee et al.'s "FastForward"-style refinement; same trick as folly
// ProducerConsumerQueue).
//
// Batched publish: TryStage() writes a slot without making it visible;
// Publish() releases every staged slot with one tail store. A producer that
// emits several messages at one batch boundary (telemetry fan-out assembles
// one message per peer, but a flush can emit deltas + telemetry to the same
// peer) pays one release store instead of one per message. TryPush() is the
// stage+publish shorthand.
//
// Memory ordering: Publish() stores tail with release after the slot moves;
// TryPop() loads tail with acquire before reading the slot, and stores head
// with release after destroying it. A full ring rejects the push (returns
// false) — callers decide the backpressure policy (the shard runtime drains
// its own inboxes and retries, which cannot deadlock because every shard's
// send loop also consumes).
#ifndef DISTCACHE_RUNTIME_SPSC_RING_H_
#define DISTCACHE_RUNTIME_SPSC_RING_H_

#include <atomic>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <utility>

#include "common/cacheline.h"

namespace distcache {

template <typename T>
class SpscRing {
 public:
  // Capacity is rounded up to a power of two (masked index arithmetic); the
  // ring holds up to that many items.
  explicit SpscRing(size_t capacity) {
    size_t cap = 1;
    while (cap < capacity) {
      cap <<= 1;
    }
    mask_ = cap - 1;
    slots_ = std::make_unique<Slot[]>(cap);
  }

  ~SpscRing() {
    // Drain destructively, including staged-but-unpublished slots: a ring is
    // only destroyed after its producer and consumer threads joined, so every
    // write is visible here.
    for (size_t i = head_.load(std::memory_order_relaxed); i != staged_; ++i) {
      slots_[i & mask_].Destroy();
    }
  }

  SpscRing(const SpscRing&) = delete;
  SpscRing& operator=(const SpscRing&) = delete;

  size_t capacity() const { return mask_ + 1; }

  // ---- producer side -------------------------------------------------------

  // Writes `item` into the next slot *without publishing it*. Returns false
  // (item untouched) when the ring is full. Staged items become visible to the
  // consumer only at the next Publish().
  bool TryStage(T&& item) {
    if (staged_ - head_cache_ > mask_) {
      head_cache_ = head_.load(std::memory_order_acquire);
      if (staged_ - head_cache_ > mask_) {
        return false;  // full
      }
    }
    slots_[staged_ & mask_].Construct(std::move(item));
    ++staged_;
    return true;
  }

  // Releases every staged slot with one tail store. No-op when nothing is
  // staged.
  void Publish() {
    if (staged_ != tail_.load(std::memory_order_relaxed)) {
      tail_.store(staged_, std::memory_order_release);
    }
  }

  // Stage + publish in one call. Returns false when full.
  bool TryPush(T&& item) {
    if (!TryStage(std::move(item))) {
      return false;
    }
    Publish();
    return true;
  }

  // ---- consumer side -------------------------------------------------------

  // Pops the oldest item, or nullopt when the ring is (apparently) empty.
  std::optional<T> TryPop() {
    const size_t head = head_.load(std::memory_order_relaxed);
    if (head == tail_cache_) {
      tail_cache_ = tail_.load(std::memory_order_acquire);
      if (head == tail_cache_) {
        return std::nullopt;  // empty
      }
    }
    Slot& slot = slots_[head & mask_];
    std::optional<T> item(std::move(*slot.Get()));
    slot.Destroy();
    head_.store(head + 1, std::memory_order_release);
    return item;
  }

  // Consumer-side emptiness probe: one acquire load of the producer's tail when
  // the cached bound is exhausted, nothing otherwise. May report "empty" for a
  // push that has not yet published — exactly the staleness TryPop tolerates.
  bool EmptyApprox() {
    const size_t head = head_.load(std::memory_order_relaxed);
    if (head != tail_cache_) {
      return false;
    }
    tail_cache_ = tail_.load(std::memory_order_acquire);
    return head == tail_cache_;
  }

 private:
  // Manually-managed storage: slots outside [head, tail) hold no live T.
  struct Slot {
    alignas(T) unsigned char storage[sizeof(T)];

    void Construct(T&& item) { ::new (storage) T(std::move(item)); }
    T* Get() { return std::launder(reinterpret_cast<T*>(storage)); }
    void Destroy() { Get()->~T(); }
  };

  std::unique_ptr<Slot[]> slots_;
  size_t mask_ = 0;

  // Producer-owned line: staged (next slot to write) + cached consumer head.
  alignas(kCacheLineSize) size_t staged_ = 0;
  size_t head_cache_ = 0;
  // Shared index lines, one each so a head update never invalidates tail.
  alignas(kCacheLineSize) std::atomic<size_t> tail_{0};
  alignas(kCacheLineSize) std::atomic<size_t> head_{0};
  // Consumer-owned line: cached producer tail.
  alignas(kCacheLineSize) size_t tail_cache_ = 0;
};

}  // namespace distcache

#endif  // DISTCACHE_RUNTIME_SPSC_RING_H_
