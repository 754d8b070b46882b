// ShmSpscRing — the SpscRing (runtime/spsc_ring.h) ported onto the shared
// arena for cross-process transport. No engine uses it (the shard runtime's
// shards publish telemetry through one arena slot each,
// sim/multiproc_backend.h); the arena tests, bench_micro and perfbench's
// transport replay measure it.
//
// Same Lamport structure and memory-ordering discipline as the in-process
// ring: producer-released tail, consumer-released head, each on its own cache
// line, with process-*local* cached copies of the opposite index so the common
// case (neither full nor empty) touches only the issuing process's own state
// and the slot bytes. The differences are exactly what crossing an address
// space forces:
//
//   * storage is raw fixed-size slots in the arena (POD bytes, no
//     constructors, no heap payloads — a sender serializes into the slot), because a std::vector or shared_ptr crossing a process
//     boundary would be a dangling pointer in the receiver;
//   * the shared state is a plain-offset header + slot array; nothing in the
//     arena is a pointer, so the mapping address does not need to agree
//     across processes (it does anyway, by fork inheritance);
//   * the object each process holds (this class) is a *view*: it lives in
//     process-local memory and carries the producer/consumer index caches, so
//     attaching is free and the caches are private by construction (in the
//     in-process ring the same fields are merely cache-line-separated).
//
// Producer API is acquire-a-slot/publish rather than push-a-T: the sender
// serializes directly into the slot (TryStage returns the slot pointer, or
// null when full), then Publish() releases every staged slot with one tail
// store — the same batched-release idiom as the in-process ring. Consumer API
// is Front()/Pop(): zero-copy deserialize in place, then release the slot.
//
// Capacity must be a power of two; both sides must be constructed with the
// same geometry (compute one layout before the fork, and they are).
#ifndef DISTCACHE_RUNTIME_SHM_RING_H_
#define DISTCACHE_RUNTIME_SHM_RING_H_

#include <atomic>
#include <cassert>
#include <cstddef>
#include <cstdint>

#include "common/cacheline.h"

namespace distcache {

class ShmSpscRing {
 public:
  // Shared header: the two index lines, padded so head can never invalidate
  // tail. Slots follow immediately (offset SlotsOffset()).
  struct SharedHeader {
    alignas(kCacheLineSize) std::atomic<uint64_t> tail;
    alignas(kCacheLineSize) std::atomic<uint64_t> head;
    alignas(kCacheLineSize) uint8_t end_pad[kCacheLineSize];
  };

  static size_t SlotsOffset() { return sizeof(SharedHeader); }
  // Arena bytes for a ring of `capacity` (power of two) slots of `slot_size`
  // bytes, each slot cache-line-aligned.
  static size_t BytesFor(size_t capacity, size_t slot_size) {
    return SlotsOffset() + capacity * AlignedSlotSize(slot_size);
  }
  static size_t AlignedSlotSize(size_t slot_size) {
    return (slot_size + kCacheLineSize - 1) & ~(kCacheLineSize - 1);
  }

  ShmSpscRing() = default;
  // Attaches a view to ring storage at `base` (reserved before the fork,
  // zero-initialized arena memory — a zeroed SharedHeader is a valid empty
  // ring, so there is no separate Init step to race on).
  ShmSpscRing(void* base, size_t capacity, size_t slot_size)
      : hdr_(static_cast<SharedHeader*>(base)),
        slots_(static_cast<uint8_t*>(base) + SlotsOffset()),
        stride_(AlignedSlotSize(slot_size)),
        slot_size_(slot_size),
        mask_(capacity - 1) {
    assert(capacity != 0 && (capacity & (capacity - 1)) == 0);
  }

  size_t capacity() const { return mask_ + 1; }
  size_t slot_size() const { return slot_size_; }

  // ---- producer side -------------------------------------------------------

  // Claims the next slot for writing without publishing it; returns null when
  // the ring is full. Staged slots become visible at the next Publish().
  void* TryStage() {
    if (staged_ - head_cache_ > mask_) {
      head_cache_ = hdr_->head.load(std::memory_order_acquire);
      if (staged_ - head_cache_ > mask_) {
        return nullptr;  // full
      }
    }
    void* slot = slots_ + (staged_ & mask_) * stride_;
    ++staged_;
    return slot;
  }

  // Releases every staged slot with one tail store. No-op when nothing is
  // staged. The release also orders any *earlier* shared-memory writes of this
  // process (e.g. publishes into other rings) before the tail value.
  void Publish() {
    if (staged_ != hdr_->tail.load(std::memory_order_relaxed)) {
      hdr_->tail.store(staged_, std::memory_order_release);
    }
  }

  // ---- consumer side -------------------------------------------------------

  // Oldest unconsumed slot, or null when the ring is (apparently) empty. The
  // slot stays valid until Pop().
  const void* Front() {
    const uint64_t head = hdr_->head.load(std::memory_order_relaxed);
    if (head == tail_cache_) {
      tail_cache_ = hdr_->tail.load(std::memory_order_acquire);
      if (head == tail_cache_) {
        return nullptr;  // empty
      }
    }
    return slots_ + (head & mask_) * stride_;
  }

  // Releases the slot returned by the last non-null Front().
  void Pop() {
    const uint64_t head = hdr_->head.load(std::memory_order_relaxed);
    hdr_->head.store(head + 1, std::memory_order_release);
  }

  // Consumer-side emptiness probe: one acquire load of the producer's tail
  // when the cached bound is exhausted, nothing otherwise.
  bool EmptyApprox() {
    const uint64_t head = hdr_->head.load(std::memory_order_relaxed);
    if (head != tail_cache_) {
      return false;
    }
    tail_cache_ = hdr_->tail.load(std::memory_order_acquire);
    return head == tail_cache_;
  }

 private:
  SharedHeader* hdr_ = nullptr;
  uint8_t* slots_ = nullptr;
  size_t stride_ = 0;
  size_t slot_size_ = 0;
  uint64_t mask_ = 0;

  // Process-local index caches (the view object is private to its process, so
  // no alignment gymnastics needed — producer and consumer hold separate
  // views even when they share an address space in tests).
  uint64_t staged_ = 0;      // producer: next slot to write
  uint64_t head_cache_ = 0;  // producer: cached consumer head
  uint64_t tail_cache_ = 0;  // consumer: cached producer tail
};

}  // namespace distcache

#endif  // DISTCACHE_RUNTIME_SHM_RING_H_
