// Bounded LRU map. Used by cache nodes for victim selection when a partition's slot
// budget is exceeded, and generally useful as a substrate container.
//
// Allocation-free after construction: entries live in a fixed array of
// capacity+1 slots (one spare, so Put can link the newcomer before choosing a
// victim), threaded on an intrusive doubly-linked recency list by slot index.
// Keys are found through an open-addressing index (linear probing, load <= 1/2)
// whose buckets carry a 32-bit hash tag; erasure uses backward-shift deletion,
// so there are no tombstones and probe chains never degrade. Each slot keeps
// its key's hash too, so evicting the LRU entry never rehashes it, and every
// lookup has an overload taking the key's HashOf() for callers that already
// computed it.
#ifndef DISTCACHE_SKETCH_LRU_MAP_H_
#define DISTCACHE_SKETCH_LRU_MAP_H_

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <optional>
#include <utility>
#include <vector>

#include "common/hash.h"

namespace distcache {

template <typename K, typename V>
class LruMap {
 public:
  explicit LruMap(size_t capacity) : capacity_(capacity) {
    if (capacity >= kNil - 1) {
      std::fprintf(stderr, "LruMap: capacity %zu exceeds the 32-bit slot index\n",
                   capacity);
      std::abort();
    }
    slots_.resize(capacity + 1);
    index_.resize(std::bit_ceil(2 * slots_.size()));
    mask_ = index_.size() - 1;
    Clear();
  }

  // The hash every lookup of `key` probes with.
  static uint32_t HashOf(const K& key) {
    return static_cast<uint32_t>(Mix64(static_cast<uint64_t>(std::hash<K>{}(key))));
  }

  // Inserts or updates; returns the evicted entry, if any, and stores its hash
  // in *victim_hash when that is non-null.
  std::optional<std::pair<K, V>> Put(const K& key, V value, uint32_t hash,
                                     uint32_t* victim_hash = nullptr) {
    size_t b = Probe(key, hash);
    if (index_[b].slot != kNil) {
      const uint32_t s = index_[b].slot;
      slots_[s].entry.second = std::move(value);
      Touch(s);
      return std::nullopt;
    }
    // At most `capacity` entries are live here, so the spare slot is free.
    const uint32_t s = free_;
    free_ = slots_[s].next;
    slots_[s].entry.first = key;
    slots_[s].entry.second = std::move(value);
    slots_[s].hash = hash;
    index_[b] = {s, hash};
    LinkFront(s);
    if (++size_ <= capacity_) {
      return std::nullopt;
    }
    const uint32_t victim = tail_;
    EraseBucket(Probe(slots_[victim].entry.first, slots_[victim].hash));
    if (victim_hash != nullptr) {
      *victim_hash = slots_[victim].hash;
    }
    std::pair<K, V> out = std::move(slots_[victim].entry);
    Release(victim);
    return out;
  }
  std::optional<std::pair<K, V>> Put(const K& key, V value) {
    return Put(key, std::move(value), HashOf(key));
  }

  // Looks up and promotes to most-recently-used.
  V* Get(const K& key) { return Get(key, HashOf(key)); }
  V* Get(const K& key, uint32_t hash) {
    const uint32_t s = Find(key, hash);
    if (s == kNil) {
      return nullptr;
    }
    Touch(s);
    return &slots_[s].entry.second;
  }

  // Lookup without promoting.
  const V* Peek(const K& key) const { return Peek(key, HashOf(key)); }
  const V* Peek(const K& key, uint32_t hash) const {
    const uint32_t s = Find(key, hash);
    return s == kNil ? nullptr : &slots_[s].entry.second;
  }

  // Mutable lookup without promoting (update a line in place — e.g. a dirty
  // bit — without counting as a use).
  V* PeekMutable(const K& key, uint32_t hash) {
    const uint32_t s = Find(key, hash);
    return s == kNil ? nullptr : &slots_[s].entry.second;
  }

  bool Erase(const K& key) { return Erase(key, HashOf(key)); }
  bool Erase(const K& key, uint32_t hash) {
    const size_t b = Probe(key, hash);
    const uint32_t s = index_[b].slot;
    if (s == kNil) {
      return false;
    }
    EraseBucket(b);
    Release(s);
    return true;
  }

  // Drops every entry (capacity and storage are kept).
  void Clear() {
    for (Bucket& bucket : index_) {
      bucket.slot = kNil;
    }
    for (size_t s = 0; s < slots_.size(); ++s) {
      slots_[s].next = s + 1 < slots_.size() ? static_cast<uint32_t>(s + 1) : kNil;
    }
    free_ = 0;
    head_ = tail_ = kNil;
    size_ = 0;
  }

  bool Contains(const K& key) const { return Contains(key, HashOf(key)); }
  bool Contains(const K& key, uint32_t hash) const { return Find(key, hash) != kNil; }
  size_t size() const { return size_; }
  size_t capacity() const { return capacity_; }
  bool empty() const { return size_ == 0; }

  // Least-recently-used entry, if any (the next eviction victim).
  const std::pair<K, V>* Oldest() const {
    return tail_ == kNil ? nullptr : &slots_[tail_].entry;
  }

  // Visits every entry in recency order, most-recently-used first.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (uint32_t s = head_; s != kNil; s = slots_[s].next) {
      fn(slots_[s].entry.first, slots_[s].entry.second);
    }
  }

 private:
  static constexpr uint32_t kNil = UINT32_MAX;

  struct Slot {
    std::pair<K, V> entry{};
    uint32_t hash = 0;     // HashOf(entry.first)
    uint32_t prev = kNil;
    uint32_t next = kNil;  // also the free-list link
  };
  struct Bucket {
    uint32_t slot = kNil;  // kNil = empty
    uint32_t hash = 0;     // low bits give the home bucket; all 32 are the tag
  };

  // Bucket holding `key`, or the empty bucket that ends its probe chain.
  size_t Probe(const K& key, uint32_t hash) const {
    for (size_t b = hash & mask_;; b = (b + 1) & mask_) {
      const Bucket& bucket = index_[b];
      if (bucket.slot == kNil ||
          (bucket.hash == hash && slots_[bucket.slot].entry.first == key)) {
        return b;
      }
    }
  }
  uint32_t Find(const K& key, uint32_t hash) const { return index_[Probe(key, hash)].slot; }

  // Backward-shift deletion: pull each later member of the cluster into the
  // hole unless that would move it before its home bucket.
  void EraseBucket(size_t hole) {
    for (size_t b = (hole + 1) & mask_; index_[b].slot != kNil; b = (b + 1) & mask_) {
      const size_t home = index_[b].hash & mask_;
      if (((b - home) & mask_) >= ((b - hole) & mask_)) {
        index_[hole] = index_[b];
        hole = b;
      }
    }
    index_[hole].slot = kNil;
  }

  void Unlink(uint32_t s) {
    Slot& slot = slots_[s];
    (slot.prev == kNil ? head_ : slots_[slot.prev].next) = slot.next;
    (slot.next == kNil ? tail_ : slots_[slot.next].prev) = slot.prev;
  }
  void LinkFront(uint32_t s) {
    slots_[s].prev = kNil;
    slots_[s].next = head_;
    (head_ == kNil ? tail_ : slots_[head_].prev) = s;
    head_ = s;
  }
  void Touch(uint32_t s) {
    if (s != head_) {
      Unlink(s);
      LinkFront(s);
    }
  }
  // Unlinks slot `s` (already out of the index) and returns it to the free list.
  void Release(uint32_t s) {
    Unlink(s);
    slots_[s].next = free_;
    free_ = s;
    --size_;
  }

  size_t capacity_;
  std::vector<Slot> slots_;
  std::vector<Bucket> index_;
  size_t mask_ = 0;
  uint32_t head_ = kNil;  // most recently used
  uint32_t tail_ = kNil;  // least recently used
  uint32_t free_ = kNil;
  size_t size_ = 0;
};

}  // namespace distcache

#endif  // DISTCACHE_SKETCH_LRU_MAP_H_
