// Bloom filter — paired with the Count-Min sketch in the heavy-hitter detector to
// avoid reporting the same heavy key to the switch agent repeatedly. The paper's
// prototype uses 3 register arrays × 256K 1-bit slots (§5); those are the defaults.
//
// The arrays are stored back to back in one uint64_t bitset, and a slot is the
// hash masked to the array width: widths must be powers of two, and the
// constructor aborts on any other width. The hashes are one interleaved
// HashFamily evaluated in a single pass per key, so the constructor also aborts
// unless 1 <= hashes <= kMaxHashes (zero hashes would make every key look
// present).
#ifndef DISTCACHE_SKETCH_BLOOM_FILTER_H_
#define DISTCACHE_SKETCH_BLOOM_FILTER_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/hash.h"

namespace distcache {

class BloomFilter {
 public:
  struct Config {
    size_t hashes = 3;       // paper: 3 register arrays
    size_t bits = 262144;    // paper: 256K 1-bit slots per array
    uint64_t seed = 0xb100f11e;
  };

  static constexpr size_t kMaxHashes = 8;

  explicit BloomFilter(const Config& config);

  // Inserts `key`; returns true if the key was possibly already present (i.e., all its
  // bits were already set before this insert).
  bool InsertAndTest(uint64_t key);

  void Insert(uint64_t key) { InsertAndTest(key); }

  // True if `key` may be present (false positives possible, negatives exact).
  bool MayContain(uint64_t key) const;

  void Reset();

  size_t MemoryBits() const { return config_.hashes * config_.bits; }

 private:
  // Index of the bit in array `row` of the flat bitset that the row's hash
  // `hash` selects.
  size_t Bit(size_t row, uint64_t hash) const {
    return row * config_.bits + static_cast<size_t>(hash & mask_);
  }

  Config config_;
  uint64_t mask_;
  HashFamily hashes_;
  // One bit-array per hash, as in the P4 implementation (one register array per
  // stage), laid out consecutively.
  std::vector<uint64_t> words_;
};

}  // namespace distcache

#endif  // DISTCACHE_SKETCH_BLOOM_FILTER_H_
