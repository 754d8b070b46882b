// Count-Min sketch (Cormode & Muthukrishnan) — the frequency estimator inside the
// switch heavy-hitter detector. The paper's prototype uses 4 register arrays × 64K
// 16-bit slots per array (§5); those are the defaults here, including saturating
// 16-bit counters to mirror the data-plane register width.
//
// The rows are stored back to back in one array, and a slot is the row hash
// masked to the width: widths must be powers of two (register arrays are), and
// the constructor aborts on any other width. The row hashes are one interleaved
// HashFamily evaluated in a single pass per key, so the constructor also aborts
// unless 1 <= rows <= kMaxRows (zero rows would estimate every key as
// UINT32_MAX).
#ifndef DISTCACHE_SKETCH_COUNT_MIN_H_
#define DISTCACHE_SKETCH_COUNT_MIN_H_

#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

#include "common/hash.h"

namespace distcache {

class CountMinSketch {
 public:
  struct Config {
    size_t rows = 4;        // paper: 4 register arrays
    size_t width = 65536;   // paper: 64K slots per array
    uint32_t counter_max = std::numeric_limits<uint16_t>::max();  // 16-bit registers
    uint64_t seed = 0x5eedc0de;
  };

  static constexpr size_t kMaxRows = 8;

  explicit CountMinSketch(const Config& config);

  // Increments the counters for `key` and returns the post-update estimate.
  uint32_t Update(uint64_t key);

  // Point-query estimate of the count of `key` (an overestimate in expectation).
  uint32_t Estimate(uint64_t key) const;

  // Zeroes all counters. The switch agent does this every second (§5).
  void Reset();

  size_t rows() const { return config_.rows; }
  size_t width() const { return config_.width; }

  // Total bits of state — used by the switch resource model (Table 1).
  size_t MemoryBits() const { return config_.rows * config_.width * 16; }

 private:
  // Index of the counter in row `row` of the flat counter array that the row's
  // hash `hash` selects.
  size_t Cell(size_t row, uint64_t hash) const {
    return row * config_.width + static_cast<size_t>(hash & mask_);
  }

  Config config_;
  uint64_t mask_;
  HashFamily hashes_;
  std::vector<uint32_t> counters_;  // rows × width, row-major
};

}  // namespace distcache

#endif  // DISTCACHE_SKETCH_COUNT_MIN_H_
