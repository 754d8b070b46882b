#include "sketch/count_min.h"

#include <algorithm>
#include <bit>
#include <cstdio>
#include <cstdlib>

namespace distcache {

CountMinSketch::CountMinSketch(const Config& config)
    : config_(config),
      mask_(config.width - 1),
      hashes_(config.rows, config.seed),
      counters_(config.rows * config.width, 0) {
  if (!std::has_single_bit(config.width)) {
    std::fprintf(stderr, "CountMinSketch: width %zu is not a power of two\n",
                 config.width);
    std::abort();
  }
  if (config.rows == 0 || config.rows > kMaxRows) {
    std::fprintf(stderr, "CountMinSketch: %zu rows, want 1..%zu\n", config.rows,
                 kMaxRows);
    std::abort();
  }
}

uint32_t CountMinSketch::Update(uint64_t key) {
  uint64_t hash[kMaxRows];
  hashes_.HashAll(key, hash);
  uint32_t estimate = std::numeric_limits<uint32_t>::max();
  for (size_t r = 0; r < config_.rows; ++r) {
    uint32_t& cell = counters_[Cell(r, hash[r])];
    if (cell < config_.counter_max) {
      ++cell;  // saturating, like a fixed-width data-plane register
    }
    estimate = std::min(estimate, cell);
  }
  return estimate;
}

uint32_t CountMinSketch::Estimate(uint64_t key) const {
  uint64_t hash[kMaxRows];
  hashes_.HashAll(key, hash);
  uint32_t estimate = std::numeric_limits<uint32_t>::max();
  for (size_t r = 0; r < config_.rows; ++r) {
    estimate = std::min(estimate, counters_[Cell(r, hash[r])]);
  }
  return estimate;
}

void CountMinSketch::Prefetch(uint64_t key) const {
  uint64_t hash[kMaxRows];
  hashes_.HashAll(key, hash);
  for (size_t r = 0; r < config_.rows; ++r) {
    __builtin_prefetch(&counters_[Cell(r, hash[r])], 1, 1);
  }
}

void CountMinSketch::Reset() { std::fill(counters_.begin(), counters_.end(), 0); }

}  // namespace distcache
