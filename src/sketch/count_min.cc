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
}

uint32_t CountMinSketch::Update(uint64_t key) {
  uint32_t estimate = std::numeric_limits<uint32_t>::max();
  for (size_t r = 0; r < config_.rows; ++r) {
    uint32_t& cell = counters_[Cell(r, key)];
    if (cell < config_.counter_max) {
      ++cell;  // saturating, like a fixed-width data-plane register
    }
    estimate = std::min(estimate, cell);
  }
  return estimate;
}

uint32_t CountMinSketch::Estimate(uint64_t key) const {
  uint32_t estimate = std::numeric_limits<uint32_t>::max();
  for (size_t r = 0; r < config_.rows; ++r) {
    estimate = std::min(estimate, counters_[Cell(r, key)]);
  }
  return estimate;
}

void CountMinSketch::Prefetch(uint64_t key) const {
  for (size_t r = 0; r < config_.rows; ++r) {
    __builtin_prefetch(&counters_[Cell(r, key)], 1, 1);
  }
}

void CountMinSketch::Reset() { std::fill(counters_.begin(), counters_.end(), 0); }

}  // namespace distcache
