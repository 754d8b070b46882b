#include "sketch/bloom_filter.h"

#include <algorithm>
#include <bit>
#include <cstdio>
#include <cstdlib>

namespace distcache {

BloomFilter::BloomFilter(const Config& config)
    : config_(config),
      mask_(config.bits - 1),
      hashes_(config.hashes, config.seed),
      words_((config.hashes * config.bits + 63) / 64, 0) {
  if (!std::has_single_bit(config.bits)) {
    std::fprintf(stderr, "BloomFilter: width %zu bits is not a power of two\n",
                 config.bits);
    std::abort();
  }
  if (config.hashes == 0 || config.hashes > kMaxHashes) {
    std::fprintf(stderr, "BloomFilter: %zu hashes, want 1..%zu\n", config.hashes,
                 kMaxHashes);
    std::abort();
  }
}

bool BloomFilter::InsertAndTest(uint64_t key) {
  uint64_t hash[kMaxHashes];
  hashes_.HashAll(key, hash);
  bool present = true;
  for (size_t r = 0; r < config_.hashes; ++r) {
    const size_t bit = Bit(r, hash[r]);
    uint64_t& word = words_[bit / 64];
    const uint64_t m = uint64_t{1} << (bit % 64);
    present = present && (word & m) != 0;
    word |= m;
  }
  return present;
}

bool BloomFilter::MayContain(uint64_t key) const {
  uint64_t hash[kMaxHashes];
  hashes_.HashAll(key, hash);
  for (size_t r = 0; r < config_.hashes; ++r) {
    const size_t bit = Bit(r, hash[r]);
    if ((words_[bit / 64] & (uint64_t{1} << (bit % 64))) == 0) {
      return false;
    }
  }
  return true;
}

void BloomFilter::Reset() { std::fill(words_.begin(), words_.end(), 0); }

}  // namespace distcache
