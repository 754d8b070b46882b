#include "common/hash.h"

#include "common/random.h"

namespace distcache {

uint64_t HashBytes(const void* data, size_t len, uint64_t seed) {
  const auto* p = static_cast<const uint8_t*>(data);
  uint64_t h = 0xcbf29ce484222325ULL ^ seed;
  for (size_t i = 0; i < len; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ULL;
  }
  return Mix64(h);
}

uint32_t Crc32(const void* data, size_t len) {
  static const auto table = [] {
    std::array<uint32_t, 256> t{};
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1) ? 0xedb88320u ^ (c >> 1) : c >> 1;
      }
      t[i] = c;
    }
    return t;
  }();
  const auto* p = static_cast<const uint8_t*>(data);
  uint32_t crc = 0xffffffffu;
  for (size_t i = 0; i < len; ++i) {
    crc = table[(crc ^ p[i]) & 0xffu] ^ (crc >> 8);
  }
  return crc ^ 0xffffffffu;
}

namespace {

// Calls fn(i, word) for the 8 × 256 table words of the tabulation function
// seeded `seed`, i = byte * 256 + value: the one RNG stream both table
// layouts are filled from.
template <typename Fn>
void ForEachTableWord(uint64_t seed, Fn&& fn) {
  Rng rng(Mix64(seed ^ 0x7ab1e5eedULL));
  for (size_t i = 0; i < 8 * 256; ++i) {
    fn(i, rng.Next());
  }
}

}  // namespace

TabulationHash::TabulationHash(uint64_t seed) : seed_(seed) {
  ForEachTableWord(seed, [&](size_t i, uint64_t word) {
    table_[i / 256][i % 256] = word;
  });
}

HashFamily::HashFamily(size_t count, uint64_t seed)
    : count_(count), lines_(256 * count) {  // 8 × 256 × count words, 8 per line
  uint64_t* words = reinterpret_cast<uint64_t*>(lines_.data());
  for (size_t f = 0; f < count; ++f) {
    ForEachTableWord(HashCombine(seed, Mix64(f + 1)),
                     [&](size_t i, uint64_t word) { words[i * count + f] = word; });
  }
}

}  // namespace distcache
