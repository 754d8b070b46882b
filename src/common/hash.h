// Hashing primitives for DistCache.
//
// DistCache's core idea (paper §3.1) is to partition the hot objects between cache
// layers with *independent* hash functions h0(x), h1(x). The analysis (appendix A.2)
// requires the two functions to behave like independent random functions so that the
// object→cache-node bipartite graph has the expansion property. We provide:
//
//  * Mix64           — a strong 64-bit finalizer (SplitMix64 / Murmur3-style avalanche),
//                      used for key placement and generic hashing.
//  * TabulationHash  — Zobrist/tabulation hashing: 3-independent and, per Pătraşcu &
//                      Thorup, behaves like a fully random function for load-balancing
//                      style applications. Different seeds yield independent functions.
//  * HashFamily      — a family {h_0, h_1, ..., h_{r-1}} of independent
//                      tabulation functions (one per cache layer or sketch
//                      row) with interleaved tables, so all r are evaluated
//                      in one pass over the key's bytes.
#ifndef DISTCACHE_COMMON_HASH_H_
#define DISTCACHE_COMMON_HASH_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace distcache {

// SplitMix64 finalizer. Bijective on 64-bit integers; excellent avalanche behaviour.
constexpr uint64_t Mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

// Combines two 64-bit hashes (boost::hash_combine style, 64-bit constants).
constexpr uint64_t HashCombine(uint64_t a, uint64_t b) {
  return a ^ (b + 0x9e3779b97f4a7c15ULL + (a << 12) + (a >> 4));
}

// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320) over a byte range.
// Used as the integrity check on multiproc stats blobs: unlike the avalanche
// hashes above it is the standard wire checksum, so a corrupted shared-memory
// region is detected with well-understood error characteristics.
uint32_t Crc32(const void* data, size_t len);

// Simple tabulation hashing over the 8 bytes of a 64-bit key.
//
// Each of the 8 key bytes indexes a 256-entry table of random 64-bit words; the hash is
// the XOR of the selected words. Tabulation hashing is 3-independent and is known to
// give full-randomness-like guarantees for cuckoo hashing, linear probing and chaining
// (Pătraşcu–Thorup, "The Power of Simple Tabulation Hashing"). Two instances seeded
// differently are independent functions — exactly what DistCache's h0/h1 need.
class TabulationHash {
 public:
  explicit TabulationHash(uint64_t seed);

  uint64_t operator()(uint64_t key) const {
    uint64_t h = 0;
    for (int i = 0; i < 8; ++i) {
      h ^= table_[i][static_cast<uint8_t>(key >> (8 * i))];
    }
    return h;
  }

  uint64_t seed() const { return seed_; }

 private:
  uint64_t seed_;
  std::array<std::array<uint64_t, 256>, 8> table_;
};

// A family of independent hash functions {h_0 .. h_{count-1}}: one per cache
// layer (h_i(key) % buckets gives the cache node index of `key` within layer
// i), or one per sketch row. h_i is the TabulationHash of the i-th derived
// seed, filled from the same RNG stream, but the count tables are interleaved
// as [byte][value][i]: the count words one key byte selects sit side by side,
// so HashAll reads every function's words from the same 8 table lines.
class HashFamily {
 public:
  // Creates `count` independent functions derived from `seed`.
  HashFamily(size_t count, uint64_t seed);

  // Value of h_i(key).
  uint64_t Hash(size_t i, uint64_t key) const {
    uint64_t h = 0;
    for (int b = 0; b < 8; ++b) {
      h ^= Cell(b, key)[i];
    }
    return h;
  }

  // Writes h_0(key) .. h_{size()-1}(key) to out[0 .. size()). Families of up
  // to 4 functions (every sketch here) keep the running XORs in registers.
  void HashAll(uint64_t key, uint64_t* out) const {
    switch (count_) {
      case 1: return HashAllOf<1>(key, out);
      case 2: return HashAllOf<2>(key, out);
      case 3: return HashAllOf<3>(key, out);
      case 4: return HashAllOf<4>(key, out);
      default:
        for (size_t i = 0; i < count_; ++i) {
          out[i] = Hash(i, key);
        }
    }
  }

  // Bucket (cache-node index) of `key` in layer i with `buckets` nodes.
  size_t Bucket(size_t i, uint64_t key, size_t buckets) const {
    return static_cast<size_t>(Hash(i, key) % buckets);
  }

  size_t size() const { return count_; }

 private:
  // Cache-line-aligned storage unit, so a run of up to 8 words never straddles
  // two lines when count is a power of two.
  struct alignas(64) Line {
    uint64_t words[8];
  };

  template <size_t kCount>
  void HashAllOf(uint64_t key, uint64_t* out) const {
    uint64_t h[kCount] = {};
    for (int b = 0; b < 8; ++b) {
      const uint64_t* cell = Cell(b, key);
      for (size_t i = 0; i < kCount; ++i) {
        h[i] ^= cell[i];
      }
    }
    for (size_t i = 0; i < kCount; ++i) {
      out[i] = h[i];
    }
  }

  // The count words key byte `b` selects.
  const uint64_t* Cell(int b, uint64_t key) const {
    const size_t value = static_cast<uint8_t>(key >> (8 * b));
    return reinterpret_cast<const uint64_t*>(lines_.data()) +
           (static_cast<size_t>(b) * 256 + value) * count_;
  }

  size_t count_;
  std::vector<Line> lines_;
};

}  // namespace distcache

#endif  // DISTCACHE_COMMON_HASH_H_
