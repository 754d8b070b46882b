// Walker/Vose alias-method sampler over a finite pmf: O(n) build, O(1) per draw.
//
// This is the "amortized Zipf sampling" half of the batched request hot path: the
// shard runtime builds one alias table over the head-key pmf (plus an aggregated
// tail bucket) and then samples each request with two table reads — the build cost
// is amortized over millions of draws. The sequential reference backend draws the
// same pmf by inverse CDF instead (DiscreteDistribution's guide table: one cutpoint
// read plus a short branchless search), which keeps it bit-identical to a plain
// lower_bound over the CDF.
#ifndef DISTCACHE_COMMON_ALIAS_SAMPLER_H_
#define DISTCACHE_COMMON_ALIAS_SAMPLER_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/random.h"

namespace distcache {

class AliasSampler {
 public:
  // Builds the table from (unnormalized, non-negative) weights. Empty or all-zero
  // weight vectors yield a sampler that always returns 0.
  explicit AliasSampler(const std::vector<double>& weights);
  AliasSampler() : AliasSampler(std::vector<double>{}) {}

  // Draws one bucket index, distributed proportionally to the build weights.
  uint32_t Sample(Rng& rng) const {
    const uint32_t i = static_cast<uint32_t>(rng.NextBounded(prob_.size()));
    return rng.NextDouble() < prob_[i] ? i : alias_[i];
  }

  // Amortized batch draw: fills out[0..n) with i.i.d. samples.
  void SampleBatch(Rng& rng, uint32_t* out, size_t n) const {
    for (size_t i = 0; i < n; ++i) {
      out[i] = Sample(rng);
    }
  }

  size_t num_buckets() const { return prob_.size(); }

  // Table memory (capacity-based: what the process actually holds).
  size_t bytes() const {
    return prob_.capacity() * sizeof(double) +
           alias_.capacity() * sizeof(uint32_t);
  }

 private:
  std::vector<double> prob_;    // acceptance threshold per bucket
  std::vector<uint32_t> alias_; // fallback bucket
};

// Two-level capped-Zipf sampler: O(hot_len) memory instead of O(pool).
//
// The dense samplers above materialize one bucket per candidate rank (the
// pool), which at 100M-key scale costs ~100 MB per process. This sampler keeps
// the exact alias treatment only for the hot head — the ranks that actually
// carry routing state — and collapses the rest into two aggregate buckets
// resolved in closed form:
//
//   level 1: alias table over [0, hot_len) individual ranks, plus one
//            "cold head" bucket ([hot_len, pool)) and one tail bucket
//            ([pool, num_keys), reported as the aggregated bucket id `pool`).
//   level 2: a cold-head hit picks its rank by continuous power-law
//            inverse-CDF: x = ((1-u)·a^(1-θ) + u·b^(1-θ))^(1/(1-θ)) over
//            x ∈ [hot_len+1, pool+1), rank = ⌊x⌋-1 (θ→1 limit: a·(b/a)^u).
//
// Bucket masses come from the same Zeta partial sums ZipfDistribution uses for
// its normalization, so head probabilities match the dense pmf exactly; the
// cold-head *conditional* distribution is the continuous approximation of the
// discrete power law (relative error ~θ/2r at rank r, negligible beyond the
// default 64K head). θ = 0 degenerates to exact uniform in both levels.
//
// The draw order differs from the dense samplers (two draws, plus one more on
// a cold-head hit), so this is an opt-in RNG stream: engines only use it under
// SimBackendConfig::two_level_sampling, and it is validated differentially,
// not against the closed-loop goldens.
class TwoLevelSampler {
 public:
  // Default hot-head width: wide enough that the continuous cold-head
  // approximation is far below any measurable tolerance, small enough that a
  // per-process rebuild is microseconds and kilobytes.
  static constexpr uint64_t kDefaultHotRanks = 1u << 16;

  // Samples bucket ids in [0, pool]: rank i < pool individually, `pool` as the
  // aggregated uncached-tail bucket — the same id space as the dense
  // head+tail samplers. `theta` <= 0 means uniform.
  TwoLevelSampler(uint64_t num_keys, double theta, uint64_t pool,
                  uint64_t hot_len = kDefaultHotRanks);

  uint32_t Sample(Rng& rng) const {
    const uint32_t i = alias_.Sample(rng);
    if (__builtin_expect(i < hot_len_, 1)) {
      return i;
    }
    if (i == hot_len_) {  // cold head: closed-form level 2
      if (__builtin_expect(pool_ == hot_len_, 0)) {
        return pool_;  // degenerate: zero-weight cold bucket surfaced by rounding
      }
      const double u = rng.NextDouble();
      const double x = theta_one_ ? cold_pow_ratio(u) : cold_inverse(u);
      // x lands in [r + 0.5, r + 1.5) for rank r (midpoint-centered windows,
      // matching Zeta's midpoint integral); round-half-up, then clamp the
      // floating-point edges back into the cold range.
      uint32_t rank = static_cast<uint32_t>(x + 0.5) - 1;
      if (rank < hot_len_) {
        rank = hot_len_;
      } else if (rank >= pool_) {
        rank = pool_ - 1;
      }
      return rank;
    }
    return pool_;  // aggregated tail bucket
  }

  void SampleBatch(Rng& rng, uint32_t* out, size_t n) const {
    for (size_t i = 0; i < n; ++i) {
      out[i] = Sample(rng);
    }
  }

  uint64_t hot_len() const { return hot_len_; }
  size_t bytes() const { return alias_.bytes(); }

 private:
  double cold_pow_ratio(double u) const;  // a·(b/a)^u path, θ ≈ 1
  double cold_inverse(double u) const;    // general power-law inversion

  AliasSampler alias_;
  uint32_t hot_len_ = 0;
  uint32_t pool_ = 0;
  bool theta_one_ = false;
  // Precomputed inversion constants over x ∈ [a, b) = [hot_len+0.5, pool+0.5).
  double cold_a_ = 1.0;
  double cold_log_ratio_ = 0.0;      // ln(b/a), θ ≈ 1 path
  double cold_pow_a_ = 0.0;          // a^(1-θ)
  double cold_pow_span_ = 0.0;       // b^(1-θ) - a^(1-θ)
  double inv_one_minus_theta_ = 1.0;
};

}  // namespace distcache

#endif  // DISTCACHE_COMMON_ALIAS_SAMPLER_H_
