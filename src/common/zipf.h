// Key-popularity distributions.
//
// The paper's clients "use approximation techniques [10, 31] to quickly generate
// queries according to a Zipf distribution" over 100 million objects (§6.1). We
// implement the same approximation (Gray et al., "Quickly Generating Billion-Record
// Synthetic Databases", SIGMOD'94 — the YCSB zipfian generator), plus a uniform
// distribution, behind a common interface that also exposes the exact pmf needed by
// the fluid cluster simulator and the matching analysis.
#ifndef DISTCACHE_COMMON_ZIPF_H_
#define DISTCACHE_COMMON_ZIPF_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/random.h"

namespace distcache {

// A distribution over keys {0, 1, ..., num_keys-1}, ordered hottest-first: key 0 is the
// most popular object, key 1 the second, etc. (Hash-based placement decorrelates rank
// from location, so the rank ordering is without loss of generality.)
class KeyDistribution {
 public:
  virtual ~KeyDistribution() = default;

  // Draws one key.
  virtual uint64_t Sample(Rng& rng) const = 0;

  // Probability of drawing `key`.
  virtual double Pmf(uint64_t key) const = 0;

  // Total probability mass of the k hottest keys (keys 0..k-1).
  virtual double TopMass(uint64_t k) const = 0;

  virtual uint64_t num_keys() const = 0;
  virtual std::string name() const = 0;
};

// Zipf distribution with skew parameter theta in (0, 1]:  p_rank ∝ 1 / rank^theta.
// theta = 0.9 / 0.95 / 0.99 are the paper's workloads; theta = 1.0 (the classic
// harmonic Zipf) is handled via the logarithmic limits of the closed forms.
class ZipfDistribution : public KeyDistribution {
 public:
  ZipfDistribution(uint64_t num_keys, double theta);

  uint64_t Sample(Rng& rng) const override;
  double Pmf(uint64_t key) const override;
  double TopMass(uint64_t k) const override;
  uint64_t num_keys() const override { return num_keys_; }
  std::string name() const override;

  double theta() const { return theta_; }

  // Generalized harmonic number H(n, theta) = sum_{i=1..n} i^-theta, computed with an
  // exact prefix plus an Euler–Maclaurin integral tail (relative error < 1e-6 for the
  // sizes used here).
  static double Zeta(uint64_t n, double theta);

 private:
  uint64_t num_keys_;
  double theta_;
  double zetan_;   // H(num_keys, theta)
  double alpha_;   // 1 / (1 - theta)
  double eta_;     // Gray et al. approximation constant
  double zeta2_;   // H(2, theta)
};

// Uniform distribution over keys.
class UniformDistribution : public KeyDistribution {
 public:
  explicit UniformDistribution(uint64_t num_keys) : num_keys_(num_keys) {}

  uint64_t Sample(Rng& rng) const override { return rng.NextBounded(num_keys_); }
  double Pmf(uint64_t key) const override {
    return key < num_keys_ ? 1.0 / static_cast<double>(num_keys_) : 0.0;
  }
  double TopMass(uint64_t k) const override {
    if (k >= num_keys_) {
      return 1.0;
    }
    return static_cast<double>(k) / static_cast<double>(num_keys_);
  }
  uint64_t num_keys() const override { return num_keys_; }
  std::string name() const override { return "uniform"; }

 private:
  uint64_t num_keys_;
};

// Arbitrary finite distribution given by an explicit pmf (normalized internally).
// Used by the theory benches to construct workloads that satisfy Theorem 1's
// precondition max_i p_i · R ≤ T̃/2, and by the sequential engine over the
// head+tail pmf.
//
// Sampling is inverse-CDF in O(1) expected time through a guide table (Chen–Asau
// cutpoints): M + 1 entries, M the largest power of two ≤ max(1, n/2) capped at
// 2^16, with guide[j] = lower_bound(cdf, j/M). A draw u ∈ [0, 1) falls in cell
// j = ⌊u·M⌋ and searches only cdf[guide[j] .. guide[j+1]]. The answer is
// bit-identical to a full lower_bound: M is a power of two, so u·M and j/M are
// exact; lower_bound is monotone and j/M ≤ u < (j+1)/M, so the answer lies in
// [guide[j], guide[j+1]]; and cdf.back() == 1.0 keeps guide[M] ≤ n − 1.
//
// Weights must be finite and non-negative (the constructor aborts otherwise): the
// guide table is exact only over a monotone CDF.
class DiscreteDistribution : public KeyDistribution {
 public:
  explicit DiscreteDistribution(std::vector<double> pmf, std::string name = "discrete");

  uint64_t Sample(Rng& rng) const override { return InverseCdf(rng.NextDouble()); }

  // Smallest i with cdf[i] >= u, i.e. std::lower_bound over the CDF, for u in
  // [0, 1). Returns 0 for an empty pmf.
  uint64_t InverseCdf(double u) const;

  double Pmf(uint64_t key) const override {
    return key < pmf_.size() ? pmf_[key] : 0.0;
  }
  double TopMass(uint64_t k) const override;
  uint64_t num_keys() const override { return pmf_.size(); }
  std::string name() const override { return name_; }

  // Table memory (capacity-based), guide table included: the O(pool) cost the
  // two-level sampler avoids.
  size_t bytes() const {
    return (pmf_.capacity() + cdf_.capacity()) * sizeof(double) +
           guide_.capacity() * sizeof(uint32_t);
  }

 private:
  std::vector<double> pmf_;
  std::vector<double> cdf_;
  std::vector<uint32_t> guide_;  // M + 1 cutpoints; guide_[j] = lower_bound(cdf_, j/M)
  double guide_cells_ = 1.0;     // M, as a double for the exact u·M
  std::string name_;
};

// Zipf(theta) over k keys with every probability clipped at `cap` and the clipped
// mass redistributed over the remaining keys (iterative clip-and-renormalize). This
// is the canonical way to construct a maximally skewed workload that still satisfies
// the theorem's per-object rate bound: cap = T̃ / (2R) gives max_i p_i · R = T̃/2.
std::vector<double> CappedZipfPmf(uint64_t num_keys, double theta, double cap);

// Factory: theta == 0 means uniform, otherwise Zipf(theta). Matches the paper's
// workload naming ("uniform", "zipf-0.9", ...).
std::unique_ptr<KeyDistribution> MakeDistribution(uint64_t num_keys, double theta);

}  // namespace distcache

#endif  // DISTCACHE_COMMON_ZIPF_H_
