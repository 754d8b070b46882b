#include "common/zipf.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace distcache {
namespace {

// Number of leading terms summed exactly before switching to the integral tail.
constexpr uint64_t kExactPrefix = 10000;

// Distance from theta == 1 below which the closed forms switch to their
// logarithmic limits: the integral tail and the Gray et al. constant alpha both
// divide by (1 - theta), so theta = 1.0 exactly would produce inf/NaN ranks.
constexpr double kThetaOneEps = 1e-6;

// Cap on DiscreteDistribution's guide cells, bounding the table at 256 KiB. Larger
// pmfs average more than two CDF entries per cell, which the window search absorbs
// in a few extra steps.
constexpr size_t kMaxGuideCells = size_t{1} << 16;

}  // namespace

double ZipfDistribution::Zeta(uint64_t n, double theta) {
  const uint64_t prefix = n < kExactPrefix ? n : kExactPrefix;
  double sum = 0.0;
  for (uint64_t i = 1; i <= prefix; ++i) {
    sum += std::pow(static_cast<double>(i), -theta);
  }
  if (n > prefix) {
    // Midpoint-rule integral tail: sum_{i=prefix+1..n} i^-theta ≈
    // ∫_{prefix+0.5}^{n+0.5} x^-theta dx. The midpoint correction makes the relative
    // error negligible for theta <= 1 at these scales. At theta ≈ 1 the antiderivative
    // (x^{1-θ})/(1-θ) degenerates; its limit is ln(x).
    const double a = static_cast<double>(prefix) + 0.5;
    const double b = static_cast<double>(n) + 0.5;
    if (std::abs(1.0 - theta) < kThetaOneEps) {
      sum += std::log(b) - std::log(a);
    } else {
      sum += (std::pow(b, 1.0 - theta) - std::pow(a, 1.0 - theta)) / (1.0 - theta);
    }
  }
  return sum;
}

ZipfDistribution::ZipfDistribution(uint64_t num_keys, double theta)
    : num_keys_(num_keys), theta_(theta) {
  zetan_ = Zeta(num_keys_, theta_);
  zeta2_ = Zeta(2, theta_);
  // Gray et al.'s sampling constants divide by (1 - theta); evaluate them at a
  // guarded skew just below 1 when theta == 1. The rank formula
  // n·(1 - eta(1-u))^alpha then converges to its smooth n·exp(-c(1-u)) limit, so
  // sampled ranks stay finite and in range.
  const double guarded =
      std::abs(1.0 - theta_) < kThetaOneEps ? 1.0 - kThetaOneEps : theta_;
  alpha_ = 1.0 / (1.0 - guarded);
  eta_ = (1.0 - std::pow(2.0 / static_cast<double>(num_keys_), 1.0 - guarded)) /
         (1.0 - zeta2_ / zetan_);
}

uint64_t ZipfDistribution::Sample(Rng& rng) const {
  // Gray et al. / YCSB approximate inverse-CDF sampling.
  const double u = rng.NextDouble();
  const double uz = u * zetan_;
  if (uz < 1.0) {
    return 0;  // rank 1
  }
  if (uz < 1.0 + std::pow(0.5, theta_)) {
    return 1;  // rank 2
  }
  const uint64_t rank =
      1 + static_cast<uint64_t>(static_cast<double>(num_keys_) *
                                std::pow(eta_ * u - eta_ + 1.0, alpha_));
  return (rank >= num_keys_ ? num_keys_ - 1 : rank - 1) + 0;
}

double ZipfDistribution::Pmf(uint64_t key) const {
  if (key >= num_keys_) {
    return 0.0;
  }
  return std::pow(static_cast<double>(key + 1), -theta_) / zetan_;
}

double ZipfDistribution::TopMass(uint64_t k) const {
  if (k >= num_keys_) {
    return 1.0;
  }
  return Zeta(k, theta_) / zetan_;
}

std::string ZipfDistribution::name() const {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "zipf-%.2f", theta_);
  return buf;
}

DiscreteDistribution::DiscreteDistribution(std::vector<double> pmf, std::string name)
    : pmf_(std::move(pmf)), name_(std::move(name)) {
  if (pmf_.size() > UINT32_MAX) {
    std::fprintf(stderr, "DiscreteDistribution: %zu weights exceed the 32-bit guide\n",
                 pmf_.size());
    std::abort();
  }
  double sum = 0.0;
  for (size_t i = 0; i < pmf_.size(); ++i) {
    if (!std::isfinite(pmf_[i]) || pmf_[i] < 0.0) {
      std::fprintf(stderr,
                   "DiscreteDistribution: weight %zu is %g, not finite and "
                   "non-negative\n",
                   i, pmf_[i]);
      std::abort();
    }
    sum += pmf_[i];
  }
  if (sum > 0.0) {
    for (double& p : pmf_) {
      p /= sum;
    }
  } else if (!pmf_.empty()) {
    // Degenerate all-zero pmf: without this the rounding guard below would set
    // cdf_.back() = 1.0 and silently dump 100% of the mass on the last key. Fall
    // back to uniform, which at least keeps Sample()/Pmf()/TopMass() consistent.
    pmf_.assign(pmf_.size(), 1.0 / static_cast<double>(pmf_.size()));
  }
  cdf_.resize(pmf_.size());
  double acc = 0.0;
  for (size_t i = 0; i < pmf_.size(); ++i) {
    acc += pmf_[i];
    cdf_[i] = acc;
  }
  if (!cdf_.empty()) {
    cdf_.back() = 1.0;  // guard against rounding
  }
  // Guide table in one forward pass, O(n + M): guide_[j] is the first i with
  // cdf_[i] >= j/M. j/M is exact (M is a power of two ≤ 2^16), and the scan stops
  // at n − 1 for j = M because cdf_.back() == 1.0.
  const size_t cells = std::min<size_t>(
      std::bit_floor(std::max<size_t>(1, pmf_.size() / 2)), kMaxGuideCells);
  guide_cells_ = static_cast<double>(cells);
  guide_.resize(cells + 1);
  size_t i = 0;
  for (size_t j = 0; j <= cells; ++j) {
    const double cut = static_cast<double>(j) / guide_cells_;
    while (i < cdf_.size() && cdf_[i] < cut) {
      ++i;
    }
    guide_[j] = static_cast<uint32_t>(i);
  }
}

uint64_t DiscreteDistribution::InverseCdf(double u) const {
  if (cdf_.empty()) {
    return 0;
  }
  // u·M < M fits a signed conversion, which is one instruction (unsigned is two
  // paths).
  const size_t j = static_cast<size_t>(static_cast<int64_t>(u * guide_cells_));
  // The answer lies in the inclusive window [guide_[j], guide_[j+1]]. Each step
  // keeps it inside [base, base + len), so the search ends on it without a final
  // compare. The step is masked arithmetic rather than a ternary, which compilers
  // lower to a data-dependent branch on a double compare.
  const double* base = cdf_.data() + guide_[j];
  size_t len = guide_[j + 1] - guide_[j] + 1;
  while (len > 1) {
    const size_t half = len / 2;
    base += -static_cast<size_t>(base[half - 1] < u) & half;
    len -= half;
  }
  return static_cast<uint64_t>(base - cdf_.data());
}

double DiscreteDistribution::TopMass(uint64_t k) const {
  if (k == 0) {
    return 0.0;
  }
  if (k >= cdf_.size()) {
    return 1.0;
  }
  return cdf_[k - 1];
}

std::vector<double> CappedZipfPmf(uint64_t num_keys, double theta, double cap) {
  // Feasibility: a pmf over n keys cannot have every entry below 1/n, so a cap
  // under that floor is unsatisfiable — the clip-and-renormalize loop below would
  // run its 64 rounds and silently return a cap-violating pmf. The closest
  // satisfiable answer is exactly uniform; return it directly.
  const double floor_cap = 1.0 / static_cast<double>(num_keys);
  if (cap <= floor_cap * (1.0 + 1e-12)) {
    return std::vector<double>(num_keys, floor_cap);
  }
  ZipfDistribution zipf(num_keys, theta);
  std::vector<double> pmf(num_keys);
  for (uint64_t i = 0; i < num_keys; ++i) {
    pmf[i] = zipf.Pmf(i);
  }
  // Clip-and-renormalize until the cap holds; redistribution converges geometrically
  // since each round moves the clipped surplus into the (large) unclipped tail.
  for (int round = 0; round < 64; ++round) {
    double sum = 0.0;
    double max_p = 0.0;
    for (double& p : pmf) {
      p = std::min(p, cap);
      sum += p;
    }
    for (double& p : pmf) {
      p /= sum;
      max_p = std::max(max_p, p);
    }
    if (max_p <= cap * (1.0 + 1e-12)) {
      break;
    }
  }
  return pmf;
}

std::unique_ptr<KeyDistribution> MakeDistribution(uint64_t num_keys, double theta) {
  if (theta <= 0.0) {
    return std::make_unique<UniformDistribution>(num_keys);
  }
  return std::make_unique<ZipfDistribution>(num_keys, theta);
}

}  // namespace distcache
