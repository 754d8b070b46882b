// Streaming statistics and the latency histogram used by the simulators and benches
// to report per-node load, imbalance factors and latency percentiles.
#ifndef DISTCACHE_COMMON_STATS_H_
#define DISTCACHE_COMMON_STATS_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

namespace distcache {

// Welford-style streaming mean/variance plus min/max.
class StreamingStats {
 public:
  void Add(double x) {
    ++count_;
    const double delta = x - mean_;
    mean_ += delta / static_cast<double>(count_);
    m2_ += delta * (x - mean_);
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }

  uint64_t count() const { return count_; }
  double mean() const { return count_ ? mean_ : 0.0; }
  double variance() const { return count_ > 1 ? m2_ / static_cast<double>(count_ - 1) : 0.0; }
  double stddev() const { return std::sqrt(variance()); }
  double min() const { return count_ ? min_ : 0.0; }
  double max() const { return count_ ? max_ : 0.0; }

  // Coefficient of variation — the load-imbalance measure used in our reports.
  double cv() const { return mean() > 0.0 ? stddev() / mean() : 0.0; }

 private:
  uint64_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

// Log-bucketed latency histogram: the mergeable distribution carried by
// BackendStats through every engine (the open-loop virtual-time layer).
//
// Buckets grow geometrically by 2^(1/16) (~4.4% relative resolution — below the
// statistical noise of any percentile the benches report) over [2^-10, 2^22)
// virtual-time units, 512 buckets total. Values below the range land in bucket
// 0, finite values above it in the last bucket; saturated samples (infinite
// latency — a query parked at a node that can never drain) are tracked
// separately so they surface as +inf percentiles instead of a fake large value.
//
// Merge is element-wise addition, hence associative and commutative: per-shard
// histograms merged at quota end are bucket-identical to one stream recording
// the union, in any merge order. Bucket storage is lazily allocated — a
// closed-loop run (no arrival process) never calls Add, so the histogram costs
// one empty vector and the golden pins see no allocation or time.
class LatencyHistogram {
 public:
  static constexpr int kSubBuckets = 16;       // buckets per factor-of-2
  static constexpr int kMinExponent = -10;     // lowest representable: 2^-10
  static constexpr int kNumBuckets = 32 * kSubBuckets;  // [2^-10, 2^22)

  void Add(double value, uint64_t count = 1);
  // Saturated mass: queries whose latency is unbounded (overloaded node).
  void AddInfinite(uint64_t count = 1) {
    total_ += count;
    infinite_ += count;
  }

  // Element-wise accumulate. Associative and commutative.
  void Merge(const LatencyHistogram& other);
  // The per-bucket difference `this - prev`, where `prev` is an earlier
  // snapshot of the same stream — the per-interval histogram of the series
  // bookkeeping. Two empty histograms yield an empty delta (no allocation).
  LatencyHistogram DeltaSince(const LatencyHistogram& prev) const;

  // Value at percentile p in [0, 100]: the geometric midpoint of the bucket
  // holding the p-th percentile sample. +inf when the rank lands in the
  // saturated mass; 0 when empty.
  double Percentile(double p) const;

  uint64_t total() const { return total_; }
  uint64_t infinite() const { return infinite_; }
  bool empty() const { return total_ == 0; }
  // Mean over the finite samples (saturated mass is reported separately).
  double mean() const {
    const uint64_t finite = total_ - infinite_;
    return finite == 0 ? 0.0 : sum_ / static_cast<double>(finite);
  }
  double infinite_fraction() const {
    return total_ == 0 ? 0.0
                       : static_cast<double>(infinite_) / static_cast<double>(total_);
  }

  // Bucket geometry (static so tests and the fluid engine's analytic fill
  // evaluate the exact same edges). BucketOf clamps into [0, kNumBuckets).
  static int BucketOf(double value);
  static double BucketLowerEdge(int bucket) {
    return std::exp2(static_cast<double>(kMinExponent) +
                     static_cast<double>(bucket) / kSubBuckets);
  }
  static double BucketMidpoint(int bucket) {
    return std::exp2(static_cast<double>(kMinExponent) +
                     (static_cast<double>(bucket) + 0.5) / kSubBuckets);
  }

  const std::vector<uint64_t>& counts() const { return counts_; }

  // Raw state access for lossless serialization (sim/stats_codec.h): the
  // finite-sample sum alongside counts()/total()/infinite() reads the whole
  // state, and FromRaw rebuilds a histogram bit-identical to the serialized
  // one (the double round-trips via its bit pattern, not via re-adding
  // samples — re-adding would re-order the floating-point sum).
  double finite_sum() const { return sum_; }
  static LatencyHistogram FromRaw(std::vector<uint64_t> counts, uint64_t total,
                                  uint64_t infinite, double finite_sum) {
    LatencyHistogram h;
    h.counts_ = std::move(counts);
    h.total_ = total;
    h.infinite_ = infinite;
    h.sum_ = finite_sum;
    return h;
  }

 private:
  void EnsureBuckets() {
    if (counts_.empty()) {
      counts_.assign(kNumBuckets, 0);
    }
  }

  std::vector<uint64_t> counts_;  // empty until the first Add/Merge with data
  uint64_t total_ = 0;
  uint64_t infinite_ = 0;
  double sum_ = 0.0;  // finite samples only
};

// Max/mean ratio of a load vector — "imbalance factor". 1.0 means perfectly balanced.
double ImbalanceFactor(const std::vector<double>& loads);

}  // namespace distcache

#endif  // DISTCACHE_COMMON_STATS_H_
