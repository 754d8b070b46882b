#include "common/stats.h"

namespace distcache {

int LatencyHistogram::BucketOf(double value) {
  if (!(value > 0.0)) {
    return 0;  // non-positive (or NaN): the smallest representable bucket
  }
  const double pos = (std::log2(value) - static_cast<double>(kMinExponent)) *
                     static_cast<double>(kSubBuckets);
  if (pos < 0.0) {
    return 0;
  }
  const int bucket = static_cast<int>(pos);
  return bucket >= kNumBuckets ? kNumBuckets - 1 : bucket;
}

void LatencyHistogram::Add(double value, uint64_t count) {
  if (count == 0) {
    return;
  }
  if (std::isinf(value)) {
    AddInfinite(count);
    return;
  }
  EnsureBuckets();
  counts_[static_cast<size_t>(BucketOf(value))] += count;
  total_ += count;
  sum_ += value * static_cast<double>(count);
}

void LatencyHistogram::Merge(const LatencyHistogram& other) {
  total_ += other.total_;
  infinite_ += other.infinite_;
  sum_ += other.sum_;
  if (other.counts_.empty()) {
    return;
  }
  EnsureBuckets();
  for (size_t i = 0; i < counts_.size(); ++i) {
    counts_[i] += other.counts_[i];
  }
}

LatencyHistogram LatencyHistogram::DeltaSince(const LatencyHistogram& prev) const {
  LatencyHistogram delta;
  delta.total_ = total_ - prev.total_;
  delta.infinite_ = infinite_ - prev.infinite_;
  delta.sum_ = sum_ - prev.sum_;
  if (!counts_.empty()) {
    delta.EnsureBuckets();
    for (size_t i = 0; i < counts_.size(); ++i) {
      delta.counts_[i] =
          counts_[i] - (prev.counts_.empty() ? 0 : prev.counts_[i]);
    }
  }
  return delta;
}

double LatencyHistogram::Percentile(double p) const {
  if (total_ == 0) {
    return 0.0;
  }
  const double clamped = std::clamp(p, 0.0, 100.0);
  const auto target =
      static_cast<uint64_t>(clamped / 100.0 * static_cast<double>(total_ - 1));
  uint64_t seen = 0;
  for (size_t i = 0; i < counts_.size(); ++i) {
    seen += counts_[i];
    if (seen > target) {
      return BucketMidpoint(static_cast<int>(i));
    }
  }
  // The rank lands past every finite bucket: saturated mass.
  return std::numeric_limits<double>::infinity();
}

double ImbalanceFactor(const std::vector<double>& loads) {
  if (loads.empty()) {
    return 1.0;
  }
  double sum = 0.0;
  double max = 0.0;
  for (double x : loads) {
    sum += x;
    max = std::max(max, x);
  }
  const double mean = sum / static_cast<double>(loads.size());
  return mean > 0.0 ? max / mean : 1.0;
}

}  // namespace distcache
