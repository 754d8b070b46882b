#include "sketch/heavy_hitter.h"

#include <algorithm>
#include <unordered_map>

#include "common/hash.h"

namespace distcache {

std::vector<std::pair<uint64_t, uint64_t>> MergeHeavyHitterReports(
    const std::vector<std::vector<std::pair<uint64_t, uint32_t>>>& reports) {
  std::unordered_map<uint64_t, uint64_t> merged;
  for (const auto& list : reports) {
    for (const auto& [key, count] : list) {
      merged[key] += count;
    }
  }
  std::vector<std::pair<uint64_t, uint64_t>> out(merged.begin(), merged.end());
  std::sort(out.begin(), out.end(), [](const auto& a, const auto& b) {
    if (a.second != b.second) {
      return a.second > b.second;
    }
    return a.first < b.first;
  });
  return out;
}

namespace {
constexpr size_t kInitialReportSlots = 64;
}  // namespace

HeavyHitterDetector::HeavyHitterDetector(const Config& config)
    : config_(config),
      sketch_(config.sketch),
      bloom_(config.bloom),
      reports_(kInitialReportSlots) {}

size_t HeavyHitterDetector::FindSlot(uint64_t key) const {
  const size_t mask = reports_.size() - 1;
  for (size_t i = Mix64(key) & mask;; i = (i + 1) & mask) {
    if (!reports_[i].used || reports_[i].key == key) {
      return i;
    }
  }
}

void HeavyHitterDetector::Grow() {
  std::vector<Report> old(reports_.size() * 2);
  old.swap(reports_);
  for (const Report& r : old) {
    if (r.used) {
      reports_[FindSlot(r.key)] = r;
    }
  }
}

bool HeavyHitterDetector::Observe(uint64_t key) {
  const uint32_t estimate = sketch_.Update(key);
  if (estimate < config_.report_threshold) {
    return false;
  }
  size_t slot = FindSlot(key);
  if (!reports_[slot].used) {
    if (num_reports_ >= config_.max_reports_per_epoch) {
      return false;
    }
    if (2 * (num_reports_ + 1) > reports_.size()) {
      Grow();
      slot = FindSlot(key);
    }
    reports_[slot] = {key, 0, true};
    ++num_reports_;
  }
  // Refreshed on every access, so TopReports ranks by the latest count.
  reports_[slot].count = estimate;
  return true;
}

std::vector<std::pair<uint64_t, uint32_t>> HeavyHitterDetector::TopReports() const {
  std::vector<std::pair<uint64_t, uint32_t>> out;
  out.reserve(num_reports_);
  for (const Report& r : reports_) {
    if (r.used) {
      out.emplace_back(r.key, r.count);
    }
  }
  std::sort(out.begin(), out.end(), [](const auto& a, const auto& b) {
    if (a.second != b.second) {
      return a.second > b.second;
    }
    return a.first < b.first;
  });
  return out;
}

void HeavyHitterDetector::NewEpoch() {
  sketch_.Reset();
  bloom_.Reset();
  std::fill(reports_.begin(), reports_.end(), Report{});
  num_reports_ = 0;
}

}  // namespace distcache
