// NetCache-style heavy-hitter (HH) detector: Count-Min sketch for frequency estimates
// of uncached keys + Bloom filter to dedupe reports + a small top-k table. The switch
// local agent uses the reports to decide cache insertions/evictions (§4.3, §5).
//
// Counters are reset every epoch (1 second in the paper). A key is reported as a heavy
// hitter when its estimated count within the epoch crosses `report_threshold`.
//
// Two ways to count an access. Record() is the switch's data-plane step: it also
// runs the Bloom filter and says whether this access is the key's *first* report
// this epoch (CacheSwitch::RecordMiss and the runtime's agents act on that bit).
// Observe() is Record() without the Bloom filter, for a caller that only reads
// TopReports() and Estimate() — the simulation engines' controller-side observer.
// Both leave the sketch and the report table in the same state.
#ifndef DISTCACHE_SKETCH_HEAVY_HITTER_H_
#define DISTCACHE_SKETCH_HEAVY_HITTER_H_

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "sketch/bloom_filter.h"
#include "sketch/count_min.h"

namespace distcache {

// Merges per-detector heavy-hitter report lists (key, estimated count) into one
// hottest-first list: counts for the same key sum (each detector saw a disjoint
// slice of the traffic), ties break on the smaller key for determinism. This is the
// controller-side aggregation step of online cache re-allocation — every switch
// (or simulation shard) reports its local top keys and the controller re-allocates
// from the merged ranking (§4.1, §6.4).
std::vector<std::pair<uint64_t, uint64_t>> MergeHeavyHitterReports(
    const std::vector<std::vector<std::pair<uint64_t, uint32_t>>>& reports);

class HeavyHitterDetector {
 public:
  struct Config {
    CountMinSketch::Config sketch;
    BloomFilter::Config bloom;
    uint32_t report_threshold = 64;  // epoch-relative heaviness cutoff
    size_t max_reports_per_epoch = 1024;
  };

  explicit HeavyHitterDetector(const Config& config);

  // Counts one access to an *uncached* key (cached keys are counted by the per-object
  // hit counters instead, as in NetCache): updates the sketch and, once the estimate
  // reaches the threshold, the key's report-table entry. Returns true if the key is
  // reported this epoch (false below the threshold or when the table is full).
  bool Observe(uint64_t key);

  // Observe() plus the Bloom filter: returns true if this access pushed the key over
  // the report threshold for the first time this epoch.
  bool Record(uint64_t key) { return Observe(key) && !bloom_.InsertAndTest(key); }

  // Keys reported this epoch, hottest-first by sketch estimate.
  std::vector<std::pair<uint64_t, uint32_t>> TopReports() const;

  // Clears sketch, bloom filter and report list. Called by the agent every second.
  void NewEpoch();

  // Warms the sketch counters a later Record(key) will update (a cache hint
  // only: no state changes).
  void Prefetch(uint64_t key) const { sketch_.Prefetch(key); }

  uint32_t Estimate(uint64_t key) const { return sketch_.Estimate(key); }
  size_t MemoryBits() const { return sketch_.MemoryBits() + bloom_.MemoryBits(); }

 private:
  // One slot of the flat report table (open addressing, linear probing).
  struct Report {
    uint64_t key = 0;
    uint32_t count = 0;
    bool used = false;
  };

  // Slot holding `key`, or the empty slot that ends its probe chain.
  size_t FindSlot(uint64_t key) const;
  // Doubles the table and re-inserts every report.
  void Grow();

  Config config_;
  CountMinSketch sketch_;
  BloomFilter bloom_;
  // Keys reported this epoch with their latest estimate. Written on most hot
  // reads (the observer's threshold is 2), so it is one flat array kept at
  // most half full; it grows by doubling and keeps its size across epochs.
  std::vector<Report> reports_;
  size_t num_reports_ = 0;
};

}  // namespace distcache

#endif  // DISTCACHE_SKETCH_HEAVY_HITTER_H_
