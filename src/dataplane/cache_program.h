// The DistCache cache-switch P4 program, expressed on the PISA pipeline model — the
// data plane of §5 built from actual match-action tables and register arrays:
//
//   stage 0      : cache lookup table (exact match on the key) → slot index;
//                  validity-bit register; per-slot hit-counter register
//   stages 0..7  : value store — every stage holds 64K 16-byte slots (two 64-bit
//                  register arrays); a value of n bytes spans ceil(n/16) stages
//   stages 1..4  : Count-Min sketch — one 64K×16-bit register array per stage,
//                  updated on misses
//   stages 5..7  : Bloom filter — one 256K×1-bit register array per stage, dedupes
//                  heavy-hitter reports
//   stage 7      : telemetry register — total packets served this epoch, piggybacked
//                  into reply headers
//
// PipelineCacheSwitch exposes the same data-plane/control-plane interface as the
// behavioural CacheSwitch model; the two are checked against each other by a
// differential test. Resource usage (Table 1) is derived from the program itself via
// Pipeline::Resources().
#ifndef DISTCACHE_DATAPLANE_CACHE_PROGRAM_H_
#define DISTCACHE_DATAPLANE_CACHE_PROGRAM_H_

#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "cache/cache_switch.h"  // for LookupResult
#include "common/hash.h"
#include "common/status.h"
#include "dataplane/pipeline.h"

namespace distcache {

class PipelineCacheSwitch {
 public:
  struct Config {
    size_t num_stages = 8;
    size_t slots_per_stage = 65536;
    size_t cm_width = 65536;
    size_t bloom_bits = 262144;
    uint32_t hh_report_threshold = 64;
    uint64_t seed = 0x9a4ULL;
  };

  explicit PipelineCacheSwitch(const Config& config);

  // --- data plane -------------------------------------------------------------

  // Runs a GET packet through the pipeline. On a hit, fills `value_out`, bumps the
  // hit counter and the telemetry register. On a miss, updates the heavy-hitter
  // sketch; `hh_reported` (optional) is set when the key newly crossed the report
  // threshold this epoch.
  LookupResult Lookup(uint64_t key, std::string* value_out, bool* hh_reported = nullptr);

  // --- control plane (switch local agent / coherence) --------------------------

  Status InsertInvalid(uint64_t key, size_t value_size);
  Status UpdateValue(uint64_t key, std::string value);
  Status Invalidate(uint64_t key);
  Status Evict(uint64_t key);

  bool Contains(uint64_t key) const { return slot_of_.contains(key); }
  bool IsValid(uint64_t key) const;
  uint64_t HitCount(uint64_t key) const;
  uint64_t TelemetryLoad() const;
  void NewEpoch();

  size_t num_entries() const { return slot_of_.size(); }
  size_t slots_used() const { return slots_used_; }

  // Table 1 accounting straight from the pipeline program.
  PipelineResources Resources() const { return pipeline_.Resources(); }

 private:
  struct SlotInfo {
    size_t slot = 0;
    size_t stages = 1;      // value stages occupied (ceil(size/16))
    size_t value_size = 0;
  };

  // Packs byte `i` of the value into the word registers.
  void WriteValueWords(size_t slot, const std::string& value, size_t stages);
  std::optional<size_t> AllocateSlot();

  Config config_;
  Pipeline pipeline_;
  HashFamily cm_hashes_;
  HashFamily bloom_hashes_;

  // Control-plane shadow state (the agent's view; the data plane itself only sees
  // tables and registers).
  std::unordered_map<uint64_t, SlotInfo> slot_of_;
  std::vector<bool> slot_free_;
  size_t slots_used_ = 0;

  // Raw pointers into pipeline-owned structures (valid for the pipeline's lifetime).
  MatchActionTable* lookup_table_ = nullptr;
  RegisterArray* valid_bits_ = nullptr;
  RegisterArray* value_size_reg_ = nullptr;
  RegisterArray* hit_counters_ = nullptr;
  std::vector<RegisterArray*> value_lo_;  // per stage, first 8 bytes of the slot
  std::vector<RegisterArray*> value_hi_;  // per stage, second 8 bytes
  std::vector<RegisterArray*> cm_rows_;
  std::vector<RegisterArray*> bloom_rows_;
  RegisterArray* telemetry_ = nullptr;
};

}  // namespace distcache

#endif  // DISTCACHE_DATAPLANE_CACHE_PROGRAM_H_
