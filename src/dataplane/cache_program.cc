#include "dataplane/cache_program.h"

#include <algorithm>
#include <cstring>

namespace distcache {
namespace {

constexpr size_t kSlotBytes = 16;
constexpr uint32_t kBloomRows = 3;
constexpr uint32_t kCmRows = 4;

size_t StagesFor(size_t value_size) {
  return value_size == 0 ? 1 : (value_size + kSlotBytes - 1) / kSlotBytes;
}

}  // namespace

PipelineCacheSwitch::PipelineCacheSwitch(const Config& config)
    : config_(config),
      pipeline_(config.num_stages),
      cm_hashes_(kCmRows, HashCombine(config.seed, 0xc3ULL)),
      bloom_hashes_(kBloomRows, HashCombine(config.seed, 0xb1ULL)),
      slot_free_(config.slots_per_stage, true) {
  // --- stage 0: lookup, validity, hit counters, value length -----------------------
  Stage& s0 = pipeline_.stage(0);
  lookup_table_ = s0.AddTable("cache_lookup", "key", config_.slots_per_stage);
  lookup_table_->SetDefaultAction([](PacketContext& pkt) { pkt.Set("hit", 0); });
  s0.DeclareHashBits(16);  // exact-match key hash
  valid_bits_ = s0.AddRegisterArray("valid", config_.slots_per_stage, 1);
  hit_counters_ = s0.AddRegisterArray("hits", config_.slots_per_stage, 32);
  value_size_reg_ = s0.AddRegisterArray("vsize", config_.slots_per_stage, 8);
  RegisterArray* valid_bits = valid_bits_;
  RegisterArray* hit_counters = hit_counters_;
  RegisterArray* value_size_reg = value_size_reg_;
  s0.AddHook([valid_bits, hit_counters, value_size_reg](PacketContext& pkt) {
    if (pkt.Get("hit") == 0) {
      return;
    }
    const size_t slot = pkt.Get("slot");
    pkt.Set("valid", valid_bits->Read(slot));
    pkt.Set("vsize", value_size_reg->Read(slot));
    if (pkt.Get("valid") != 0) {
      hit_counters->AddSaturating(slot, 1);
    }
  });

  // --- value store: 64K 16-byte slots per stage (two 64-bit words) -----------------
  value_lo_.resize(config_.num_stages);
  value_hi_.resize(config_.num_stages);
  for (size_t st = 0; st < config_.num_stages; ++st) {
    Stage& stage = pipeline_.stage(st);
    value_lo_[st] = stage.AddRegisterArray("value_s" + std::to_string(st) + "_lo",
                                           config_.slots_per_stage, 64);
    value_hi_[st] = stage.AddRegisterArray("value_s" + std::to_string(st) + "_hi",
                                           config_.slots_per_stage, 64);
    RegisterArray* lo = value_lo_[st];
    RegisterArray* hi = value_hi_[st];
    stage.AddHook([lo, hi, st](PacketContext& pkt) {
      if (pkt.Get("hit") == 0 || pkt.Get("valid") == 0) {
        return;
      }
      if (st * kSlotBytes >= pkt.Get("vsize")) {
        return;  // value does not extend into this stage
      }
      const size_t slot = pkt.Get("slot");
      pkt.Set("v" + std::to_string(st) + "_lo", lo->Read(slot));
      pkt.Set("v" + std::to_string(st) + "_hi", hi->Read(slot));
    });
  }

  // --- heavy-hitter detector: CM sketch rows in stages 1..4 ------------------------
  for (uint32_t row = 0; row < kCmRows; ++row) {
    const size_t st = std::min<size_t>(1 + row, config_.num_stages - 1);
    Stage& stage = pipeline_.stage(st);
    cm_rows_.push_back(stage.AddRegisterArray("cm_r" + std::to_string(row),
                                              config_.cm_width, 16));
    stage.DeclareHashBits(16);
    RegisterArray* reg = cm_rows_.back();
    const uint32_t row_index = row;
    const size_t width = config_.cm_width;
    const HashFamily* family = &cm_hashes_;
    stage.AddHook([reg, family, row_index, width](PacketContext& pkt) {
      if (pkt.Get("hit") != 0) {
        return;  // only uncached keys feed the sketch
      }
      const uint64_t key = pkt.Get("key");
      const uint64_t est =
          reg->AddSaturating(static_cast<size_t>(family->Hash(row_index, key) % width), 1);
      const uint64_t current = pkt.Has("cm_min") ? pkt.Get("cm_min") : ~uint64_t{0};
      pkt.Set("cm_min", std::min(current, est));
    });
  }

  // --- Bloom filter rows in stages 5..7 ---------------------------------------------
  for (uint32_t row = 0; row < kBloomRows; ++row) {
    const size_t st = std::min<size_t>(5 + row, config_.num_stages - 1);
    Stage& stage = pipeline_.stage(st);
    bloom_rows_.push_back(stage.AddRegisterArray("bloom_r" + std::to_string(row),
                                                 config_.bloom_bits, 1));
    stage.DeclareHashBits(18);
    RegisterArray* reg = bloom_rows_.back();
    const uint32_t row_index = row;
    const size_t bits = config_.bloom_bits;
    const HashFamily* family = &bloom_hashes_;
    const uint32_t threshold = config_.hh_report_threshold;
    stage.AddHook([reg, family, row_index, bits, threshold](PacketContext& pkt) {
      if (pkt.Get("hit") != 0 || pkt.Get("cm_min") < threshold) {
        return;
      }
      const size_t idx =
          static_cast<size_t>(family->Hash(row_index, pkt.Get("key")) % bits);
      pkt.Set("bloom_seen", pkt.Get("bloom_seen") + reg->Read(idx));
      reg->Write(idx, 1);
    });
  }

  // --- telemetry register, last stage ------------------------------------------------
  Stage& last = pipeline_.stage(config_.num_stages - 1);
  telemetry_ = last.AddRegisterArray("telemetry", 1, 32);
  RegisterArray* telemetry = telemetry_;
  last.AddHook([telemetry, this](PacketContext& pkt) {
    if (pkt.Get("hit") != 0 && pkt.Get("valid") != 0) {
      telemetry->AddSaturating(0, 1);
    }
    // HH report decision: heavy this epoch and not yet seen by every bloom row.
    pkt.Set("hh_report", pkt.Get("hit") == 0 &&
                                 pkt.Get("cm_min") >= config_.hh_report_threshold &&
                                 pkt.Get("bloom_seen") < kBloomRows
                             ? 1
                             : 0);
  });
}

LookupResult PipelineCacheSwitch::Lookup(uint64_t key, std::string* value_out,
                                         bool* hh_reported) {
  PacketContext pkt;
  pkt.Set("key", key);
  pipeline_.Process(pkt);
  if (hh_reported != nullptr) {
    *hh_reported = pkt.Get("hh_report") != 0;
  }
  if (pkt.Get("hit") == 0) {
    return LookupResult::kMiss;
  }
  if (pkt.Get("valid") == 0) {
    return LookupResult::kInvalid;
  }
  if (value_out != nullptr) {
    // Reassemble the value from the per-stage word fields the pipeline read.
    const size_t size = pkt.Get("vsize");
    value_out->clear();
    value_out->reserve(size);
    for (size_t st = 0; st * kSlotBytes < size; ++st) {
      uint8_t bytes[kSlotBytes];
      const uint64_t lo = pkt.Get("v" + std::to_string(st) + "_lo");
      const uint64_t hi = pkt.Get("v" + std::to_string(st) + "_hi");
      std::memcpy(bytes, &lo, 8);
      std::memcpy(bytes + 8, &hi, 8);
      const size_t take = std::min(kSlotBytes, size - st * kSlotBytes);
      value_out->append(reinterpret_cast<char*>(bytes), take);
    }
  }
  return LookupResult::kHit;
}

std::optional<size_t> PipelineCacheSwitch::AllocateSlot() {
  for (size_t s = 0; s < slot_free_.size(); ++s) {
    if (slot_free_[s]) {
      slot_free_[s] = false;
      return s;
    }
  }
  return std::nullopt;
}

Status PipelineCacheSwitch::InsertInvalid(uint64_t key, size_t value_size) {
  if (value_size > config_.num_stages * kSlotBytes) {
    return Status::InvalidArgument("value exceeds pipeline value capacity");
  }
  if (slot_of_.contains(key)) {
    return Status::AlreadyExists();
  }
  const auto slot = AllocateSlot();
  if (!slot) {
    return Status::ResourceExhausted("no free value slots");
  }
  SlotInfo info;
  info.slot = *slot;
  info.stages = StagesFor(value_size);
  info.value_size = value_size;
  const Status st = lookup_table_->AddEntry(key, [slot = *slot](PacketContext& pkt) {
    pkt.Set("hit", 1);
    pkt.Set("slot", slot);
  });
  if (!st.ok()) {
    slot_free_[*slot] = true;
    return st;
  }
  valid_bits_->Write(*slot, 0);
  value_size_reg_->Write(*slot, value_size);
  hit_counters_->Write(*slot, 0);
  slots_used_ += info.stages;
  slot_of_.emplace(key, info);
  return Status::Ok();
}

void PipelineCacheSwitch::WriteValueWords(size_t slot, const std::string& value,
                                          size_t stages) {
  for (size_t st = 0; st < stages; ++st) {
    uint8_t bytes[kSlotBytes] = {};
    const size_t offset = st * kSlotBytes;
    const size_t take = value.size() > offset
                            ? std::min(kSlotBytes, value.size() - offset)
                            : 0;
    std::memcpy(bytes, value.data() + offset, take);
    uint64_t lo = 0;
    uint64_t hi = 0;
    std::memcpy(&lo, bytes, 8);
    std::memcpy(&hi, bytes + 8, 8);
    value_lo_[st]->Write(slot, lo);
    value_hi_[st]->Write(slot, hi);
  }
}

Status PipelineCacheSwitch::UpdateValue(uint64_t key, std::string value) {
  const auto it = slot_of_.find(key);
  if (it == slot_of_.end()) {
    return Status::NotFound();
  }
  if (value.size() > config_.num_stages * kSlotBytes) {
    return Status::InvalidArgument("value exceeds pipeline value capacity");
  }
  const size_t new_stages = StagesFor(value.size());
  slots_used_ += new_stages;
  slots_used_ -= it->second.stages;
  it->second.stages = new_stages;
  it->second.value_size = value.size();
  WriteValueWords(it->second.slot, value, new_stages);
  value_size_reg_->Write(it->second.slot, value.size());
  valid_bits_->Write(it->second.slot, 1);
  return Status::Ok();
}

Status PipelineCacheSwitch::Invalidate(uint64_t key) {
  const auto it = slot_of_.find(key);
  if (it == slot_of_.end()) {
    return Status::NotFound();
  }
  valid_bits_->Write(it->second.slot, 0);
  return Status::Ok();
}

Status PipelineCacheSwitch::Evict(uint64_t key) {
  const auto it = slot_of_.find(key);
  if (it == slot_of_.end()) {
    return Status::NotFound();
  }
  lookup_table_->RemoveEntry(key).ok();
  valid_bits_->Write(it->second.slot, 0);
  slot_free_[it->second.slot] = true;
  slots_used_ -= it->second.stages;
  slot_of_.erase(it);
  return Status::Ok();
}

bool PipelineCacheSwitch::IsValid(uint64_t key) const {
  const auto it = slot_of_.find(key);
  return it != slot_of_.end() && valid_bits_->Read(it->second.slot) != 0;
}

uint64_t PipelineCacheSwitch::HitCount(uint64_t key) const {
  const auto it = slot_of_.find(key);
  return it == slot_of_.end() ? 0 : hit_counters_->Read(it->second.slot);
}

uint64_t PipelineCacheSwitch::TelemetryLoad() const { return telemetry_->Read(0); }

void PipelineCacheSwitch::NewEpoch() {
  telemetry_->Reset();
  for (RegisterArray* row : cm_rows_) {
    row->Reset();
  }
  for (RegisterArray* row : bloom_rows_) {
    row->Reset();
  }
  hit_counters_->Reset();
}

}  // namespace distcache
