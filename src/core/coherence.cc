#include "core/coherence.h"

#include <utility>

namespace distcache {

void ApplyCoherence(CacheSwitch& sw, CoherencePhase phase, uint64_t key, std::string value) {
  if (phase == CoherencePhase::kInvalidate) {
    sw.Invalidate(key).ok();
  } else {
    sw.UpdateValue(key, std::move(value)).ok();
  }
  sw.AddTelemetryLoad(1);
}

void TwoPhaseCoherence::RunPhase(CoherencePhase phase, uint64_t key, const std::string& value,
                                 const std::vector<CacheNodeId>& copies) {
  uint64_t& delivered = phase == CoherencePhase::kInvalidate ? stats_.invalidations_sent
                                                             : stats_.updates_sent;
  std::vector<CacheNodeId> pending = copies;
  for (size_t attempt = 0; attempt <= config_.max_retries && !pending.empty(); ++attempt) {
    if (attempt > 0) {
      stats_.retries += pending.size();  // paper: the server resends after a timeout
    }
    const size_t sent = pending.size();
    transport_(phase, key, value, pending);
    delivered += sent - pending.size();
  }
  // §4.4: a copy that stays unreachable is skipped; the primary stays authoritative.
  stats_.unreachable_copies += pending.size();
}

Status TwoPhaseCoherence::Write(uint64_t key, std::string value, StorageServer* server,
                                const std::vector<CacheNodeId>& copies,
                                const ClientAck& ack_client) {
  ++stats_.writes;
  if (!copies.empty()) {
    ++stats_.cached_writes;
    // Phase 1: invalidate every cached copy. Readers racing with this observe either
    // the old valid value (serialized before) or an invalid entry that falls through
    // to the server — never a mix of old and new cache values.
    RunPhase(CoherencePhase::kInvalidate, key, std::string(), copies);
  }

  // Primary update + client acknowledgment point. The coherence work is charged to
  // the server's capacity (one unit per copy: invalidate + update round trips).
  const Status st = server->Put(key, value, copies.size());
  if (ack_client) {
    ack_client(st);
  }

  // Phase 2: write the new value and re-validate the copies. After a rejected
  // primary update the copies stay invalid, so readers keep reaching the primary.
  if (st.ok() && !copies.empty()) {
    RunPhase(CoherencePhase::kUpdate, key, value, copies);
  }
  return st;
}

}  // namespace distcache
