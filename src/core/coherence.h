// Two-phase cache-coherence protocol (§4.3), the one implementation that the
// thread-per-node runtime's storage servers drive.
//
// A write to a cached object must update the primary copy at the storage server and
// every cached copy atomically with respect to readers:
//   phase 1 — an invalidation packet walks every switch caching the object and clears
//             the validity bits; lost packets are resent after a timeout;
//   (optimization) — once all copies are invalid, the server updates its primary copy
//             and acknowledges the client immediately, without waiting for phase 2;
//   phase 2 — an update packet walks the same switches writing the new value and
//             setting the validity bits. It runs only if the primary update succeeded.
//
// The protocol owns the order, the resends and the skip of copies that stay
// unreachable (§4.4); a transport owns delivery, and ApplyCoherence defines what a
// delivered packet does at a switch.
#ifndef DISTCACHE_CORE_COHERENCE_H_
#define DISTCACHE_CORE_COHERENCE_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "cache/cache_switch.h"
#include "common/status.h"
#include "kv/storage_server.h"
#include "net/topology.h"

namespace distcache {

enum class CoherencePhase : uint8_t {
  kInvalidate,  // phase 1: clear the validity bit
  kUpdate,      // phase 2: write the value and set the validity bit
};

// A delivered coherence packet at `sw`: invalidate or update, plus one unit of
// telemetry load (coherence traffic consumes switch capacity).
void ApplyCoherence(CacheSwitch& sw, CoherencePhase phase, uint64_t key, std::string value);

class TwoPhaseCoherence {
 public:
  // Sends one phase's packet for `key` to every copy in `pending` and removes the
  // copies that acked; what is left was not delivered. `value` is empty in phase 1.
  using Transport = std::function<void(CoherencePhase phase, uint64_t key,
                                       const std::string& value,
                                       std::vector<CacheNodeId>& pending)>;
  // The client acknowledgment point; receives the primary update's status.
  using ClientAck = std::function<void(const Status&)>;

  struct Config {
    size_t max_retries = 3;
  };

  struct Stats {
    uint64_t writes = 0;
    uint64_t cached_writes = 0;        // writes that ran the two-phase protocol
    uint64_t invalidations_sent = 0;   // per-switch phase-1 deliveries
    uint64_t updates_sent = 0;         // per-switch phase-2 deliveries
    uint64_t retries = 0;              // packets resent after a timeout
    uint64_t unreachable_copies = 0;   // per-phase copies skipped after max_retries
  };

  TwoPhaseCoherence(Transport transport, const Config& config)
      : transport_(std::move(transport)), config_(config) {}

  // Executes the full write path for `key` with cached copies at `copies`: phase 1,
  // the primary Put (charged one coherence unit per copy), `ack_client` with the
  // Put's status, then phase 2 if the Put succeeded. Completing phase 2 after the
  // acknowledgment is safe because every copy is invalid in between and readers fall
  // through to the server. Returns the Put's status.
  Status Write(uint64_t key, std::string value, StorageServer* server,
               const std::vector<CacheNodeId>& copies, const ClientAck& ack_client = {});

  const Stats& stats() const { return stats_; }

 private:
  // One protocol round over all copies, resending undelivered ones up to
  // max_retries times.
  void RunPhase(CoherencePhase phase, uint64_t key, const std::string& value,
                const std::vector<CacheNodeId>& copies);

  Transport transport_;
  Config config_;
  Stats stats_;
};

}  // namespace distcache

#endif  // DISTCACHE_CORE_COHERENCE_H_
