// Thread-per-node execution of the full DistCache architecture on one machine —
// the "software cache nodes emulate switches" deployment. Every spine switch, leaf
// switch and storage server is a thread with a message inbox; clients use a library
// that performs the client-ToR power-of-two-choices routing and learns switch loads
// from telemetry piggybacked on replies, exactly mirroring §4.2.
//
// Query handling:
//  * GET of a cached key → routed to the less-loaded of {spine h0-copy, leaf copy};
//    a hit is answered by the switch thread; an invalid/missing entry is forwarded to
//    the primary server without any routing detour.
//  * GET of an uncached key → sent to the primary server directly.
//  * PUT → sent to the primary server, whose thread drives TwoPhaseCoherence
//    (core/coherence.h) over the cached copies: phase 1 invalidate, primary update,
//    client ack carrying the update's status, phase 2 update. Its transport sends a
//    phase's packets to the switch threads, which apply them with ApplyCoherence
//    and ack on the server's private channel.
#ifndef DISTCACHE_RUNTIME_RUNTIME_H_
#define DISTCACHE_RUNTIME_RUNTIME_H_

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "cache/cache_switch.h"
#include "common/status.h"
#include "core/allocation.h"
#include "core/load_tracker.h"
#include "core/mechanism.h"
#include "core/pot_router.h"
#include "kv/placement.h"
#include "kv/storage_server.h"
#include "net/message.h"
#include "runtime/channel.h"

namespace distcache {

struct RuntimeConfig {
  Mechanism mechanism = Mechanism::kDistCache;
  uint32_t num_spine = 4;
  uint32_t num_racks = 4;
  uint32_t servers_per_rack = 4;
  uint32_t per_switch_objects = 16;
  uint64_t num_keys = 10000;  // keys seeded into the store (dense 0..num_keys-1)
  RoutingPolicy routing = RoutingPolicy::kPowerOfTwo;
  uint64_t seed = 11;
};

class DistCacheRuntime {
 public:
  explicit DistCacheRuntime(const RuntimeConfig& config);
  ~DistCacheRuntime();

  DistCacheRuntime(const DistCacheRuntime&) = delete;
  DistCacheRuntime& operator=(const DistCacheRuntime&) = delete;

  // Starts all node threads and seeds the stores and caches.
  void Start();
  // Drains and joins all threads. Idempotent.
  void Stop();

  // Canonical value for a key (what Get must return after seeding).
  static std::string ValueFor(uint64_t key) { return "v" + std::to_string(key); }

  struct Counters {
    std::atomic<uint64_t> cache_hits{0};
    std::atomic<uint64_t> cache_misses{0};
    std::atomic<uint64_t> server_gets{0};
    std::atomic<uint64_t> writes{0};
    std::atomic<uint64_t> invalidations{0};
    std::atomic<uint64_t> cache_updates{0};
  };

  // A per-thread client handle: owns its reply channel, load tracker and router.
  class Client {
   public:
    Client(DistCacheRuntime* runtime, uint64_t seed);

    StatusOr<std::string> Get(uint64_t key);
    Status Put(uint64_t key, std::string value);

    const LoadTracker& tracker() const { return tracker_; }

   private:
    void AbsorbPiggyback(const Message& reply);

    DistCacheRuntime* runtime_;
    LoadTracker tracker_;
    PotRouter router_;
    Channel<Message> replies_;
    uint64_t next_request_ = 1;
  };

  std::unique_ptr<Client> NewClient(uint64_t seed);

  const Counters& counters() const { return counters_; }
  const RuntimeConfig& config() const { return config_; }
  const CacheAllocation& allocation() const { return *allocation_; }
  // Per-switch telemetry loads since start (hits + coherence touches).
  std::vector<uint64_t> SpineLoads() const { return Loads(0); }
  std::vector<uint64_t> LeafLoads() const { return Loads(1); }

 private:
  friend class Client;

  struct Envelope {
    Message msg;
    Channel<Message>* reply_to = nullptr;
  };

  // The paper's two-layer prototype: layer 0 is the spines, layer 1 the leaves.
  static constexpr uint32_t kLayers = 2;

  void SwitchLoop(CacheNodeId self);
  void ServerLoop(uint32_t server_id);
  // Cached copies of `key` as routable node ids (replication expands to all spines).
  std::vector<CacheNodeId> CopyNodes(uint64_t key) const;
  uint32_t ServerOf(uint64_t key) const { return placement_.ServerOf(key); }
  Channel<Envelope>& SwitchInbox(CacheNodeId node) {
    return *switch_inboxes_[node.layer][node.index];
  }
  std::vector<uint64_t> Loads(uint32_t layer) const;

  RuntimeConfig config_;
  Placement placement_;
  std::unique_ptr<CacheAllocation> allocation_;

  // Switches and their inboxes, indexed [layer][index] like CacheNodeId.
  std::array<std::vector<std::unique_ptr<CacheSwitch>>, kLayers> switches_;
  std::array<std::vector<std::unique_ptr<Channel<Envelope>>>, kLayers> switch_inboxes_;
  std::vector<std::unique_ptr<StorageServer>> servers_;
  std::vector<std::unique_ptr<Channel<Envelope>>> server_inboxes_;

  std::vector<std::thread> threads_;
  Counters counters_;
  bool started_ = false;
  bool stopped_ = false;
};

}  // namespace distcache

#endif  // DISTCACHE_RUNTIME_RUNTIME_H_
