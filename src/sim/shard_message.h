// Heap-payload cross-shard message for in-process rings and channels.
//
// The shard runtime (sim/multiproc_backend.h) sends only telemetry, serialized
// into fixed arena slots; this type keeps an in-process message shape —
// batched load deltas, dense telemetry partials and an end-of-stream marker —
// for code that moves messages through runtime/spsc_ring.h or
// runtime/channel.h (the transport tests and the ring microbenchmarks).
// Senders batch everything: one message carries all the load deltas one
// source shard produced for one destination, so transport traffic is
// O(epochs), not O(requests).
#ifndef DISTCACHE_SIM_SHARD_MESSAGE_H_
#define DISTCACHE_SIM_SHARD_MESSAGE_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "net/topology.h"

namespace distcache {

struct ShardMsg {
  enum class Kind : uint8_t {
    // cache_entries/server_entries are load *deltas* for the receiver to add
    // to its counters (the ring tests and microbenchmarks batch them; the
    // shard runtime no longer sends loads between shards).
    kLoadDeltas,
    // cache_partials[flat_node] is the sender's *own cumulative contribution* to
    // each cache node (flat index: spine i → i, leaf l → num_spine + l). Partials
    // are monotone per sender, so receivers fold in `new - last_seen` and every
    // shard's load view stays a consistent sum of per-shard partials — immune to
    // shard scheduling skew (absolute-load broadcasts from differently-aged epochs
    // would mix inconsistently).
    kTelemetry,
    // End of the sender's stream: each inbox is FIFO per sender, so nothing
    // from it follows. Only the transport tests send it.
    kDone,
  };

  Kind kind = Kind::kLoadDeltas;
  uint32_t from = 0;
  std::vector<std::pair<CacheNodeId, double>> cache_entries;
  std::vector<std::pair<uint32_t, double>> server_entries;
  std::vector<double> cache_partials;
};

}  // namespace distcache

#endif  // DISTCACHE_SIM_SHARD_MESSAGE_H_
