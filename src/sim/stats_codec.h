// Lossless BackendStats (de)serialization — how a multiproc shard process
// returns its quota-end partial stats to the supervisor.
//
// The in-process engines hand BackendStats across a join; a shard *process*
// must hand it across an address space, so each child serializes its partial
// into its arena-resident stats region and the supervisor deserializes and
// Merge()s after reaping it. Requirements that shape the format:
//
//   * bit-exact doubles — loads and latency sums round-trip via their bit
//     patterns (memcpy), never via text, so the multiproc x1 run stays
//     bit-identical to the in-process sharded x1 goldens;
//   * self-describing lengths — vector sizes are written inline, so the
//     supervisor needs no side channel beyond the byte count;
//   * bounded size — StatsCodecBound() gives a pre-run upper bound from the
//     topology and series geometry, which is what sizes the arena regions
//     before the fork (a child can never outgrow its region: the bound is a
//     function of the same config the child runs).
//
// The scalar counters are not named here: serialization, the bound's counter
// term and the digest walk the field tables in sim/sim_backend.h
// (BackendCounters, IntervalCounters), so a counter added there is encoded,
// bounded and — if its row says so — digested without touching this file.
//
// Fields host-endian: the producer and consumer are a fork pair on one
// machine, never a network peer.
#ifndef DISTCACHE_SIM_STATS_CODEC_H_
#define DISTCACHE_SIM_STATS_CODEC_H_

#include <cstddef>
#include <cstdint>

#include "sim/sim_backend.h"

namespace distcache {

// Upper bound on SerializeBackendStats output for any BackendStats produced by
// a run over `num_layers` cache layers of `num_cache_nodes` total switches,
// `num_servers` servers, at most `max_series_points` interval points, and at
// most `max_fault_events` fault records (the size of the injected FaultPlan
// plus a handful of per-shard recovery records; 0 for fault-free engines).
size_t StatsCodecBound(size_t num_layers, size_t num_cache_nodes,
                       size_t num_servers, size_t max_series_points,
                       size_t max_fault_events = 0);

// Serializes `stats` into `out` (capacity `cap`). Returns bytes written, or 0
// when the encoding would not fit (callers size `cap` with StatsCodecBound, so
// 0 indicates a config/bound mismatch, not a runtime condition).
size_t SerializeBackendStats(const BackendStats& stats, uint8_t* out,
                             size_t cap);

// Inverse. Returns false on a truncated or malformed buffer; *out is
// value-initialized first, so a false return leaves an empty stats object.
bool DeserializeBackendStats(const uint8_t* in, size_t len, BackendStats* out);

// Order-independent digest over the *deterministic* subset of a run's stats —
// the field-table rows marked in_digest: the per-shard-stream counters
// (requests/reads/writes/cache_hits/server_reads/dropped and the policy write
// path), failure accounting (failed/respawned shards, injected faults, the
// retired controller_failovers row, degraded_fraction bits) and the per-interval
// request/read/hit/drop series. It deliberately excludes everything
// timing-dependent — telemetry-order-
// sensitive layer splits (spine_hits/leaf_hits) and load vectors at shards>1,
// wall seconds, RSS, heartbeat misses, transport message counts, and the
// fault event series (supervisor entries fire on the wall clock). Same seed +
// same fault plan ⇒ same digest; this is the byte-identity gate bench_chaos
// and the chaos tests assert.
uint64_t DeterministicStatsDigest(const BackendStats& stats);

}  // namespace distcache

#endif  // DISTCACHE_SIM_STATS_CODEC_H_
