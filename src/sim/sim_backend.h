// SimBackend — the pluggable execution engine behind the cluster driver.
//
// The repo has three ways to answer "what does a DistCache cluster do under this
// workload?", and they all sit behind this one interface so the same driver
// (tools/distcache_sim.cc), benches, and tests can swap them with a flag:
//
//   * "fluid"      — ClusterSim, the analytic fluid model (rates, not requests).
//                    Exact and fast for saturation searches; no per-request effects.
//   * "sequential" — the single-threaded request-level reference: one request at a
//                    time through EngineCore (sim/engine_core.h): inverse-CDF key
//                    sampling, a route-table lookup for the key's candidates
//                    (sim/route_table.h), the PoT choice among them and a
//                    per-request LoadTracker update. This is the semantic
//                    baseline every other backend must match.
//   * "sharded"    — the scalable shard runtime (sim/multiproc_backend.h): the
//                    request quota split across N worker shards, one batch
//                    loop per shard, load telemetry published once per epoch
//                    into one lock-free shared-memory slot per shard that
//                    every peer polls at its batch boundaries, per-shard
//                    loads summed at the quota-end merge, and a batched hot path that amortizes
//                    Zipf sampling (alias table), hash routing (precomputed
//                    per-key route entries, prefetched ahead) and LoadTracker
//                    updates over batches of 256 requests. Shards are threads;
//                    "multiproc" launches the same runtime as one forked
//                    process per shard.
//
// Contract for implementations:
//
//  1. Run(n) executes exactly n requests (reads+writes per the configured write
//     ratio) and returns aggregate statistics. The fluid backend is the one licensed
//     exception: it simulates offered *rates* and reports analytic equivalents.
//  2. Same ClusterConfig + seed ⇒ the same workload distribution, placement, and
//     cache allocation in every backend (all build one ClusterModel, which
//     ClusterSim holds too), so hit ratios and load shapes are comparable across
//     backends and against the fluid model.
//  3. Backends must preserve the PoT routing invariants documented in
//     core/pot_router.h and core/load_tracker.h: fixed candidate sets from the
//     allocation hashes, less-loaded-wins among candidates, bounded-staleness load
//     views. A backend may relax *telemetry freshness* (that is physical: real
//     switches gossip loads once per epoch) but never the candidate structure.
//  4. Aggregate stats (hit ratio, per-layer loads, imbalance) of any request-level
//     backend must match the sequential reference within small statistical
//     tolerance for the same config — this is what tests/sim/sim_backend_test.cc
//     enforces for 1-vs-N shards.
#ifndef DISTCACHE_SIM_SIM_BACKEND_H_
#define DISTCACHE_SIM_SIM_BACKEND_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "cluster/cluster_config.h"
#include "common/stats.h"
#include "common/workload.h"
#include "runtime/fault_plan.h"

namespace distcache {

// One scheduled cluster reconfiguration, timestamped in requests: the event applies
// just before the `at_request`-th request of a Run() (timestamps are relative to the
// start of each Run). Failure events (§4.4 / Fig. 11) are the engine-agnostic
// equivalent of calling ClusterSim::{FailSpine,RecoverSpine,RunFailureRecovery}
// mid-measurement; the workload events (§6.4 hot-spot shift) rotate the hot set and
// trigger online cache re-allocation from observed heavy-hitter counts.
struct ClusterEvent {
  enum class Kind : uint8_t {
    kFailSpine,        // spine switch dies: its cached partition blackholes
    kRecoverSpine,     // switch restored: partitions return to their home switch
    kRunRecovery,      // controller remaps failed partitions onto alive spines
    kShiftHotspot,     // hot set rotates: rank r now maps to key (r + value) % keys
    kReallocateCache,  // controller re-allocates the cache from observed counts and
                       // pushes the new routes (the §6.4 cache-update reaction)
  };

  Kind kind = Kind::kFailSpine;
  uint64_t at_request = 0;
  uint32_t spine = 0;   // kFailSpine / kRecoverSpine only
  uint64_t value = 0;   // kShiftHotspot: the hot-set rotation amount

  static ClusterEvent FailSpine(uint64_t at_request, uint32_t spine) {
    return {Kind::kFailSpine, at_request, spine, 0};
  }
  static ClusterEvent RecoverSpine(uint64_t at_request, uint32_t spine) {
    return {Kind::kRecoverSpine, at_request, spine, 0};
  }
  static ClusterEvent RunRecovery(uint64_t at_request) {
    return {Kind::kRunRecovery, at_request, 0, 0};
  }
  static ClusterEvent ShiftHotspot(uint64_t at_request, uint64_t shift) {
    return {Kind::kShiftHotspot, at_request, 0, shift};
  }
  static ClusterEvent ReallocateCache(uint64_t at_request) {
    return {Kind::kReallocateCache, at_request, 0, 0};
  }
};

// Open-loop virtual-time model (the tentpole of the latency layer). When the
// arrival process is enabled every request acquires an arrival timestamp from a
// Poisson clock, waits in a per-node FIFO at the node that serves it, draws an
// exponential service time at that node's rate, and records
//   latency = hops x hop_cost + (departure - arrival)
// into BackendStats::latency. Time is measured in storage-server service-time
// units (server_service_rate = 1.0 is one server), matching the fluid model's
// capacity arithmetic, so arrival.rate is an absolute offered rate directly
// comparable to ClusterSim::TotalServerCapacity(). Hop counts follow the
// closed-loop model in cluster/latency.h: a layer-l cache hit pays l+1 hops
// (spine hit = 1), a server answer pays num_layers+1 (the full descent).
//
// When disabled (the default) the engines are bit-identical to a build without
// the layer: the open-loop branch is one never-taken compare and no time RNG is
// ever consumed, so the PR 4/5/6 golden pins hold.
struct QueueModelConfig {
  ArrivalConfig arrival;
  // Per-cache-layer service rates, top first. Empty = auto, mirroring the fluid
  // model's capacity discipline: every cache node serves at servers_per_rack x
  // server_capacity (overridden by spine_capacity / leaf_capacity when set). A
  // single entry broadcasts to all layers.
  std::vector<double> service_rates;
  double server_service_rate = 1.0;
  // One-way network hop cost in virtual-time units (cluster/latency.h default).
  double hop_cost = 0.2;

  bool enabled() const { return arrival.enabled(); }
};

// The per-layer cache service rates a QueueModelConfig resolves to against a
// cluster, top first. queue.service_rates must be empty (auto:
// LayerCapacities), hold one value (broadcast to every layer) or hold one
// value per cache layer; any other length is a config error — the CLI refuses
// it and this aborts on it. Used by the request engines and the fluid
// engine's analytic forms, so their mus cannot diverge.
std::vector<double> ResolveServiceRates(const QueueModelConfig& queue,
                                        const ClusterConfig& cluster);

// Engine configuration: the simulated cluster plus execution-engine knobs.
struct SimBackendConfig {
  ClusterConfig cluster;

  // Number of worker shards (sharded backend only; others ignore it).
  uint32_t shards = 1;
  // Requests processed per batch on the amortized hot path. 256 measured best on
  // the reference hardware: the batch (1KB of sampled buckets plus the touched
  // route-entry lines) still sits in L1 while amortizing sampling, the
  // batch-boundary transport polls, and the event-queue reschedule over 4x more
  // requests than the historical 64 — and giving the route-entry prefetcher a
  // longer run. Batch size changes the RNG draw interleaving (buckets are
  // sampled batch-at-a-time), so runs are bit-reproducible per batch size, not
  // across batch sizes; the sharded golden test pins the legacy 64.
  uint32_t batch_size = 256;
  // Telemetry epoch length in requests per shard: how often each shard
  // publishes its cumulative per-node load partials for its peers to fold in
  // — the view staleness bound of the shard runtime (sharded/multiproc only,
  // which refuse 0 at shards > 1; the sequential engine's view is exact after
  // every request and ignores it).
  uint64_t epoch_requests = 4096;

  // Reconfiguration timeline applied during Run() (need not be sorted; engines
  // sort by at_request, ties applied in list order). Timestamps at or beyond the
  // Run's request count never fire. An empty timeline is bit-identical to a
  // timeline-free run of the same build: timeline machinery consumes no RNG
  // draws. (Absolute streams are stable per build, not across releases — the
  // engine-core unification fixed one per-request draw order for all engines,
  // so write-workload streams differ from pre-unification sequential runs.)
  std::vector<ClusterEvent> events;
  // Workload phase timeline (need not be sorted): each phase switches the request
  // stream's skew/write ratio/hot rotation at its start_request, alongside (and
  // independent of) the cluster events above. When phases and events share a
  // timestamp the phases apply first. Empty = one implicit phase from `cluster`
  // (zipf_theta/write_ratio, no rotation), bit-identical to a phase-free run.
  // Request-level engines rebuild their samplers and route tables at each phase
  // boundary; the fluid engine re-derives its popularity vector per segment.
  std::vector<WorkloadPhase> phases;
  // Open-loop virtual-time model (disabled by default — closed-loop runs stay
  // bit-identical to the historical engines). The sharded engine gives every
  // shard its own full-rate clock and per-node queue replicas (independent time
  // slices of the same arrival process, like the PR 6 policy replicas) and
  // merges the per-shard histograms at quota end.
  QueueModelConfig queue;
  // Pin each shard worker to a CPU core (shard i -> core i % online cores):
  // thread affinity for sharded, process affinity for multiproc; either way
  // before the shard allocates its state, so first touch places it on the
  // core's NUMA node. Off by default — pinning helps dedicated hosts and
  // hurts shared ones.
  bool pin_cores = false;
  // Back the multiproc engine's shared arena — its telemetry, stats and report
  // slots; the route tables are inherited heap pages — with 2 MiB huge pages
  // when the reserved pool has them (runtime/shm_arena.h; silent fallback
  // otherwise).
  bool huge_pages = false;
  // Multiproc: re-fork a shard process that dies abnormally, up to
  // respawn_limit times per shard (total across the run), instead of degrading
  // the run; 0 (the default) never respawns. The respawned shard re-joins from
  // the inherited plan and re-runs its quota from the start of its
  // (deterministic) stream; exact counters stay exact-once (only the final
  // incarnation serializes its stats), but its restarted telemetry partials
  // fold into peers' views as negative deltas, so their *approximate* load
  // views skew meanwhile. A shard that exhausts the limit is declared dead and
  // the run degrades (survivors complete; failed_shards/degraded_fraction
  // record the loss).
  uint32_t respawn_limit = 0;
  // Multiproc: injected-fault schedule (runtime/fault_plan.h). Empty (the
  // default) compiles to one never-taken branch per batch — bit-identical to
  // a fault-free run. Other engines ignore it.
  FaultPlan fault_plan;
  // Multiproc supervisor heartbeat deadlines, in wall milliseconds. A shard
  // whose arena heartbeat word stops advancing for heartbeat_warn_ms is
  // counted as a heartbeat miss (warn); one silent for heartbeat_dead_ms is
  // declared dead (SIGKILL + respawn-or-degrade). 0 disables that rung of the
  // escalation. Deadlines are wall-clock and therefore never part of the
  // deterministic stats digest.
  uint64_t heartbeat_warn_ms = 2000;
  uint64_t heartbeat_dead_ms = 30000;
  // Opt-in two-level workload sampling: an alias table over the cached hot
  // prefix plus a closed-form inverse-CDF for the capped-Zipf tail
  // (common/alias_sampler.h), making sampler memory O(cached keys) instead of
  // O(candidate pool). The RNG draw sequence differs from the dense samplers,
  // so this mode is differentially validated (hit ratio / imbalance
  // tolerances) rather than golden-pinned; default off keeps every engine
  // bit-identical to the dense path.
  bool two_level_sampling = false;
  // Differential-test / memory-baseline mode: build full-pool dense route
  // tables (pre-compaction layout). Routing is bit-identical either way; this
  // exists so tests and bench_memwall can measure compact vs dense.
  bool dense_routes = false;
  // When > 0, BackendStats::series records one IntervalPoint per this many
  // requests — the Fig. 11 time-series instrumentation. The sharded backend
  // samples each shard every sample_interval/shards local requests and merges
  // per-index, so interval boundaries are accurate to within one batch; keep
  // sample_interval well above batch_size × shards — smaller intervals cannot be
  // resolved at batch granularity and are padded with zero-width points (which
  // keep the indices aligned but concentrate counts in the batch's first
  // interval).
  uint64_t sample_interval = 0;
};

// How BackendStats::Merge folds a shard partial's counter into the total.
enum class MergeRule : uint8_t { kSum, kMax };

// Number of rows in a counter table (BackendCounters, IntervalCounters).
template <typename Counters>
constexpr size_t CounterCount() {
  size_t n = 0;
  Counters::ForEach([&n](auto, MergeRule, bool) { ++n; });
  return n;
}

// The scalar counters of a run, declared once. Merge, the stats codec and its
// size bound, and DeterministicStatsDigest all walk ForEach, so a new counter is
// one declaration plus one ForEach row; a declaration without a row fails the
// static_assert below.
struct BackendCounters {
  uint64_t requests = 0;
  uint64_t reads = 0;
  uint64_t writes = 0;
  uint64_t cache_hits = 0;   // reads answered by a cache switch
  uint64_t spine_hits = 0;   // hits absorbed by the top (spine) layer
  uint64_t leaf_hits = 0;    // hits absorbed by any lower layer (mid or leaf)
  uint64_t server_reads = 0; // reads served by the primary storage server
  // Dynamic-policy write path (core/cache_policy.h; zero under the default
  // static policy): writes absorbed by a cache node under write-back, and dirty
  // lines flushed to their primary server (on eviction, demotion off the bottom
  // layer, or a write falling through to the server).
  uint64_t cache_write_hits = 0;
  uint64_t writebacks = 0;
  // Requests blackholed by a dead spine switch before the controller reacted
  // (ECMP transit through a failed switch, §4.4); they charge no load anywhere.
  uint64_t dropped = 0;
  // Shard-transport instrumentation (zero elsewhere): telemetry messages, one
  // per peer per telemetry publish (the only cross-shard messages; a function
  // of quota, epoch, batch size and fault plan), and the batch-boundary polls
  // split by whether they found a new version in some peer's slot (contended)
  // or none (uncontended). The scaling bench reports these; every contended
  // poll folded at least one of the messages.
  uint64_t ring_messages = 0;
  uint64_t uncontended_receives = 0;
  uint64_t contended_receives = 0;
  // Multiproc engine only: shard processes that died (crashed / were killed)
  // before reporting their stats. Nonzero means the run's counters are a
  // partial picture and the driver should report failure — the crash-isolation
  // contract: a dead shard yields an explicit error, never a hang.
  uint64_t failed_shards = 0;
  // Multiproc engine only: re-forks performed under respawn_limit (supervisor-
  // set; counts every respawn, so one shard killed twice contributes 2). A
  // shard that exhausts SimBackendConfig::respawn_limit still counts failed.
  uint64_t respawned_shards = 0;
  // Multiproc engine only: injected faults the shard processes survived and
  // recorded (stall/drop/delay/corrupt; crash-class injections kill the
  // recorder, so the supervisor's fault_events entry is their record).
  uint64_t injected_faults = 0;
  // Multiproc engine only: heartbeat warn episodes the supervisor observed
  // (a shard silent past heartbeat_warn_ms; wall-clock, not deterministic).
  uint64_t heartbeat_misses = 0;
  // Retired: nothing sets it (the realloc rendezvous elects no controller);
  // its row keeps the digest's mix order and the codec's wire order.
  uint64_t controller_failovers = 0;
  // Multiproc engine only: fraction of the run's request quota lost to shards
  // that died without (or beyond) respawn — lost_quota / num_requests. The
  // proportional-degradation contract: losing 1 of N shards without respawn
  // costs 1/N of the quota and nothing else.
  double degraded_fraction = 0.0;

  // ---- memory accounting -----------------------------------------------------
  // Peak resident set (getrusage ru_maxrss) of the process that produced these
  // stats. Merge keeps the max: multi-process children each count their view
  // of shared pages, so a sum would overcount the arena/COW pages — the max is
  // the honest single-number summary, and bench_memwall derives totals from
  // the deterministic byte fields below instead.
  uint64_t peak_rss_bytes = 0;
  // Bytes held by this engine's route-table snapshots (base table + every
  // precomputed timeline snapshot, compact hot-prefix layout). The shard
  // runtime's supervisor stamps the plan's bytes once on either launcher:
  // thread shards share its tables and forked children inherit them, never
  // through the arena. A re-allocation's tables are not counted.
  uint64_t route_table_bytes = 0;
  // Bytes held by this engine's per-process workload sampler(s): the dense
  // alias / inverse-CDF tables, or the O(hot) two-level sampler. Merge keeps
  // the max (shards are symmetric); bench_memwall multiplies by the shard
  // count when it wants the per-process private total.
  uint64_t sampler_bytes = 0;
  // Multiproc engine only: bytes of the shared-memory arena, mapped once and
  // shared by every shard process (supervisor-set after the merge).
  uint64_t arena_bytes = 0;

  double wall_seconds = 0.0;

  // The field table: calls f(&BackendCounters::field, merge rule, in_digest)
  // for every field, in declaration order — the codec's wire order and the
  // digest's mix order. in_digest marks the deterministic subset: everything
  // timing-dependent (layer splits, transport counts, heartbeats, memory, wall
  // time) stays out of DeterministicStatsDigest.
  template <typename F>
  static constexpr void ForEach(F&& f) {
    using C = BackendCounters;
    constexpr MergeRule kSum = MergeRule::kSum;
    constexpr MergeRule kMax = MergeRule::kMax;
    f(&C::requests, kSum, true);
    f(&C::reads, kSum, true);
    f(&C::writes, kSum, true);
    f(&C::cache_hits, kSum, true);
    f(&C::spine_hits, kSum, false);
    f(&C::leaf_hits, kSum, false);
    f(&C::server_reads, kSum, true);
    f(&C::cache_write_hits, kSum, true);
    f(&C::writebacks, kSum, true);
    f(&C::dropped, kSum, true);
    f(&C::ring_messages, kSum, false);
    f(&C::uncontended_receives, kSum, false);
    f(&C::contended_receives, kSum, false);
    f(&C::failed_shards, kSum, true);
    f(&C::respawned_shards, kSum, true);
    f(&C::injected_faults, kSum, true);
    f(&C::heartbeat_misses, kSum, false);
    f(&C::controller_failovers, kSum, true);
    f(&C::degraded_fraction, kSum, true);
    f(&C::peak_rss_bytes, kMax, false);
    f(&C::route_table_bytes, kMax, false);
    f(&C::sampler_bytes, kMax, false);
    f(&C::arena_bytes, kMax, false);
    f(&C::wall_seconds, kMax, false);
  }
};
static_assert(sizeof(BackendCounters) == 8 * CounterCount<BackendCounters>(),
              "every BackendCounters field needs a ForEach row");

// The per-interval counters of BackendStats::series, with the same table
// shape: all sum on merge; delivered (= requests - dropped) is derived, so the
// digest skips it.
struct IntervalCounters {
  uint64_t requests = 0;
  uint64_t reads = 0;
  uint64_t cache_hits = 0;
  uint64_t dropped = 0;
  uint64_t delivered = 0;

  template <typename F>
  static constexpr void ForEach(F&& f) {
    using C = IntervalCounters;
    f(&C::requests, MergeRule::kSum, true);
    f(&C::reads, MergeRule::kSum, true);
    f(&C::cache_hits, MergeRule::kSum, true);
    f(&C::dropped, MergeRule::kSum, true);
    f(&C::delivered, MergeRule::kSum, false);
  }
};
static_assert(sizeof(IntervalCounters) == 8 * CounterCount<IntervalCounters>(),
              "every IntervalCounters field needs a ForEach row");

// Aggregate result of a backend run. Loads are cumulative arrival units (a read = 1
// unit; writes add the coherence costs from ClusterConfig), indexed by node.
struct BackendStats : BackendCounters {
  // One entry per sample_interval requests (when SimBackendConfig::sample_interval
  // is set): the per-interval slice of the aggregate counters, for failure
  // time-series plots. delivered == requests - dropped for the interval.
  struct IntervalPoint : IntervalCounters {
    // This interval's latency slice (empty on closed-loop runs). Inside the
    // engines' interval mark it holds the cumulative snapshot the next delta is
    // taken against.
    LatencyHistogram latency;

    double delivered_fraction() const {
      return requests == 0
                 ? 1.0
                 : static_cast<double>(delivered) / static_cast<double>(requests);
    }
    double hit_ratio() const {
      return reads == 0 ? 0.0
                        : static_cast<double>(cache_hits) / static_cast<double>(reads);
    }
  };
  std::vector<IntervalPoint> series;

  // Closes the current interval: appends the delta between this object's counters
  // (with `processed` as the request count) and `mark`, then advances `mark`.
  // Shared by the request-level engines' series bookkeeping.
  void CloseIntervalAt(uint64_t processed, IntervalPoint& mark);

  // One fault or recovery observation (multiproc only). kind < 16 is an
  // injected FaultKind (runtime/fault_plan.h) recorded by the shard that
  // survived it, with `at` the plan timestamp; kind >= 16 is a supervisor
  // observation (death, respawn, declared-dead, heartbeat warn, CRC mismatch,
  // arena map failure), with `at` = 0 — supervisor entries carry no virtual
  // timestamp because they fire on the wall clock.
  struct FaultRecord {
    static constexpr uint32_t kShardDeath = 16;
    static constexpr uint32_t kShardRespawn = 17;
    static constexpr uint32_t kShardDeclaredDead = 18;
    static constexpr uint32_t kHeartbeatWarn = 19;
    static constexpr uint32_t kStatsCrcMismatch = 21;
    static constexpr uint32_t kArenaMapFailed = 22;

    uint32_t shard = 0;
    uint32_t kind = 0;
    uint64_t at = 0;
  };
  // The run's fault/recovery event series, in merge order (per-shard records
  // first, supervisor observations appended after the merge).
  std::vector<FaultRecord> fault_events;

  // Cumulative load per cache node, one vector per layer of the hierarchy (top
  // first: cache_load.front() is the spine layer, cache_load.back() the
  // rack-bound leaves; two entries in the historical two-layer deployment).
  std::vector<std::vector<double>> cache_load;
  std::vector<double> server_load;

  const std::vector<double>& spine_load() const { return cache_load.front(); }
  const std::vector<double>& leaf_load() const { return cache_load.back(); }

  // End-to-end latency distribution of the run (empty unless the open-loop
  // arrival process was configured). Shard-merge associative: the sharded
  // engine's quota-end Merge yields the bucket-exact union of its streams.
  LatencyHistogram latency;

  // Fraction of reads absorbed by the cache layers (the paper's cache hit ratio).
  double hit_ratio() const {
    return reads == 0 ? 0.0 : static_cast<double>(cache_hits) / static_cast<double>(reads);
  }
  // Engine speed in million simulated requests per wall-clock second.
  double throughput_mrps() const {
    return wall_seconds <= 0.0 ? 0.0
                               : static_cast<double>(requests) / wall_seconds / 1e6;
  }
  // Max/mean cumulative load across all cache switches (spine+leaf): 1.0 is perfect
  // balance; the PoT guarantee keeps this small even under Zipf-0.99.
  double CacheImbalance() const;
  // Max/mean cumulative load across storage servers.
  double ServerImbalance() const;

  // Element-wise accumulate (used to merge per-shard partial stats).
  void Merge(const BackendStats& other);
};

class SimBackend {
 public:
  virtual ~SimBackend() = default;

  // Human-readable engine name ("sequential", "sharded", "multiproc", "fluid").
  virtual std::string name() const = 0;

  // Executes `num_requests` requests and returns aggregate stats (contract above).
  virtual BackendStats Run(uint64_t num_requests) = 0;
};

enum class BackendKind {
  kSequential,
  kSharded,
  kFluid,
  // The sharded engine's semantics with shards as separate pinned *processes*
  // over a shared-memory arena (sim/multiproc_backend.h) — crash isolation per
  // shard and the path past the single-process memory wall.
  kMultiproc,
};

// Parses "sequential" / "sharded" / "fluid" / "multiproc"; aborts with a
// message on anything else.
BackendKind ParseBackendKind(const std::string& name);

// This process's peak resident set in bytes (getrusage ru_maxrss; 0 where the
// platform has no rusage). Engines stamp it into BackendStats::peak_rss_bytes
// at the end of a Run; note maxrss is a process-lifetime high-water mark, so
// back-to-back runs in one process report the largest of them.
uint64_t CurrentPeakRssBytes();

// Factory. The returned backend owns its cluster state; construction performs the
// full allocation (same derived seeds as ClusterSim for cross-backend parity).
std::unique_ptr<SimBackend> MakeSimBackend(BackendKind kind, const SimBackendConfig& config);

}  // namespace distcache

#endif  // DISTCACHE_SIM_SIM_BACKEND_H_
