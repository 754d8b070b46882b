// The shard runtime: one per-shard engine over a shared-memory arena, with
// two launchers. BackendKind::kSharded runs every shard as a std::thread of
// this process; BackendKind::kMultiproc forks every shard as a pinned child
// process. Everything between launch and merge — ring views, the start
// barrier, RunShard, the realloc rendezvous and the stats publish — is the
// same code on both.
//
// Run state: the supervisor builds the immutable run state (cluster model,
// route tables, alias sampler, precomputed timeline plan), maps the arena and
// serializes the base route table and every plan snapshot *into the arena*,
// freeing the heap copies before launch. Shards install the tables as
// non-owning RouteViews (EngineCore::SetRoutes / SetActionRoutes), so one
// physical copy exists however many shards run. Forked children inherit the
// arena by mapping inheritance and the small read-only state copy-on-write
// (fork without exec: an exec'd child would need a config wire format for no
// isolation gain). Each shard pins itself when pin_cores is set, prefaults its
// inbound rings (first-touch NUMA placement), passes the start barrier, runs
// its event loop (EngineCore + EventQueue + batched hot path) and publishes
// its serialized BackendStats behind a CRC-32 into its arena stats region. A
// thread returns; a child _exit()s. The supervisor joins or reaps, then merges
// every region through the same CRC check and BackendStats::Merge.
//
// Transport: one ShmSpscRing per directed shard pair carries every message
// (telemetry partials, end-of-run load deltas and the kDone marker, serialized
// into fixed slots sized so a full telemetry snapshot fits one). The timeline
// needs no multicast: the fired plan is a pure function of the config, so
// every shard queues it locally and applies each step at its scaled local
// request clock.
//
// kReallocateCache (§6.4) is the one step whose effect is runtime-observed. A
// dynamic policy's plan has no such step, so its runs reserve no report or
// table regions and never rendezvous. Under a static policy the step runs as an
// arena rendezvous with a single controller: every shard publishes its
// heavy-hitter report into an idempotent per-(step, shard) slot; the
// lowest-indexed live shard claims a per-step controller word (CAS, value
// = claimant + 1), re-syncs the remap, merges the published reports and
// refills the allocation hottest-first (ClusterModel::ReallocateFromReports),
// rebuilds the immediate and suffix route tables (BuildReallocRoutes — the
// same two calls as the sequential engine's hook), serializes them into the
// step's region and releases the ready word (which also carries the mask of
// merged shards); everyone then installs the tables as views. The model
// mutation is the one launcher-dependent step: threads share one
// ClusterModel, so only the publisher mutates it (every peer has set its
// report flag and is parked in the rendezvous); forked children each own a
// copy, so non-publishers replay ReallocateFromReports from the masked
// reports. Either way every model is current enough to take over a later
// rendezvous. If a claimant dies before publishing,
// waiters CAS the claim to the next live shard (§4.4-style failover, counted
// in controller_failovers).
//
// Termination: a shard that finishes its quota flushes its deltas, publishes
// kDone to every peer on the same ring, and drains until every peer is done.
// The ring is FIFO, so a peer consumes every delta sent to it before the kDone
// that marks the sender finished.
//
// Fork-only robustness (they need a crash domain per shard):
//
//   * Respawn (config.respawn): a child that dies abnormally is re-forked up
//     to respawn_limit times. The new incarnation re-runs its quota from the
//     start, skips the prefault (zeroing a live ring would clobber in-flight
//     slots), passes the released barrier and re-attaches its ring views via
//     ShmSpscRing::SyncFromShared. Accepted skews: peers see negative
//     telemetry deltas when the respawn's counters restart, and a crash inside
//     the end-of-run flush can double-count the flushed part.
//   * Heartbeat ladder: each shard bumps an arena heartbeat word per batch and
//     per wait-loop pause; the supervisor escalates wait → warn
//     (heartbeat_warn_ms, counted in heartbeat_misses) → declare dead
//     (heartbeat_dead_ms, SIGKILL) → respawn or degrade. A shard that dies
//     beyond its budget is marked kShardDead: every send, rendezvous gather and
//     the done protocol skip it, and the run completes degraded
//     (failed_shards, degraded_fraction). A clean exit that never published
//     its state word counts as a death.
//   * Fault injection (runtime/fault_plan.h, config.fault_plan): crash /
//     stall / drop / delay / corrupt / mapfail events fire on the per-shard
//     request clock from one unlikely branch in the batch loop (an empty plan
//     stays bit-identical to the goldens), each behind a one-shot arena latch
//     so a respawned incarnation does not re-fire it.
//
// The arena abort flag is the catastrophic backstop for a launch that fails
// part-way (fork or thread creation); the start barrier and WaitFor check it.
#ifndef DISTCACHE_SIM_MULTIPROC_BACKEND_H_
#define DISTCACHE_SIM_MULTIPROC_BACKEND_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/alias_sampler.h"
#include "net/shard_map.h"
#include "runtime/shm_arena.h"
#include "runtime/shm_ring.h"
#include "sim/cluster_model.h"
#include "sim/engine_core.h"
#include "sim/event_queue.h"
#include "sim/route_table.h"
#include "sim/sim_backend.h"

namespace distcache {

class MultiprocBackend : public SimBackend {
 public:
  enum class Launcher { kThreads, kForks };

  explicit MultiprocBackend(const SimBackendConfig& config,
                            Launcher launcher = Launcher::kForks);
  ~MultiprocBackend() override;  // out-of-line: Proc is incomplete here

  std::string name() const override {
    return launcher_ == Launcher::kThreads ? "sharded" : "multiproc";
  }
  BackendStats Run(uint64_t num_requests) override;

  // False when the platform cannot run this backend (no fork / no shared
  // anonymous mappings — i.e. non-Linux builds). A Run() on an unsupported
  // platform returns empty stats with failed_shards == shards.
  static bool Supported();

 private:
  struct Proc;       // per-shard state (thread- or process-local)
  struct ProcSink;   // branch-free hot-path sink
  struct ShardSlot;  // per-shard arena line: completion state and heartbeat

  // ---- shard side ----------------------------------------------------------
  std::unique_ptr<Proc> NewProc(uint32_t id) const;
  // The whole shard lifecycle after launch (and pinning) up to the stats
  // publish; returns true when the shard wound down after the abort flag.
  // `respawned` marks a second incarnation re-joining live rings (header
  // comment): it skips the prefault and the start barrier and syncs its ring
  // views.
  bool ShardMain(Proc& p, uint64_t quota, uint64_t num_requests,
                 bool respawned);
  void RunShard(Proc& p, uint64_t quota, uint64_t num_requests);
  void ProcessBatch(Proc& p, uint32_t count);
  void PollInbox(Proc& p);
  // Applies every pending inbound slot; true when one of them was a kDone.
  bool DrainDataRings(Proc& p);
  void FlushLoads(Proc& p);
  void BroadcastTelemetry(Proc& p);
  void SendLoadDeltas(Proc& p, uint32_t peer,
                      const std::vector<std::pair<uint32_t, double>>& cache,
                      const std::vector<std::pair<uint32_t, double>>& server);
  void SendDone(Proc& p, uint32_t peer);
  // Fault-injection hook (runtime/fault_plan.h): fires every planned fault of
  // this shard whose local timestamp has been reached; one-shot per event via
  // an arena latch. Called behind an unlikely-branch guard in the batch loop.
  void MaybeInjectFaults(Proc& p);
  void RecordFault(Proc& p, FaultKind kind, uint64_t at_request);
  // Bumps this shard's arena heartbeat word (relaxed); called per batch and
  // from every wait-loop backoff so legitimate waits never look like stalls.
  void PulseHeartbeat(Proc& p);
  // The post-barrier wait: until ready() holds, drain the inbound rings (a
  // peer blocked on a full ring toward us must progress before it can make
  // us ready), pulse the heartbeat and back off. False, with abort_seen set,
  // once the arena abort flag is up.
  template <typename Ready>
  bool WaitFor(Proc& p, Ready ready);
  ShardSlot* SlotOf(uint32_t shard) const;
  // True once the supervisor declared `shard` permanently dead (kShardDead is
  // only stored after the process was reaped — its writes have stopped).
  bool ShardDead(uint32_t shard) const;
  // Lowest-indexed shard not declared dead — the deterministic controller
  // (and controller-successor) choice for the realloc rendezvous.
  uint32_t FirstLiveShard() const;
  // kReallocateCache rendezvous (header comment): publish report → the first
  // live shard claims controllership, computes and publishes the tables
  // (failover CAS if the claimant dies) → forked non-publishers replay the
  // masked-report model mutations (ClusterModel::ReallocateFromReports) →
  // everyone installs the arena tables on p.core.
  void Reallocate(Proc& p);
  // Controller half of the arena rendezvous: gather every live shard's
  // published report, run the model mutations, build + serialize the tables
  // (BuildReallocRoutes) and release the ready word carrying the merged-shard
  // mask. False when aborted mid-gather.
  bool ControllerPublishRealloc(Proc& p, uint32_t step);
  // Shard `s`'s report slot for `step`: this flag word (0 = unpublished,
  // else entry count + 1), then the entries one cache line in.
  std::atomic<uint64_t>* ReportFlag(uint32_t step, uint32_t s) const;
  // Reads shard `s`'s published report for `step` (its flag must be set).
  std::vector<std::pair<uint64_t, uint32_t>> ReadArenaReport(uint32_t step,
                                                             uint32_t s);
  // True when the slot was a kDone.
  bool ApplyDataSlot(Proc& p, const void* slot);
  // Stages a slot, waiting (WaitFor) while the ring is full; null once
  // aborted or when `peer` was declared dead (callers distinguish via
  // p.abort_seen).
  void* AcquireSlot(Proc& p, ShmSpscRing& ring, uint32_t peer);
  bool Aborted() const;

  // ---- supervisor side -----------------------------------------------------
  // Computes the arena layout for `shards` and this run's series bound —
  // rings, stats regions, the serialized plan tables and the realloc
  // rendezvous slots — and maps it; false when the mapping fails.
  bool LayoutAndMapArena(uint64_t num_requests);
  // Serializes the base route table and every fired-plan snapshot into the
  // arena (pre-launch, post-interleave), then frees the supervisor-heap copies —
  // from here on the arena is the only copy and Run() is single-shot (the
  // repo-wide new-backend-per-Run discipline, see EngineCore::ClearActions).
  void SerializePlanTables();
  // Fork launcher: forks every shard, then reaps, respawns or declares dead
  // (header comment) until none is left. Marks lost shards in *failed and
  // records respawns, heartbeat misses and fault observations in
  // *supervisor. False when a fork failed (children killed, arena unmapped).
  bool ForkAndReap(uint64_t num_requests, std::vector<uint8_t>* failed,
                   BackendStats* supervisor);
  BackendStats FailAll(uint32_t shards) const;

  SimBackendConfig config_;
  Launcher launcher_;
  ClusterModel model_;
  ShardMap shard_map_;
  AliasSampler sampler_;            // head ranks + one tail bucket (phase 0)
  // Opt-in O(hot) sampler (config.two_level_sampling): shards draw from it
  // instead of sampler_ — a different RNG stream, differentially validated,
  // never golden-pinned.
  std::unique_ptr<TwoLevelSampler> two_level_;
  std::shared_ptr<const RouteTable> base_routes_;
  std::vector<TimelineStep> plan_;
  std::vector<TimelineStep> fired_plan_;  // restricted to this Run, pre-launch

  // Arena geometry, computed pre-launch.
  ShmArena arena_;
  size_t control_offset_ = 0;
  size_t data_slot_bytes_ = 0;
  std::vector<size_t> data_ring_offset_;   // [to * shards + from]
  std::vector<size_t> stats_offset_;       // [shard]
  size_t stats_bound_ = 0;

  // Arena-resident plan: serialized-table offsets — [0] the base table,
  // [1 + i] fired_plan_[i]'s snapshot (null steps carry a sentinel header).
  std::vector<size_t> plan_table_offset_;
  // Realloc rendezvous: per fired kReallocateCache step, one report slot per
  // shard and one ready-flag + published-tables region sized for the worst
  // case.
  size_t report_entry_cap_ = 0;        // entries per report slot
  size_t table_cap_bytes_ = 0;         // capacity of one published table
  std::vector<uint32_t> realloc_step_index_;    // fired_plan_ index per step
  std::vector<size_t> report_offset_;           // [step * shards + shard]
  std::vector<size_t> realloc_ready_offset_;    // [step]
  std::vector<std::vector<size_t>> realloc_table_offset_;  // [step][table]
  // One-shot fault latches: one u32 per fault_plan event (zero = unfired), so
  // respawned incarnations replay their streams without re-firing. 0 when the
  // plan is empty (no reservation, no hook work).
  size_t fault_latch_offset_ = 0;
};

}  // namespace distcache

#endif  // DISTCACHE_SIM_MULTIPROC_BACKEND_H_
