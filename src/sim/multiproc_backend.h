// The shard runtime: one per-shard engine over a shared-memory arena, with
// two launchers. BackendKind::kSharded runs every shard as a std::thread of
// this process; BackendKind::kMultiproc forks every shard as a pinned child
// process. Everything between launch and merge — the start barrier, RunShard,
// the telemetry slots, the realloc rendezvous and the stats publish — is the
// same code on both.
//
// Run state: the supervisor builds the run state (cluster model, route
// tables, alias sampler, precomputed timeline plan), maps the arena and
// serializes each distinct table among the base route table and the plan
// snapshots *into the arena* once, freeing the heap copies before launch.
// Shards install the tables as non-owning RouteViews (EngineCore::SetRoutes /
// SetActionRoutes), so one physical copy exists however many shards run. The
// model is read-only on the hot path; only a re-allocation mutates it (below).
// Forked children inherit the arena by mapping inheritance and the small
// read-only state copy-on-write (fork without exec: an exec'd child would need
// a config wire format for no isolation gain). Each shard pins itself when
// pin_cores is set, passes the start barrier, runs its batch loop (EngineCore
// + batched hot path, a telemetry publish per epoch) and publishes its
// serialized BackendStats behind a CRC-32 into its arena stats region. A
// thread returns; a child _exit()s. The supervisor joins or reaps, then merges
// every region through the same CRC check and BackendStats::Merge.
//
// Transport: each shard owns one arena telemetry slot — a version word, then
// one lock-free 64-bit word per cache node holding the bits of the shard's
// own-contribution partial. At each epoch boundary the shard stores the
// partials (relaxed) and bumps the version (release); at each batch boundary
// every peer acquires each version and, when it moved, folds the slot through
// its last_partial delta fold. Partials are cumulative and every cost is a
// multiple of 0.25, so folding only the newest value gives the view that
// folding every earlier one would. Nothing can block a publish, and nothing
// else crosses between shards while they run: each shard's stats carry its
// own loads and Merge sums them. The timeline needs no multicast: the fired
// plan is a pure function of the config, so every shard queues it locally and
// applies each step at its scaled local request clock.
//
// kReallocateCache (§6.4) is the one step whose effect is runtime-observed. A
// dynamic policy's plan has no such step, so its runs reserve no report
// regions and never rendezvous. Under a static policy every shard publishes
// its heavy-hitter report into an idempotent per-(step, shard) arena slot.
// The refill that follows (ReallocateAndInstall, the sequential engine's hook)
// is a pure function of the reports — ClusterModel::ReallocateFromReports is
// order-independent, hash-based and RNG-free — so no controller is elected:
// each forked shard gathers every report (a dead shard's is absent), refills
// its own copy of the model and builds and installs its own tables. Thread
// shards share one model, and no thread shard can die, so shard 0 gathers,
// refills and releases its tables through a backend word while its peers wait
// at the rendezvous, then the peers install views of them.
//
// Termination: a shard that finishes its quota copies its own contributions
// into its stats, publishes them and returns, waiting for no peer. Its slot
// keeps its last partial, which peers still running may fold.
//
// Fork-only robustness (they need a crash domain per shard):
//
//   * Respawn (config.respawn_limit > 0): a child that dies abnormally is
//     re-forked up to respawn_limit times. The new incarnation re-runs its quota from the
//     start, passes the released barrier, folds its peers' slots at its first
//     poll and keeps bumping its own slot's version. Accepted skew: peers see
//     negative telemetry deltas when the respawn's partials restart. Loads
//     count exactly once, since only the final incarnation's stats are
//     merged.
//   * Heartbeat ladder: each shard bumps an arena heartbeat word per batch and
//     per wait-loop pause; the supervisor escalates wait → warn
//     (heartbeat_warn_ms, counted in heartbeat_misses) → declare dead
//     (heartbeat_dead_ms, SIGKILL) → respawn or degrade. A shard that dies
//     beyond its budget is marked kShardDead: the start barrier and every
//     rendezvous gather skip it, and the run completes degraded
//     (failed_shards, degraded_fraction). A clean exit that never published
//     its state word counts as a death. The realloc rendezvous has no single
//     controller to lose: the survivors refill from the reports they have.
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
#include "net/topology.h"
#include "runtime/shm_arena.h"
#include "sim/cluster_model.h"
#include "sim/engine_core.h"
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

  // Shard i's share of a run of `num_requests` over `n` shards: an even
  // split, the remainder to the lowest ids.
  static uint64_t QuotaOf(uint64_t num_requests, uint32_t n, uint32_t i);

  // Empty when every `drop` term of config.fault_plan fires on a run of
  // `num_requests`; otherwise an error naming the first term that cannot,
  // because its shard publishes no telemetry after the batch where the drop
  // arms (one shard has no peers to publish to; a drop past the shard's last
  // epoch boundary has no publish left to swallow). Run aborts with it on the
  // fork launcher, the only one that injects faults.
  static std::string UnfiredDropFault(const SimBackendConfig& config,
                                      uint64_t num_requests);

 private:
  struct Proc;       // per-shard state (thread- or process-local)
  struct ProcSink;   // branch-free hot-path sink
  struct ShardSlot;  // per-shard arena line: completion state and heartbeat

  // ---- shard side ----------------------------------------------------------
  std::unique_ptr<Proc> NewProc(uint32_t id) const;
  // The whole shard lifecycle after launch (and pinning) up to the stats
  // publish; returns true when the shard wound down after the abort flag.
  bool ShardMain(Proc& p, uint64_t quota, uint64_t num_requests);
  void RunShard(Proc& p, uint64_t quota, uint64_t num_requests);
  void ProcessBatch(Proc& p, uint32_t count);
  // Folds every peer slot whose version moved since this shard last looked.
  void PollInbox(Proc& p);
  // Writes this shard's partials into its telemetry slot and bumps the
  // version, unless an armed drop swallows the publish.
  void PublishTelemetry(Proc& p);
  void ApplyTelemetry(Proc& p, uint32_t peer);
  // Sleeps an armed kDelayControl off (abort-responsive) and disarms it.
  void TakeDelay(Proc& p);
  // Fault-injection hook (runtime/fault_plan.h): fires every planned fault of
  // this shard whose local timestamp has been reached; one-shot per event via
  // an arena latch. Called behind an unlikely-branch guard in the batch loop.
  void MaybeInjectFaults(Proc& p);
  void RecordFault(Proc& p, FaultKind kind, uint64_t at_request);
  // Bumps this shard's arena heartbeat word (relaxed); called per batch and
  // from every wait-loop backoff so legitimate waits never look like stalls.
  void PulseHeartbeat(Proc& p);
  // The post-barrier wait: until ready() holds, pulse the heartbeat and back
  // off. False, with abort_seen set, once the arena abort flag is up.
  template <typename Ready>
  bool WaitFor(Proc& p, Ready ready);
  ShardSlot* SlotOf(uint32_t shard) const;
  // True once the supervisor declared `shard` permanently dead (kShardDead is
  // only stored after the process was reaped — its writes have stopped).
  bool ShardDead(uint32_t shard) const;
  // Shard `shard`'s telemetry slot: this version word (publishes so far),
  // then its partials one cache line in.
  std::atomic<uint64_t>* TelemetryVersion(uint32_t shard) const;
  // kReallocateCache rendezvous (header comment): publish this shard's
  // report → gather every live shard's → ReallocateAndInstall on this
  // process's model (thread shards other than 0 install shard 0's tables).
  void Reallocate(Proc& p);
  // Shard `s`'s report slot for `step`: this flag word (0 = unpublished,
  // else entry count + 1), then the entries one cache line in.
  std::atomic<uint64_t>* ReportFlag(uint32_t step, uint32_t s) const;
  // Reads shard `s`'s published report for `step` (its flag must be set).
  std::vector<std::pair<uint64_t, uint32_t>> ReadArenaReport(uint32_t step,
                                                             uint32_t s);
  bool Aborted() const;
  // Sleeps `ms` in 1 ms slices, returning early once the abort flag is up.
  void SleepUnlessAborted(uint64_t ms) const;

  // ---- supervisor side -----------------------------------------------------
  // Computes the arena layout for `shards` and this run's series bound —
  // telemetry slots, stats regions, the serialized plan tables and the
  // realloc report slots — and maps it; false when the mapping fails. Also
  // sizes realloc_routes_ (one entry per fired kReallocateCache step).
  bool LayoutAndMapArena(uint64_t num_requests);
  // Serializes each distinct table among the base route table and the
  // fired-plan snapshots into the arena once (pre-launch, post-interleave),
  // then frees the supervisor-heap copies —
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
  LayerOffsets offsets_;  // the flat cache-node index of telemetry slots
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
  std::vector<size_t> telemetry_offset_;   // [shard]
  std::vector<size_t> stats_offset_;       // [shard]
  size_t stats_bound_ = 0;

  // Arena-resident plan: serialized-table offsets — [0] the base table,
  // [1 + i] fired_plan_[i]'s snapshot. Entries that share a table share its
  // offset; every null step shares one sentinel header.
  std::vector<size_t> plan_table_offset_;
  // Realloc rendezvous: per fired kReallocateCache step, one arena report
  // slot per shard; the step's tables (BuildReallocRoutes), owned by this
  // process for the rest of the run; and the thread launcher's release word
  // (steps whose tables shard 0 has published).
  size_t report_entry_cap_ = 0;                  // entries per report slot
  std::vector<size_t> report_offset_;            // [step * shards + shard]
  std::vector<std::vector<std::shared_ptr<const RouteTable>>> realloc_routes_;
  std::atomic<uint32_t> realloc_released_{0};
  // One-shot fault latches: one u32 per fault_plan event (zero = unfired), so
  // respawned incarnations replay their streams without re-firing. 0 when the
  // plan is empty (no reservation, no hook work).
  size_t fault_latch_offset_ = 0;
};

}  // namespace distcache

#endif  // DISTCACHE_SIM_MULTIPROC_BACKEND_H_
