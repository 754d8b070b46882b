#include "sim/multiproc_backend.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cassert>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <system_error>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include <ctime>

#include <sys/resource.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include "common/cacheline.h"
#include "common/hash.h"
#include "runtime/affinity.h"
#include "runtime/backoff.h"
#include "sim/stats_codec.h"

namespace distcache {

namespace {

// A telemetry slot crosses processes, so its words must be lock-free atomics
// (a lock-based std::atomic would keep its lock in one process's memory).
static_assert(std::atomic<uint64_t>::is_always_lock_free,
              "telemetry slot words must be lock-free");
// A telemetry slot's partials start one cache line in, past the version word.
constexpr size_t kPartialsWord = kCacheLineSize / sizeof(std::atomic<uint64_t>);

// An arena report pair ({key, count}) of the realloc rendezvous.
struct ReportEntry {
  uint64_t key;
  uint64_t count;
};
static_assert(sizeof(ReportEntry) == 16, "report entry layout");

// Supervisor/child handshake block at the head of the arena.
enum ShardState : uint32_t {
  kShardRunning = 0,
  kShardDone = 1,     // full quota, stats published
  kShardAborted = 2,  // wound down after the abort flag, partial stats published
  // Supervisor-set after reaping a shard it will not respawn: the shard is
  // permanently gone. Peers skip it at the start barrier and in every
  // rendezvous gather, and the run completes degraded instead of aborting.
  kShardDead = 3,
};

struct alignas(kCacheLineSize) ShmControlBlock {
  // Set by the supervisor when a launch fails part-way; checked by every
  // child wait loop and delay — the no-hang guarantee.
  std::atomic<uint32_t> abort{0};
  // Start barrier: shards start their request clocks together, so no shard
  // runs through its quota while a peer is still being forked or built and
  // the telemetry each one reads comes from peers that are running.
  std::atomic<uint32_t> ready{0};
};
static_assert(sizeof(ShmControlBlock) == kCacheLineSize, "one line");

void WritePod(void* slot, const void* src, size_t bytes, size_t offset = 0) {
  if (bytes == 0) {
    return;  // an empty vector's data() may be nullptr; memcpy forbids it
  }
  std::memcpy(static_cast<uint8_t*>(slot) + offset, src, bytes);
}

// ---- arena-resident route tables -------------------------------------------
// A serialized table is a 16-byte header followed by the entry array and the
// overflow array, all raw POD. The header comes first in a cache-line-aligned
// reservation, so entries land 16-byte aligned and overflow 4-byte aligned —
// children read them in place through typed views, no deserialization copy.
struct ArenaTableHeader {
  uint64_t entries_len;
  uint64_t overflow_len;
};
// entries_len sentinel for a null snapshot (plan steps that change no routes).
constexpr uint64_t kNullTableLen = ~0ull;

size_t SerializedTableBytes(const RouteTable* table) {
  if (table == nullptr) {
    return sizeof(ArenaTableHeader);
  }
  return sizeof(ArenaTableHeader) + table->entries.size() * sizeof(RouteEntry) +
         table->overflow.size() * sizeof(uint32_t);
}

void SerializeTable(uint8_t* dst, const RouteTable* table) {
  ArenaTableHeader h;
  if (table == nullptr) {
    h.entries_len = kNullTableLen;
    h.overflow_len = 0;
    std::memcpy(dst, &h, sizeof(h));
    return;
  }
  h.entries_len = table->entries.size();
  h.overflow_len = table->overflow.size();
  std::memcpy(dst, &h, sizeof(h));
  WritePod(dst, table->entries.data(), h.entries_len * sizeof(RouteEntry),
           sizeof(h));
  WritePod(dst, table->overflow.data(), h.overflow_len * sizeof(uint32_t),
           sizeof(h) + h.entries_len * sizeof(RouteEntry));
}

// The null sentinel gives the absent view.
RouteView ViewTable(const uint8_t* src) {
  ArenaTableHeader h;
  std::memcpy(&h, src, sizeof(h));
  if (h.entries_len == kNullTableLen) {
    return RouteView();
  }
  return RouteView(reinterpret_cast<const RouteEntry*>(src + sizeof(h)),
                   static_cast<size_t>(h.entries_len),
                   reinterpret_cast<const uint32_t*>(
                       src + sizeof(h) + h.entries_len * sizeof(RouteEntry)));
}

}  // namespace

struct alignas(kCacheLineSize) MultiprocBackend::ShardSlot {
  std::atomic<uint32_t> state{kShardRunning};
  // CRC-32 (common/hash.h) of the serialized stats blob, stored before the
  // len/state releases: the supervisor recomputes it over the region and a
  // mismatch marks the shard failed instead of deserializing a corrupted
  // blob.
  std::atomic<uint32_t> stats_crc{0};
  std::atomic<uint64_t> stats_len{0};
  // Liveness word: bumped (relaxed) once per processed batch and on every
  // wait-loop backoff pause. The supervisor's wall-clock escalation ladder
  // (wait → warn → declare-dead) only ever watches it advance, so legitimate
  // rendezvous waits never trip a deadline but a genuinely stalled or wedged
  // shard does.
  std::atomic<uint64_t> heartbeat{0};
};

// Per-shard state, local to the shard's thread or process.
struct alignas(kCacheLineSize) MultiprocBackend::Proc {
  Proc(uint32_t id, const ClusterModel* model, uint64_t seed, bool observer)
      : id(id),
        core(model, HashCombine(HashCombine(seed, 0x5aa4dedULL), id),
             HashCombine(HashCombine(seed, 0x90076eULL), id), observer) {}

  uint32_t id;
  EngineCore core;

  BackendStats local;
  CacheAlignedVector<double> own_cache;
  CacheAlignedVector<double> own_server;
  std::vector<std::vector<double>> last_partial;  // [peer][flat]
  std::vector<uint64_t> seen_version;  // [peer] telemetry version last folded
  CacheAlignedVector<uint32_t> batch_keys;
  uint64_t processed = 0;
  uint32_t realloc_seq = 0;  // fired kReallocateCache steps, plan order

  // Exactly one of sampler / two_level is active (two-level mode swaps the
  // dense alias table for the O(hot) one — see alias_sampler.h).
  const AliasSampler* sampler = nullptr;
  std::unique_ptr<AliasSampler> phase_sampler;
  const TwoLevelSampler* two_level = nullptr;
  std::unique_ptr<TwoLevelSampler> phase_two_level;

  double quota_scale = 1.0;
  bool abort_seen = false;

  // ---- fault injection (runtime/fault_plan.h) ------------------------------
  // This shard's planned events on its *local* request clock, sorted; fired
  // by MaybeInjectFaults behind one unlikely branch in the batch loop. Empty
  // in fault-free runs.
  struct PlannedFault {
    uint64_t at_local;     // fires when processed >= at_local
    uint32_t plan_index;   // index into config.fault_plan (the arena latch)
    FaultKind kind;
    uint64_t param;
    uint64_t at_request;   // original config-clock timestamp, for the record
  };
  std::vector<PlannedFault> faults;
  size_t next_fault = 0;
  // Armed survivable effects, consumed at their hook points.
  uint32_t drop_telemetry = 0;      // telemetry publishes to skip
  uint32_t telemetry_delay_ms = 0;  // delay for the next telemetry/stats publish
  bool corrupt_stats = false;       // flip a byte of the stats blob post-CRC

  // This shard's arena heartbeat word (ShardSlot::heartbeat).
  std::atomic<uint64_t>* heartbeat = nullptr;
};

// The branch-free hot-path sink: every charge is two dense array adds (own
// contribution + optimistic local view). No shared write — the own arrays
// become this shard's loads at quota end.
struct MultiprocBackend::ProcSink {
  MultiprocBackend* backend;
  Proc* p;

  void AddCacheLoad(CacheNodeId node, double delta) {
    p->own_cache[backend->offsets_.Flat(node)] += delta;
    p->core.view().Add(node, delta);  // optimistic local view
  }
  void AddServerLoad(uint32_t server, double delta) {
    p->own_server[server] += delta;
  }
};

namespace {
// A config the shard runtime cannot run aborts with a message in every build
// mode: no shard, an empty batch, or (with peers) a zero epoch, which would
// route by a view that never hears from them.
const SimBackendConfig& ShardConfigOrDie(const SimBackendConfig& config) {
  if (config.shards == 0 || config.batch_size == 0 ||
      (config.shards > 1 && config.epoch_requests == 0)) {
    std::fprintf(stderr,
                 "invalid shard runtime config: shards=%u (want >= 1), "
                 "batch_size=%u (want >= 1), epoch_requests=%llu (want >= 1 "
                 "at shards > 1)\n",
                 config.shards, config.batch_size,
                 static_cast<unsigned long long>(config.epoch_requests));
    std::abort();
  }
  return config;
}

// A shard running `quota` of `num_requests` reads config-clock timestamps
// (timeline steps, faults) scaled by this onto its local request clock.
double QuotaScale(uint64_t quota, uint64_t num_requests) {
  return num_requests == 0 ? 0.0
                           : static_cast<double>(quota) /
                                 static_cast<double>(num_requests);
}
}  // namespace

MultiprocBackend::MultiprocBackend(const SimBackendConfig& config,
                                   Launcher launcher)
    : config_(ShardConfigOrDie(config)),
      launcher_(launcher),
      model_(config.cluster, /*build_popularity=*/!config.two_level_sampling),
      offsets_(MakeTrackerConfig(model_.cfg).layer_sizes),
      sampler_(model_.head_with_tail) {
  model_.dense_routes = config_.dense_routes;
  base_routes_ = std::make_shared<const RouteTable>(BuildRouteTable(model_));
  if (config_.two_level_sampling) {
    two_level_ = std::make_unique<TwoLevelSampler>(
        model_.cfg.num_keys, model_.cfg.zipf_theta, model_.pool);
  }
  plan_ = BuildTimelinePlan(config_, model_, base_routes_);
}

MultiprocBackend::~MultiprocBackend() = default;

bool MultiprocBackend::Supported() {
#ifdef __linux__
  return ShmArena::Available(1u << 20);
#else
  return false;
#endif
}

// ---- arena layout ----------------------------------------------------------

bool MultiprocBackend::LayoutAndMapArena(uint64_t num_requests) {
  const uint32_t n = config_.shards;
  const size_t nodes = offsets_.total();
  const uint64_t max_points =
      config_.sample_interval == 0 ? 0
                                   : num_requests / config_.sample_interval + 4;
  // Fault-record bound: a child records at most its planned injections (plus
  // slack for future record kinds).
  const size_t max_fault_events = config_.fault_plan.events.size() + 8;
  stats_bound_ = StatsCodecBound(model_.layers.size(), nodes,
                                 model_.num_servers(), max_points,
                                 max_fault_events);

  ArenaLayout layout;
  control_offset_ = layout.Reserve(sizeof(ShmControlBlock) +
                                   static_cast<size_t>(n) * sizeof(ShardSlot));
  // One telemetry slot per shard: its version word, then one partial per
  // cache node a line in. Reserved at x1 too, though nothing publishes there.
  telemetry_offset_.assign(n, 0);
  stats_offset_.assign(n, 0);
  for (uint32_t i = 0; i < n; ++i) {
    telemetry_offset_[i] = layout.Reserve(
        kCacheLineSize + nodes * sizeof(std::atomic<uint64_t>));
    stats_offset_[i] = layout.Reserve(stats_bound_);
  }

  // Arena-resident plan: one exact-size reservation per distinct table —
  // every table already exists on the supervisor heap, so no capacity
  // guesswork (SerializePlanTables frees the heap copies right after writing
  // these). Steps that share a table, and all absent steps, share its slot.
  std::unordered_map<const RouteTable*, size_t> table_slot;
  const auto reserve_table = [&](const RouteTable* table) {
    const auto [it, fresh] = table_slot.try_emplace(table, 0);
    if (fresh) {
      it->second = layout.Reserve(SerializedTableBytes(table));
    }
    return it->second;
  };
  plan_table_offset_.assign(1 + fired_plan_.size(), 0);
  plan_table_offset_[0] = reserve_table(base_routes_.get());
  for (size_t i = 0; i < fired_plan_.size(); ++i) {
    plan_table_offset_[1 + i] = reserve_table(fired_plan_[i].routes.get());
  }

  // Realloc rendezvous: one report slot per (step, shard), sized for the
  // observer's max_reports_per_epoch (2·pool). Pages are only touched as
  // written. The tables never enter the arena: each forked shard builds its
  // own, the thread launcher shares shard 0's (Reallocate).
  size_t realloc_steps = 0;
  for (const TimelineStep& step : fired_plan_) {
    realloc_steps += !step.is_phase &&
                     step.event.kind == ClusterEvent::Kind::kReallocateCache;
  }
  report_offset_.clear();
  report_entry_cap_ = static_cast<size_t>(2 * model_.pool);
  const size_t report_bytes =
      kCacheLineSize + report_entry_cap_ * sizeof(ReportEntry);
  for (size_t i = 0; i < realloc_steps * n; ++i) {
    report_offset_.push_back(layout.Reserve(report_bytes));
  }
  realloc_routes_.assign(realloc_steps, {});

  // One-shot fault latches: a u32 per planned event, zero-initialized =
  // unfired. Respawned incarnations consult them before re-firing.
  fault_latch_offset_ = 0;
  if (!config_.fault_plan.empty()) {
    fault_latch_offset_ = layout.Reserve(
        std::max<size_t>(kCacheLineSize, config_.fault_plan.events.size() *
                                             sizeof(std::atomic<uint32_t>)));
  }

  if (config_.fault_plan.arena_map_failure()) {
    // Injected allocation-failure simulation: report the mapping failed
    // before touching the pool, exercising the clean FailAll path.
    return false;
  }
  if (!arena_.Map(layout.total(), config_.huge_pages)) {
    return false;
  }
  // Pre-launch, single-threaded: construct the handshake block in place (the
  // zero-filled bytes are already the right values; this makes it formal).
  new (arena_.At(control_offset_)) ShmControlBlock();
  for (uint32_t i = 0; i < n; ++i) {
    new (SlotOf(i)) ShardSlot();
  }
  return true;
}

void MultiprocBackend::SerializePlanTables() {
  std::unordered_set<size_t> written;
  const auto write = [&](size_t offset, const RouteTable* table) {
    if (written.insert(offset).second) {
      SerializeTable(arena_.At(offset), table);
    }
  };
  write(plan_table_offset_[0], base_routes_.get());
  for (size_t i = 0; i < fired_plan_.size(); ++i) {
    write(plan_table_offset_[1 + i], fired_plan_[i].routes.get());
  }
  // The arena is the only copy from here on: drop the heap tables before
  // launch, so no forked child ever holds (or COW-duplicates) a private one.
  base_routes_.reset();
  for (TimelineStep& step : fired_plan_) {
    step.routes.reset();
  }
  for (TimelineStep& step : plan_) {
    step.routes.reset();
  }
}

uint64_t MultiprocBackend::QuotaOf(uint64_t num_requests, uint32_t n,
                                   uint32_t i) {
  return num_requests / n + (i < num_requests % n ? 1 : 0);
}

std::string MultiprocBackend::UnfiredDropFault(const SimBackendConfig& config,
                                               uint64_t num_requests) {
  const uint64_t batch = config.batch_size;
  const uint64_t epoch = config.epoch_requests;
  for (const FaultEvent& ev : config.fault_plan.events) {
    if (ev.kind != FaultKind::kDropTelemetry) {
      continue;
    }
    // RunShard's batch loop: batches start at multiples of `batch` below the
    // quota; each start first publishes every epoch boundary it has reached,
    // then fires the faults whose local timestamp it has reached. So the drop
    // arms at the first batch start at or past its timestamp, and it fires
    // iff an epoch boundary lies after that start and at or before the last.
    const uint64_t quota = QuotaOf(num_requests, config.shards, ev.shard);
    const auto at_local = static_cast<uint64_t>(
        static_cast<double>(ev.at_request) * QuotaScale(quota, num_requests));
    const uint64_t arm = (at_local + batch - 1) / batch * batch;
    const bool fires = config.shards > 1 && quota > 0 &&
                       (arm / epoch + 1) * epoch <= (quota - 1) / batch * batch;
    if (!fires) {
      return "fault term " + FaultPlanToString(FaultPlan{{ev}}) +
             " can never fire: shard " + std::to_string(ev.shard) +
             " publishes no telemetry after the batch where it arms (" +
             std::to_string(config.shards) + " shard(s), quota " +
             std::to_string(quota) + ", epoch " + std::to_string(epoch) +
             ", batch " + std::to_string(batch) + ")";
    }
  }
  return "";
}

namespace {
ShmControlBlock* CtrlBlockAt(const ShmArena& arena, size_t offset) {
  return reinterpret_cast<ShmControlBlock*>(arena.At(offset));
}
}  // namespace

MultiprocBackend::ShardSlot* MultiprocBackend::SlotOf(uint32_t shard) const {
  static_assert(sizeof(ShardSlot) == kCacheLineSize,
                "one line each: a child's completion store must not "
                "invalidate its neighbour's");
  return reinterpret_cast<ShardSlot*>(arena_.At(control_offset_) +
                                      sizeof(ShmControlBlock)) +
         shard;
}

std::atomic<uint64_t>* MultiprocBackend::TelemetryVersion(
    uint32_t shard) const {
  return reinterpret_cast<std::atomic<uint64_t>*>(
      arena_.At(telemetry_offset_[shard]));
}

std::atomic<uint64_t>* MultiprocBackend::ReportFlag(uint32_t step,
                                                    uint32_t s) const {
  return reinterpret_cast<std::atomic<uint64_t>*>(
      arena_.At(report_offset_[static_cast<size_t>(step) * config_.shards +
                               s]));
}

bool MultiprocBackend::Aborted() const {
  return CtrlBlockAt(arena_, control_offset_)
             ->abort.load(std::memory_order_acquire) != 0;
}

void MultiprocBackend::SleepUnlessAborted(uint64_t ms) const {
  struct timespec one_ms {0, 1000000L};
  for (uint64_t i = 0; i < ms && !Aborted(); ++i) {
    nanosleep(&one_ms, nullptr);
  }
}

BackendStats MultiprocBackend::FailAll(uint32_t shards) const {
  BackendStats stats;
  stats.failed_shards = shards;
  stats.degraded_fraction = 1.0;
  return stats;
}

void MultiprocBackend::PulseHeartbeat(Proc& p) {
  if (p.heartbeat != nullptr) {
    p.heartbeat->fetch_add(1, std::memory_order_relaxed);
  }
}

bool MultiprocBackend::ShardDead(uint32_t shard) const {
  return SlotOf(shard)->state.load(std::memory_order_acquire) == kShardDead;
}

void MultiprocBackend::RecordFault(Proc& p, FaultKind kind,
                                   uint64_t at_request) {
  ++p.local.injected_faults;
  p.local.fault_events.push_back(
      {p.id, static_cast<uint32_t>(kind), at_request});
}

// ---- shard side ------------------------------------------------------------

std::unique_ptr<MultiprocBackend::Proc> MultiprocBackend::NewProc(
    uint32_t id) const {
  return std::make_unique<Proc>(id, &model_, config_.cluster.seed,
                                TimelineNeedsObserver(config_.events));
}

bool MultiprocBackend::ShardMain(Proc& p, uint64_t quota,
                                 uint64_t num_requests) {
  const uint32_t id = p.id;
  const uint32_t n = config_.shards;
  p.heartbeat = &SlotOf(id)->heartbeat;

  // Start barrier (ShmControlBlock comment). Every incarnation — fresh or
  // respawned — increments, and the release condition also counts
  // supervisor-declared-dead shards, so a shard that dies before arriving can
  // never wedge the others (the respawn over-count is harmless under >=). A
  // respawned incarnation usually finds the barrier long released and falls
  // through.
  {
    ShmControlBlock* ctrl = CtrlBlockAt(arena_, control_offset_);
    ctrl->ready.fetch_add(1, std::memory_order_acq_rel);
    Backoff barrier_backoff;
    while (true) {
      uint32_t dead = 0;
      for (uint32_t s = 0; s < n; ++s) {
        dead += ShardDead(s) ? 1 : 0;
      }
      if (ctrl->ready.load(std::memory_order_acquire) + dead >= n ||
          Aborted()) {
        break;
      }
      PulseHeartbeat(p);
      barrier_backoff.Pause();
    }
  }

  RunShard(p, quota, num_requests);

  // An armed kDelayControl that no telemetry publish consumed (it fired after
  // the last epoch boundary, or at x1): the stats publish takes it.
  TakeDelay(p);
  uint8_t* region = arena_.At(stats_offset_[id]);
  const size_t len = SerializeBackendStats(p.local, region, stats_bound_);
  const uint32_t crc = Crc32(region, len);
  if (__builtin_expect(p.corrupt_stats, 0)) {
    // Injected kCorruptStats: damage the blob *after* the checksum was
    // taken, so the supervisor's integrity check is what must catch it.
    if (len != 0) {
      region[len / 2] ^= 0x5a;
    }
  }
  ShardSlot* slot = SlotOf(id);
  slot->stats_crc.store(crc, std::memory_order_release);
  slot->stats_len.store(len, std::memory_order_release);
  slot->state.store(p.abort_seen ? kShardAborted : kShardDone,
                    std::memory_order_release);
  return p.abort_seen;
}

template <typename Ready>
bool MultiprocBackend::WaitFor(Proc& p, Ready ready) {
  Backoff backoff;
  while (!ready()) {
    if (Aborted()) {
      p.abort_seen = true;
      return false;
    }
    PulseHeartbeat(p);
    backoff.Pause();
  }
  return true;
}

void MultiprocBackend::TakeDelay(Proc& p) {
  if (__builtin_expect(p.telemetry_delay_ms != 0, 0)) {
    SleepUnlessAborted(p.telemetry_delay_ms);
    p.telemetry_delay_ms = 0;
  }
}

void MultiprocBackend::PublishTelemetry(Proc& p) {
  if (__builtin_expect(p.drop_telemetry != 0, 0)) {
    --p.drop_telemetry;  // armed kDropTelemetry: this publish is lost
    return;
  }
  TakeDelay(p);  // armed kDelayControl: this publish comes late
  // Relaxed partials, then the release that makes them visible: a peer that
  // acquires the new version reads at least these values (or later ones).
  std::atomic<uint64_t>* version = TelemetryVersion(p.id);
  std::atomic<uint64_t>* partials = version + kPartialsWord;
  for (size_t flat = 0; flat < p.own_cache.size(); ++flat) {
    partials[flat].store(std::bit_cast<uint64_t>(p.own_cache[flat]),
                         std::memory_order_relaxed);
  }
  version->fetch_add(1, std::memory_order_release);
  p.local.ring_messages += config_.shards - 1;
}

void MultiprocBackend::ApplyTelemetry(Proc& p, uint32_t peer) {
  // Fold in the peer's monotone increment since the partial last folded; the
  // view stays the sum of per-shard partials plus our exact own counts.
  const std::atomic<uint64_t>* partials =
      TelemetryVersion(peer) + kPartialsWord;
  std::vector<double>& last = p.last_partial[peer];
  for (uint32_t flat = 0; flat < last.size(); ++flat) {
    const double partial =
        std::bit_cast<double>(partials[flat].load(std::memory_order_relaxed));
    const double delta = partial - last[flat];
    if (delta != 0.0) {
      p.core.view().Add(offsets_.NodeOfFlat(flat), delta);
      last[flat] = partial;
    }
  }
}

void MultiprocBackend::PollInbox(Proc& p) {
  // Batch-boundary poll: one that found a new version in any peer's slot
  // counts as one contended receive, one that found none (always, at x1) as
  // one uncontended receive.
  bool fresh = false;
  for (uint32_t peer = 0; peer < config_.shards; ++peer) {
    if (peer == p.id) {
      continue;
    }
    const uint64_t version =
        TelemetryVersion(peer)->load(std::memory_order_acquire);
    if (version != p.seen_version[peer]) {
      p.seen_version[peer] = version;
      ApplyTelemetry(p, peer);
      fresh = true;
    }
  }
  if (fresh) {
    ++p.local.contended_receives;
  } else {
    ++p.local.uncontended_receives;
  }
}

std::vector<std::pair<uint64_t, uint32_t>> MultiprocBackend::ReadArenaReport(
    uint32_t step, uint32_t s) {
  const std::atomic<uint64_t>* flag = ReportFlag(step, s);
  const uint64_t published = flag->load(std::memory_order_acquire);
  std::vector<std::pair<uint64_t, uint32_t>> report;
  if (published == 0) {
    return report;  // never published (dead shard)
  }
  const size_t count = static_cast<size_t>(published - 1);
  const auto* entries = reinterpret_cast<const ReportEntry*>(
      reinterpret_cast<const uint8_t*>(flag) + kCacheLineSize);
  report.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    report.emplace_back(entries[i].key, static_cast<uint32_t>(entries[i].count));
  }
  return report;
}

void MultiprocBackend::Reallocate(Proc& p) {
  const uint32_t n = config_.shards;
  const uint32_t step = p.realloc_seq++;
  // 1. Publish this shard's heavy-hitter report into its idempotent slot:
  //    entries first, then count+1 through the release flag. A respawned
  //    incarnation finds the flag set (reports are deterministic per shard)
  //    and skips the write, so a concurrent reader never races.
  {
    std::atomic<uint64_t>* flag = ReportFlag(step, p.id);
    if (flag->load(std::memory_order_acquire) == 0) {
      const auto report = p.core.ObservedCounts();
      const size_t count = std::min(report.size(), report_entry_cap_);
      auto* entries = reinterpret_cast<ReportEntry*>(
          reinterpret_cast<uint8_t*>(flag) + kCacheLineSize);
      for (size_t i = 0; i < count; ++i) {
        entries[i] = {report[i].first, report[i].second};
      }
      flag->store(count + 1, std::memory_order_release);
    }
  }
  // Thread shards share one model: shard 0 refills it while every peer waits
  // here, then releases the tables, which the peers install as views.
  if (launcher_ == Launcher::kThreads && p.id != 0) {
    if (WaitFor(p, [&] {
          return realloc_released_.load(std::memory_order_acquire) > step;
        })) {
      InstallReallocRoutes(realloc_routes_[step], p.core);
    }
    return;  // on abort keep the current routes; we are winding down
  }
  // 2. Gather every shard's report; one that died before publishing is
  //    absent from the sample. kShardDead is stored only after the shard was
  //    reaped, so once it is seen the flag is final: the re-read below gives
  //    every gatherer the same report set.
  std::vector<std::vector<std::pair<uint64_t, uint32_t>>> reports;
  reports.reserve(n);
  for (uint32_t s = 0; s < n; ++s) {
    const std::atomic<uint64_t>* flag = ReportFlag(step, s);
    if (!WaitFor(p, [&] {
          return flag->load(std::memory_order_acquire) != 0 || ShardDead(s);
        })) {
      return;
    }
    if (flag->load(std::memory_order_acquire) != 0) {
      reports.push_back(ReadArenaReport(step, s));
    }
  }
  // 3. The refill is a pure function of the reports, so every forked shard
  //    runs it on its own model copy and keeps its own tables.
  realloc_routes_[step] =
      ReallocateAndInstall(fired_plan_, reports, p.core, model_);
  realloc_released_.store(step + 1, std::memory_order_release);
}

void MultiprocBackend::MaybeInjectFaults(Proc& p) {
  while (p.next_fault < p.faults.size() &&
         p.processed >= p.faults[p.next_fault].at_local) {
    const Proc::PlannedFault f = p.faults[p.next_fault++];
    // One-shot arena latch: the event fires on the incarnation that wins the
    // exchange; a respawned shard re-running the same range skips it.
    auto* latch = reinterpret_cast<std::atomic<uint32_t>*>(
        arena_.At(fault_latch_offset_) +
        static_cast<size_t>(f.plan_index) * sizeof(std::atomic<uint32_t>));
    if (latch->exchange(1, std::memory_order_acq_rel) != 0) {
      continue;
    }
    switch (f.kind) {
      case FaultKind::kCrashClean:
        // Vanish with a clean exit code and *no* state/stats publish — the
        // reap loop must not trust the exit status alone.
        _exit(0);
      case FaultKind::kCrashKill:
        raise(SIGKILL);
        _exit(101);  // unreachable
      case FaultKind::kCrashAbort: {
        struct rlimit no_core {0, 0};
        setrlimit(RLIMIT_CORE, &no_core);  // an injected abort dumps no core
        raise(SIGABRT);
        _exit(102);  // unreachable
      }
      case FaultKind::kStall: {
        RecordFault(p, f.kind, f.at_request);
        // Straggler: wedge for `param` ms WITHOUT heartbeat pulses, so the
        // supervisor ladder sees a genuine stall.
        SleepUnlessAborted(f.param);
        break;
      }
      case FaultKind::kDropTelemetry:
        RecordFault(p, f.kind, f.at_request);
        p.drop_telemetry += static_cast<uint32_t>(f.param);
        break;
      case FaultKind::kDelayControl:
        RecordFault(p, f.kind, f.at_request);
        p.telemetry_delay_ms += static_cast<uint32_t>(f.param);
        break;
      case FaultKind::kCorruptStats:
        RecordFault(p, f.kind, f.at_request);
        p.corrupt_stats = true;
        break;
      case FaultKind::kArenaMapFail:
        break;  // pre-fork only (LayoutAndMapArena); never planned per-shard
    }
  }
}

void MultiprocBackend::ProcessBatch(Proc& p, uint32_t count) {
  if (__builtin_expect(p.next_fault < p.faults.size(), 0)) {
    MaybeInjectFaults(p);
  }
  PollInbox(p);
  p.core.AdvanceTo(p.processed);
  p.batch_keys.resize(count);
  if (p.two_level != nullptr) {
    p.two_level->SampleBatch(p.core.rng(), p.batch_keys.data(), count);
  } else {
    p.sampler->SampleBatch(p.core.rng(), p.batch_keys.data(), count);
  }
  ProcSink sink{this, &p};
  p.core.ProcessBatch(sink, p.batch_keys.data(), count);
  p.processed += count;
  PulseHeartbeat(p);
}

void MultiprocBackend::RunShard(Proc& p, uint64_t quota,
                                uint64_t num_requests) {
  const uint32_t n = config_.shards;
  const uint32_t num_cache_nodes = offsets_.total();
  p.own_cache.assign(num_cache_nodes, 0.0);
  p.own_server.assign(model_.num_servers(), 0.0);
  p.last_partial.assign(n, std::vector<double>(num_cache_nodes, 0.0));
  p.seen_version.assign(n, 0);
  p.sampler = &sampler_;
  p.two_level = two_level_.get();
  p.quota_scale = QuotaScale(quota, num_requests);
  // Schedule this shard's injected faults on its *local* request clock —
  // config timestamps are global-clock, scaled exactly like the timeline
  // plan below. Empty in fault-free runs (and on threads, which share one
  // crash domain): the batch-loop hook then compiles to one never-taken
  // branch.
  for (size_t i = 0; i < config_.fault_plan.events.size(); ++i) {
    const FaultEvent& ev = config_.fault_plan.events[i];
    if (launcher_ == Launcher::kThreads || ev.shard != p.id ||
        ev.kind == FaultKind::kArenaMapFail) {
      continue;
    }
    p.faults.push_back(
        {static_cast<uint64_t>(static_cast<double>(ev.at_request) *
                               p.quota_scale),
         static_cast<uint32_t>(i), ev.kind, ev.param, ev.at_request});
  }
  std::stable_sort(p.faults.begin(), p.faults.end(),
                   [](const Proc::PlannedFault& a, const Proc::PlannedFault& b) {
                     return a.at_local < b.at_local;
                   });
  p.core.BindStats(&p.local);
  // Arena-resident plan: the base table lives in the arena; install it as a
  // non-owning view (the arena outlives the run by construction).
  p.core.SetRoutes(ViewTable(arena_.At(plan_table_offset_[0])));
  // Open-loop: each shard simulates an independent full-rate time slice of
  // the cluster (full arrival rate, full service rates, its own queue
  // horizons), so the quota-end Merge of per-shard histograms is a union of
  // slices rather than a re-timed interleaving. The time stream mixes in the
  // shard id, as the key/write streams do.
  p.core.ConfigureOpenLoop(
      config_.queue,
      HashCombine(HashCombine(config_.cluster.seed, 0x0be71457ULL), p.id));
  p.core.SetSampleStep(static_cast<double>(config_.sample_interval) *
                       p.quota_scale);
  p.core.SetPhaseHook(
      [this, &p](const WorkloadPhase& phase,
                 const std::shared_ptr<const std::vector<double>>& pmf) {
        if (p.two_level != nullptr) {
          // Closed-form O(hot) rebuild from the phase's skew (no pmf exists in
          // two-level mode); deterministic across shard processes.
          p.phase_two_level = std::make_unique<TwoLevelSampler>(
              model_.cfg.num_keys, phase.zipf_theta, model_.pool);
          p.two_level = p.phase_two_level.get();
        } else if (pmf != nullptr) {
          p.phase_sampler = std::make_unique<AliasSampler>(*pmf);
          p.sampler = p.phase_sampler.get();
        }
      });
  p.core.SetReallocateHook([this, &p] { Reallocate(p); });

  // The timeline plan is a pure function of the config, so every shard queues
  // it locally — no controller multicast to wait on. The route snapshots are
  // arena-resident (the heap copies were freed pre-launch), so each step gets
  // its serialized table installed as a view.
  for (size_t i = 0; i < fired_plan_.size(); ++i) {
    const TimelineStep& step = fired_plan_[i];
    ClusterEvent ev = step.event;
    ev.at_request = step.at_request;
    p.core.QueueAction({static_cast<double>(step.at_request) * p.quota_scale,
                        step.is_phase, step.phase, ev, step.pmf,
                        ViewTable(arena_.At(plan_table_offset_[1 + i]))});
  }

  // The batch loop. Before each batch, one telemetry publish for every epoch
  // boundary the local request clock has reached (none at x1).
  const uint64_t epoch = n > 1 ? config_.epoch_requests : 0;
  uint64_t next_publish = epoch;
  while (p.processed < quota) {
    for (; epoch != 0 && next_publish <= p.processed; next_publish += epoch) {
      PublishTelemetry(p);
    }
    ProcessBatch(p, static_cast<uint32_t>(std::min<uint64_t>(
                        config_.batch_size, quota - p.processed)));
  }
  p.core.AdvanceTo(quota);

  // This shard's own contributions are its share of every node's load; the
  // supervisor's BackendStats::Merge sums the shares. Loads are sums of
  // exactly-representable costs, so the total is bit-identical to per-request
  // accumulation in any order.
  p.local.cache_load = model_.ZeroCacheLoads();
  for (uint32_t flat = 0; flat < num_cache_nodes; ++flat) {
    const CacheNodeId node = offsets_.NodeOfFlat(flat);
    p.local.cache_load[node.layer][node.index] = p.own_cache[flat];
  }
  p.local.server_load.assign(p.own_server.begin(), p.own_server.end());
  p.core.FinishSeries(p.processed);
  p.local.requests = p.processed;
  // Memory accounting (max-merged, sim_backend.h): the base table and every
  // plan snapshot are arena-resident, so a shard's private route-table
  // footprint is zero (Run stamps the thread launcher's shared copy).
  p.local.peak_rss_bytes = CurrentPeakRssBytes();
  p.local.sampler_bytes = p.two_level != nullptr ? p.two_level->bytes()
                                                 : p.sampler->bytes();
}

// ---- supervisor ------------------------------------------------------------

bool MultiprocBackend::ForkAndReap(uint64_t num_requests,
                                   std::vector<uint8_t>* failed,
                                   BackendStats* supervisor) {
  const uint32_t n = config_.shards;
  // _exit, never exit, in a child: no atexit handlers, no gtest/ASan
  // teardown of inherited parent state — the child owns nothing but its
  // stats region.
  const auto child = [&](uint32_t i) {
    if (config_.pin_cores) {
      // Before any allocation, so this shard's state and its telemetry slot
      // land on the pinned core's NUMA node (first touch).
      PinToCore(i);
    }
    const std::unique_ptr<Proc> p = NewProc(i);
    const bool aborted = ShardMain(*p, QuotaOf(num_requests, n, i), num_requests);
    _exit(aborted ? 3 : 0);
  };
  std::vector<pid_t> pids(n, -1);
  for (uint32_t i = 0; i < n; ++i) {
    const pid_t pid = ::fork();
    if (pid == 0) {
      child(i);
    }
    if (pid < 0) {
      // Partial-fork cleanup: kill and reap everything already spawned,
      // release the arena, and report total failure — never leak children
      // or a mapping on the fork-exhaustion path.
      CtrlBlockAt(arena_, control_offset_)
          ->abort.store(1, std::memory_order_release);
      for (uint32_t k = 0; k < i; ++k) {
        if (pids[k] > 0) {
          ::kill(pids[k], SIGKILL);
        }
      }
      for (uint32_t k = 0; k < i; ++k) {
        if (pids[k] > 0) {
          int status = 0;
          ::waitpid(pids[k], &status, 0);
        }
      }
      arena_.Unmap();
      return false;
    }
    pids[i] = pid;
  }

  // Reap loop: children exit on their own (quota done, or abort-flag
  // wind-down). A child that dies abnormally is respawned while its budget
  // lasts, then marked kShardDead so the survivors complete degraded — the
  // abort flag is no longer raised for a lost shard, only for catastrophic
  // setup failures. While a child lives, its heartbeat word is watched on a
  // wall-clock ladder: warn_ms without progress records a miss, dead_ms
  // SIGKILLs the wedged process into the same respawn-or-degrade path, so no
  // fault class (including a silent stall) can hang the run.
  std::vector<uint32_t> respawn_left(n, config_.respawn_limit);
  uint32_t live = n;
  struct Watch {
    uint64_t hb = 0;
    std::chrono::steady_clock::time_point since;
    bool warned = false;
  };
  std::vector<Watch> watch(n);
  const auto forked_at = std::chrono::steady_clock::now();
  for (uint32_t i = 0; i < n; ++i) {
    watch[i].since = forked_at;
  }
  Backoff backoff;
  while (live > 0) {
    bool progress = false;
    for (uint32_t i = 0; i < n; ++i) {
      if (pids[i] < 0) {
        continue;
      }
      int status = 0;
      const pid_t r = ::waitpid(pids[i], &status, WNOHANG);
      if (r == 0) {
        // Still running: advance the liveness ladder.
        const uint64_t hb =
            SlotOf(i)->heartbeat.load(std::memory_order_relaxed);
        const auto now = std::chrono::steady_clock::now();
        if (hb != watch[i].hb) {
          watch[i] = {hb, now, false};
          continue;
        }
        const uint64_t stalled_ms = static_cast<uint64_t>(
            std::chrono::duration_cast<std::chrono::milliseconds>(
                now - watch[i].since)
                .count());
        if (!watch[i].warned && config_.heartbeat_warn_ms != 0 &&
            stalled_ms >= config_.heartbeat_warn_ms) {
          watch[i].warned = true;
          ++supervisor->heartbeat_misses;
          supervisor->fault_events.push_back(
              {i, BackendStats::FaultRecord::kHeartbeatWarn, 0});
        }
        if (config_.heartbeat_dead_ms != 0 &&
            stalled_ms >= config_.heartbeat_dead_ms) {
          // Declared dead: kill the wedged process; the next reap pass
          // routes it through the normal respawn-or-degrade path below.
          supervisor->fault_events.push_back(
              {i, BackendStats::FaultRecord::kShardDeclaredDead, 0});
          ::kill(pids[i], SIGKILL);
          watch[i].since = now;
          watch[i].warned = false;
        }
        continue;
      }
      pids[i] = -1;
      --live;
      progress = true;
      // Orderly = a clean exit code AND a published completion state. The
      // state check is what catches an injected clean-exit crash: exit(0)
      // with the slot still kShardRunning is a vanished shard, not a done
      // one. Exit 3 is the orderly wind-down after the abort flag.
      const bool orderly =
          r > 0 && WIFEXITED(status) &&
          (WEXITSTATUS(status) == 0 || WEXITSTATUS(status) == 3) &&
          SlotOf(i)->state.load(std::memory_order_acquire) != kShardRunning;
      if (orderly) {
        continue;
      }
      supervisor->fault_events.push_back(
          {i, BackendStats::FaultRecord::kShardDeath, 0});
      if (respawn_left[i] > 0) {
        --respawn_left[i];
        // Reset the completion slot: SIGKILL usually left it untouched, but a
        // death between the stats publish and _exit would otherwise let peers
        // count this shard done while the respawn is still re-running.
        ShardSlot* slot = SlotOf(i);
        slot->stats_len.store(0, std::memory_order_release);
        slot->state.store(kShardRunning, std::memory_order_release);
        const pid_t fresh = ::fork();
        if (fresh == 0) {
          child(i);
        }
        if (fresh > 0) {
          pids[i] = fresh;
          ++live;
          ++supervisor->respawned_shards;
          supervisor->fault_events.push_back(
              {i, BackendStats::FaultRecord::kShardRespawn, 0});
          watch[i].since = std::chrono::steady_clock::now();
          watch[i].warned = false;
          continue;
        }
        // fork failed: fall through to the dead-shard path
      }
      // Budget exhausted: permanently dead. Peers see kShardDead and skip
      // this shard at the start barrier and in every rendezvous gather; the
      // run completes
      // with the survivors' quota — degrade, don't abort.
      (*failed)[i] = 1;
      SlotOf(i)->state.store(kShardDead, std::memory_order_release);
      supervisor->fault_events.push_back(
          {i, BackendStats::FaultRecord::kShardDeclaredDead, 0});
    }
    if (live > 0 && !progress) {
      backoff.Pause();
    }
  }
  return true;
}

BackendStats MultiprocBackend::Run(uint64_t num_requests) {
  const uint32_t n = config_.shards;
  if (launcher_ == Launcher::kForks) {
    if (const std::string error = UnfiredDropFault(config_, num_requests);
        !error.empty()) {
      std::fprintf(stderr, "%s\n", error.c_str());
      std::abort();
    }
  }
  fired_plan_.clear();
  for (const TimelineStep& step : plan_) {
    if (step.at_request < num_requests) {
      fired_plan_.push_back(step);
    }
  }
  if (!LayoutAndMapArena(num_requests)) {
    BackendStats stats = FailAll(n);
    stats.fault_events.push_back(
        {0, BackendStats::FaultRecord::kArenaMapFailed, 0});
    if (config_.fault_plan.arena_map_failure()) {
      stats.injected_faults = 1;
    }
    return stats;
  }
  // Thread shards share this process's one table copy, so their route-table
  // footprint is the plan's; measure it before the heap copies are freed.
  const uint64_t shared_table_bytes =
      launcher_ == Launcher::kThreads
          ? PlanRouteTableBytes(base_routes_.get(), plan_)
          : 0;
  SerializePlanTables();

  const auto t0 = std::chrono::steady_clock::now();
  std::vector<uint8_t> failed(n, 0);
  // The supervisor's own observations: respawns, heartbeat misses and fault
  // records (deaths, declared-dead, CRC mismatches).
  BackendStats supervisor;
  if (launcher_ == Launcher::kThreads) {
    // Shard state is built on this thread, so the shards' cores come out of
    // one malloc arena rather than one per shard thread (peak RSS).
    std::vector<std::unique_ptr<Proc>> procs;
    for (uint32_t i = 0; i < n; ++i) {
      procs.push_back(NewProc(i));
    }
    std::vector<std::thread> threads;
    threads.reserve(n);
    for (uint32_t i = 0; i < n; ++i) {
      try {
        threads.emplace_back([this, p = procs[i].get(), num_requests, n] {
          if (config_.pin_cores) {
            PinToCore(p->id);
          }
          ShardMain(*p, QuotaOf(num_requests, n, p->id), num_requests);
        });
      } catch (const std::system_error&) {
        // Thread exhaustion: as on a failed fork, the abort flag winds the
        // started shards down, and the run reports total failure.
        CtrlBlockAt(arena_, control_offset_)
            ->abort.store(1, std::memory_order_release);
        break;
      }
    }
    for (std::thread& t : threads) {
      t.join();
    }
    if (threads.size() < n) {
      arena_.Unmap();
      return FailAll(n);
    }
  } else if (!ForkAndReap(num_requests, &failed, &supervisor)) {
    return FailAll(n);
  }
  const auto t1 = std::chrono::steady_clock::now();

  // Bucket-exact quota-end merge from the arena-resident per-shard stats:
  // deserialization is bit-exact and BackendStats::Merge is an element-wise
  // accumulate. Every blob must match its shard-computed CRC-32 — a mismatch
  // (torn write, injected corruption) fails the shard instead of merging
  // garbage. Lost shards charge their quota to degraded_fraction, so the
  // caller can check hit-ratio degradation is proportional to lost quota.
  BackendStats total;
  uint64_t lost_quota = 0;
  for (uint32_t i = 0; i < n; ++i) {
    ShardSlot* slot = SlotOf(i);
    const uint32_t state = slot->state.load(std::memory_order_acquire);
    const uint64_t len = slot->stats_len.load(std::memory_order_acquire);
    const bool crc_ok =
        len != 0 && len <= stats_bound_ &&
        slot->stats_crc.load(std::memory_order_acquire) ==
            Crc32(arena_.At(stats_offset_[i]), static_cast<size_t>(len));
    if (!failed[i] && state != kShardRunning && len != 0 &&
        len <= stats_bound_ && !crc_ok) {
      supervisor.fault_events.push_back(
          {i, BackendStats::FaultRecord::kStatsCrcMismatch, 0});
    }
    BackendStats partial;
    if (failed[i] || state == kShardRunning || state == kShardDead || !crc_ok ||
        !DeserializeBackendStats(arena_.At(stats_offset_[i]), len, &partial)) {
      ++total.failed_shards;
      lost_quota += QuotaOf(num_requests, n, i);
      continue;
    }
    total.Merge(partial);
  }
  total.Merge(supervisor);  // respawns, heartbeat misses, fault records
  total.wall_seconds = std::chrono::duration<double>(t1 - t0).count();
  total.degraded_fraction =
      num_requests == 0 ? 0.0
                        : static_cast<double>(lost_quota) /
                              static_cast<double>(num_requests);
  total.arena_bytes = arena_.size();
  total.route_table_bytes = shared_table_bytes;
  total.peak_rss_bytes = std::max(total.peak_rss_bytes, CurrentPeakRssBytes());
  arena_.Unmap();
  return total;
}

}  // namespace distcache
