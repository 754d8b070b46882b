#include "sim/multiproc_backend.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <chrono>
#include <csignal>
#include <cstring>
#include <functional>
#include <system_error>
#include <thread>
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

// Ring depth per directed shard pair. Traffic is O(epochs + 1) messages
// (telemetry broadcasts, the end-of-run delta flush, chunked, and one kDone)
// and every batch boundary drains it. Consumers drain while waiting, so a
// shallow ring only adds retry rounds, never deadlock — and every slot is
// touched as the index wraps, so depth is resident memory.
constexpr size_t kDataRingCapacity = 32;

// Floor for the data-plane payload when the topology is tiny.
constexpr size_t kMinDataPayloadBytes = 1024;

// The ring message set. Everything that crosses between shards is one of
// these POD-serialized kinds: the timeline needs no multicast (every shard
// queues the fired plan locally) and the realloc rendezvous goes through the
// arena (see multiproc_backend.h).
enum WireKind : uint8_t {
  kWireTelemetry = 0,  // dense own-contribution partials, one slot
  kWireDeltas = 1,     // end-of-run load deltas, chunked
  kWireDone = 2,       // end-of-stream marker, the sender's last message
};

struct WireHeader {
  uint8_t kind;
  uint8_t pad8;
  uint16_t pad16;
  uint32_t from;     // sender shard
  uint32_t count_a;  // telemetry: #partials; deltas: #cache
  uint32_t count_b;  // deltas: #server entries
};
static_assert(sizeof(WireHeader) == 16, "wire header layout");

// Fixed 16-byte entry for both delta kinds ({flat-or-server index, delta}) and
// arena report pairs ({key, count}); everything moves through memcpy, so slot
// alignment is a non-issue and no object is ever aliased across the arena.
struct DeltaEntry {
  uint64_t index;
  double delta;
};
struct ReportEntry {
  uint64_t key;
  uint64_t count;
};
static_assert(sizeof(DeltaEntry) == 16 && sizeof(ReportEntry) == 16,
              "wire entry layout");

// Supervisor/child handshake block at the head of the arena.
enum ShardState : uint32_t {
  kShardRunning = 0,
  kShardDone = 1,     // full quota, stats published
  kShardAborted = 2,  // wound down after the abort flag, partial stats published
  // Supervisor-set after reaping a shard it will not respawn: the shard is
  // permanently gone. Peers skip it in every send, rendezvous gather and the
  // done protocol, and the run completes degraded instead of aborting.
  kShardDead = 3,
};

struct alignas(kCacheLineSize) ShmControlBlock {
  // Set by the supervisor when any child dies abnormally; checked by every
  // child wait loop, full-ring retry and backoff — the no-hang guarantee.
  std::atomic<uint32_t> abort{0};
  // Start barrier: shards prefault their inbound rings (first-touch NUMA
  // placement under pinning), then rendezvous here before any ring traffic,
  // so the prefault writes can never race a producer.
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

// Per-shard state, local to the shard's thread or process. Ring *views*
// (runtime/shm_ring.h) live here (private index caches); ring storage lives in
// the arena.
struct alignas(kCacheLineSize) MultiprocBackend::Proc {
  Proc(uint32_t id, const ClusterModel* model, uint64_t seed, bool observer)
      : id(id),
        core(model, HashCombine(HashCombine(seed, 0x5aa4dedULL), id),
             HashCombine(HashCombine(seed, 0x90076eULL), id), observer) {}

  uint32_t id;
  EngineCore core;
  EventQueue queue;

  // Indexed by peer; the self slot is a detached default view, never touched.
  std::vector<ShmSpscRing> data_in;   // consumer views: peer -> this shard
  std::vector<ShmSpscRing> data_out;  // producer views: this shard -> peer

  BackendStats local;
  CacheAlignedVector<double> own_cache;
  CacheAlignedVector<double> own_server;
  std::vector<std::vector<double>> last_partial;  // [peer][flat]
  CacheAlignedVector<uint32_t> batch_keys;
  uint64_t processed = 0;
  std::vector<uint8_t> done_ring;  // [peer] kDone marker consumed from the ring
  uint32_t realloc_seq = 0;        // fired kReallocateCache steps, plan order

  // Exactly one of sampler / two_level is active (two-level mode swaps the
  // dense alias table for the O(hot) one — see alias_sampler.h).
  const AliasSampler* sampler = nullptr;
  std::unique_ptr<AliasSampler> phase_sampler;
  const TwoLevelSampler* two_level = nullptr;
  std::unique_ptr<TwoLevelSampler> phase_two_level;

  // Flush / deserialize scratch.
  std::vector<std::vector<std::pair<uint32_t, double>>> out_cache;
  std::vector<std::vector<std::pair<uint32_t, double>>> out_server;
  std::vector<double> telemetry_scratch;
  std::vector<DeltaEntry> delta_scratch;

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
  uint32_t drop_telemetry = 0;  // broadcasts to swallow at the ring views
  uint32_t done_delay_ms = 0;   // delay armed on the next kDone publish
  bool corrupt_stats = false;   // flip a byte of the stats blob post-CRC

  // This shard's arena heartbeat word (ShardSlot::heartbeat).
  std::atomic<uint64_t>* heartbeat = nullptr;
};

// The branch-free hot-path sink: every charge is two dense array adds (own
// contribution + optimistic local view). No owner test, no shared write — the
// owner split is deferred to FlushLoads at quota end.
struct MultiprocBackend::ProcSink {
  MultiprocBackend* backend;
  Proc* p;

  void AddCacheLoad(CacheNodeId node, double delta) {
    p->own_cache[backend->shard_map_.FlatIndex(node)] += delta;
    p->core.view().Add(node, delta);  // optimistic local view
  }
  void AddServerLoad(uint32_t server, double delta) {
    p->own_server[server] += delta;
  }
};

MultiprocBackend::MultiprocBackend(const SimBackendConfig& config,
                                   Launcher launcher)
    : config_(config),
      launcher_(launcher),
      model_(config.cluster, /*build_popularity=*/!config.two_level_sampling),
      shard_map_(
          [this] {
            std::vector<uint32_t> sizes;
            for (const LayerSpec& layer : model_.layers) {
              sizes.push_back(layer.nodes);
            }
            return sizes;
          }(),
          model_.num_servers(), config.shards),
      sampler_(model_.head_with_tail) {
  model_.dense_routes = config_.dense_routes;
  base_routes_ = std::make_shared<const RouteTable>(BuildRouteTable(model_));
  if (config_.batch_size == 0) {
    config_.batch_size = 1;
  }
  if (config_.two_level_sampling) {
    two_level_ = std::make_unique<TwoLevelSampler>(
        model_.cfg.num_keys, model_.cfg.zipf_theta, model_.pool);
  }
  plan_ = BuildTimelinePlan(config_, model_);
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
  const uint32_t n = shard_map_.shards();
  const size_t nodes = shard_map_.num_cache_nodes();
  // A full telemetry snapshot (one double per cache node) must fit one slot.
  data_slot_bytes_ =
      sizeof(WireHeader) + std::max(nodes * sizeof(double), kMinDataPayloadBytes);
  const uint64_t max_points =
      config_.sample_interval == 0 ? 0
                                   : num_requests / config_.sample_interval + 4;
  // Fault-record bound: a child can record at most its planned injections
  // plus one failover per realloc step (plus slack for future record kinds).
  const size_t max_fault_events =
      config_.fault_plan.events.size() + fired_plan_.size() + 8;
  stats_bound_ = StatsCodecBound(model_.layers.size(), nodes,
                                 model_.num_servers(), max_points,
                                 max_fault_events);

  ArenaLayout layout;
  control_offset_ = layout.Reserve(sizeof(ShmControlBlock) +
                                   static_cast<size_t>(n) * sizeof(ShardSlot));
  data_ring_offset_.assign(static_cast<size_t>(n) * n, 0);
  for (uint32_t to = 0; to < n; ++to) {
    for (uint32_t from = 0; from < n; ++from) {
      if (to == from) {
        continue;
      }
      data_ring_offset_[static_cast<size_t>(to) * n + from] = layout.Reserve(
          ShmSpscRing::BytesFor(kDataRingCapacity, data_slot_bytes_));
    }
  }
  stats_offset_.assign(n, 0);
  for (uint32_t i = 0; i < n; ++i) {
    stats_offset_[i] = layout.Reserve(stats_bound_);
  }

  // Arena-resident plan: exact-size reservations — every table already exists
  // on the supervisor heap, so no capacity guesswork (SerializePlanTables
  // frees the heap copies right after writing these).
  plan_table_offset_.assign(1 + fired_plan_.size(), 0);
  plan_table_offset_[0] = layout.Reserve(SerializedTableBytes(base_routes_.get()));
  for (size_t i = 0; i < fired_plan_.size(); ++i) {
    plan_table_offset_[1 + i] =
        layout.Reserve(SerializedTableBytes(fired_plan_[i].routes.get()));
  }

  // Realloc rendezvous regions. Runtime tables cannot be pre-sized exactly,
  // so the regions are worst-case: a report slot holds the observer's
  // max_reports_per_epoch (2·pool) and a table slot the dense pool with every
  // entry spilled to overflow. Pages are only touched as written.
  realloc_step_index_.clear();
  report_offset_.clear();
  realloc_ready_offset_.clear();
  realloc_table_offset_.clear();
  for (uint32_t i = 0; i < fired_plan_.size(); ++i) {
    if (!fired_plan_[i].is_phase &&
        fired_plan_[i].event.kind == ClusterEvent::Kind::kReallocateCache) {
      realloc_step_index_.push_back(i);
    }
  }
  if (!realloc_step_index_.empty()) {
    report_entry_cap_ = static_cast<size_t>(2 * model_.pool);
    table_cap_bytes_ =
        sizeof(ArenaTableHeader) +
        static_cast<size_t>(model_.pool) * sizeof(RouteEntry) +
        static_cast<size_t>(model_.pool) * model_.layers.size() * sizeof(uint32_t);
    const size_t report_bytes =
        kCacheLineSize + report_entry_cap_ * sizeof(ReportEntry);
    for (const uint32_t step : realloc_step_index_) {
      for (uint32_t s = 0; s < n; ++s) {
        report_offset_.push_back(layout.Reserve(report_bytes));
      }
      realloc_ready_offset_.push_back(layout.Reserve(kCacheLineSize));
      // One immediate table plus one per remaining plan step (the suffix the
      // controller rebuilds against the refilled allocation).
      std::vector<size_t> tables;
      const size_t count = 1 + (fired_plan_.size() - step - 1);
      tables.reserve(count);
      for (size_t t = 0; t < count; ++t) {
        tables.push_back(layout.Reserve(table_cap_bytes_));
      }
      realloc_table_offset_.push_back(std::move(tables));
    }
  }

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
  SerializeTable(arena_.At(plan_table_offset_[0]), base_routes_.get());
  for (size_t i = 0; i < fired_plan_.size(); ++i) {
    SerializeTable(arena_.At(plan_table_offset_[1 + i]),
                   fired_plan_[i].routes.get());
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

namespace {
// Shard i's share of the run: an even split, the remainder to the lowest ids.
uint64_t QuotaOf(uint64_t num_requests, uint32_t n, uint32_t i) {
  return num_requests / n + (i < num_requests % n ? 1 : 0);
}
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

std::atomic<uint64_t>* MultiprocBackend::ReportFlag(uint32_t step,
                                                    uint32_t s) const {
  return reinterpret_cast<std::atomic<uint64_t>*>(
      arena_.At(report_offset_[static_cast<size_t>(step) * shard_map_.shards() +
                               s]));
}

bool MultiprocBackend::Aborted() const {
  return CtrlBlockAt(arena_, control_offset_)
             ->abort.load(std::memory_order_acquire) != 0;
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

uint32_t MultiprocBackend::FirstLiveShard() const {
  const uint32_t n = shard_map_.shards();
  for (uint32_t s = 0; s < n; ++s) {
    if (!ShardDead(s)) {
      return s;
    }
  }
  return 0;  // unreachable while any process runs this code
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
                                 uint64_t num_requests, bool respawned) {
  const uint32_t id = p.id;
  const uint32_t n = shard_map_.shards();
  p.heartbeat = &SlotOf(id)->heartbeat;
  p.data_in.resize(n);
  p.data_out.resize(n);
  for (uint32_t peer = 0; peer < n; ++peer) {
    if (peer == id) {
      continue;
    }
    const size_t in_idx = static_cast<size_t>(id) * n + peer;
    const size_t out_idx = static_cast<size_t>(peer) * n + id;
    p.data_in[peer] = ShmSpscRing(arena_.At(data_ring_offset_[in_idx]),
                                  kDataRingCapacity, data_slot_bytes_);
    p.data_out[peer] = ShmSpscRing(arena_.At(data_ring_offset_[out_idx]),
                                   kDataRingCapacity, data_slot_bytes_);
    if (respawned) {
      // Live rings: adopt the shared indices (a fresh view's zeroed caches
      // are only valid for a pristine ring) and do NOT prefault — writing a
      // zero into every page of an in-use ring would clobber in-flight slots
      // and the header's published tail.
      p.data_in[peer].SyncFromShared();
      p.data_out[peer].SyncFromShared();
      continue;
    }
    // Prefault this shard's *inbound* ring pages by writing (reads would map
    // shared zero pages, placing nothing): first touch from the pinned core
    // allocates them on its node. Pre-barrier, so no producer can be writing.
    volatile uint8_t* page = arena_.At(data_ring_offset_[in_idx]);
    const size_t bytes =
        ShmSpscRing::BytesFor(kDataRingCapacity, data_slot_bytes_);
    for (size_t b = 0; b < bytes; b += 4096) {
      page[b] = 0;
    }
  }

  // Start barrier (ShmControlBlock comment): everyone's prefault is complete
  // before anyone's first send. Every incarnation — fresh or respawned —
  // increments, and the release condition also counts supervisor-declared-
  // dead shards, so a shard that dies before arriving can never wedge the
  // others (the respawn over-count is harmless under >=). A respawned
  // incarnation usually finds the barrier long released and falls through.
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
    DrainDataRings(p);
    if (ready()) {
      break;
    }
    if (Aborted()) {
      p.abort_seen = true;
      return false;
    }
    PulseHeartbeat(p);
    backoff.Pause();
  }
  return true;
}

void* MultiprocBackend::AcquireSlot(Proc& p, ShmSpscRing& ring, uint32_t peer) {
  // A full ring means the receiver is behind. Draining our own rings while
  // retrying guarantees global progress (no send cycle can wedge: some shard
  // in it always empties a ring); the abort and dead-peer checks guarantee a
  // dead receiver cannot wedge us (its message is moot).
  void* slot = nullptr;
  WaitFor(p, [&] {
    slot = ring.TryStage();
    return slot != nullptr || ShardDead(peer);
  });
  return slot;
}

void MultiprocBackend::BroadcastTelemetry(Proc& p) {
  const uint32_t n = shard_map_.shards();
  const uint32_t count = static_cast<uint32_t>(p.own_cache.size());
  for (uint32_t peer = 0; peer < n; ++peer) {
    if (peer == p.id || ShardDead(peer)) {
      continue;
    }
    if (__builtin_expect(p.drop_telemetry != 0, 0)) {
      // Armed kDropTelemetry: the staged slot below is rewound at Publish,
      // so this broadcast is lost exactly as a dropped message would be.
      p.data_out[peer].ArmDropNext(1);
    }
    void* slot = AcquireSlot(p, p.data_out[peer], peer);
    if (slot == nullptr) {
      if (p.abort_seen) {
        return;
      }
      continue;  // peer died while we waited; skip it
    }
    const WireHeader h{kWireTelemetry, 0, 0, p.id, count, 0};
    WritePod(slot, &h, sizeof(h));
    WritePod(slot, p.own_cache.data(), count * sizeof(double), sizeof(h));
    p.data_out[peer].Publish();
    ++p.local.cross_shard_messages;
    ++p.local.ring_messages;
  }
  if (__builtin_expect(p.drop_telemetry != 0, 0)) {
    --p.drop_telemetry;
  }
}

void MultiprocBackend::SendLoadDeltas(
    Proc& p, uint32_t peer,
    const std::vector<std::pair<uint32_t, double>>& cache,
    const std::vector<std::pair<uint32_t, double>>& server) {
  const size_t max_entries =
      (data_slot_bytes_ - sizeof(WireHeader)) / sizeof(DeltaEntry);
  size_t ci = 0;
  size_t si = 0;
  // Chunked so any topology fits the fixed slot; every chunk is independently
  // applicable (pure += deltas), so no reassembly state is needed.
  while (ci < cache.size() || si < server.size()) {
    const size_t nc = std::min(cache.size() - ci, max_entries);
    const size_t ns = std::min(server.size() - si, max_entries - nc);
    void* slot = AcquireSlot(p, p.data_out[peer], peer);
    if (slot == nullptr) {
      return;  // aborted, or the peer died — its merge share is lost anyway
    }
    const WireHeader h{kWireDeltas, 0, 0, p.id, static_cast<uint32_t>(nc),
                       static_cast<uint32_t>(ns)};
    WritePod(slot, &h, sizeof(h));
    p.delta_scratch.clear();
    for (size_t i = 0; i < nc; ++i) {
      p.delta_scratch.push_back({cache[ci + i].first, cache[ci + i].second});
    }
    for (size_t i = 0; i < ns; ++i) {
      p.delta_scratch.push_back({server[si + i].first, server[si + i].second});
    }
    WritePod(slot, p.delta_scratch.data(),
             p.delta_scratch.size() * sizeof(DeltaEntry), sizeof(h));
    p.data_out[peer].Publish();
    ++p.local.cross_shard_messages;
    ++p.local.ring_messages;
    ci += nc;
    si += ns;
  }
}

void MultiprocBackend::SendDone(Proc& p, uint32_t peer) {
  void* slot = AcquireSlot(p, p.data_out[peer], peer);
  if (slot == nullptr) {
    return;  // aborted, or the peer is dead and will never consume it
  }
  const WireHeader h{kWireDone, 0, 0, p.id, 0, 0};
  WritePod(slot, &h, sizeof(h));
  if (__builtin_expect(p.done_delay_ms != 0, 0)) {
    p.data_out[peer].ArmDelayNext(p.done_delay_ms);
    p.done_delay_ms = 0;
  }
  // The kDone follows every delta this shard sent to `peer` on the same FIFO
  // ring, so the peer has applied them all by the time it consumes the kDone
  // (the no-missed-delta edge).
  p.data_out[peer].Publish();
  ++p.local.cross_shard_messages;
}

bool MultiprocBackend::ApplyDataSlot(Proc& p, const void* slot) {
  WireHeader h;
  std::memcpy(&h, slot, sizeof(h));
  const uint8_t* payload = static_cast<const uint8_t*>(slot) + sizeof(h);
  if (h.kind == kWireDone) {
    p.done_ring[h.from] = 1;
    return true;
  }
  if (h.kind == kWireTelemetry) {
    // Fold in the sender's monotone increment since its previous broadcast;
    // the view stays the sum of per-shard partials plus our exact own counts.
    p.telemetry_scratch.resize(h.count_a);
    if (h.count_a != 0) {
      std::memcpy(p.telemetry_scratch.data(), payload,
                  h.count_a * sizeof(double));
    }
    std::vector<double>& last = p.last_partial[h.from];
    for (uint32_t flat = 0; flat < h.count_a; ++flat) {
      const double delta = p.telemetry_scratch[flat] - last[flat];
      if (delta != 0.0) {
        p.core.view().Add(shard_map_.NodeOfFlat(flat), delta);
        last[flat] = p.telemetry_scratch[flat];
      }
    }
    return false;
  }
  // kWireDeltas
  const size_t entries = static_cast<size_t>(h.count_a) + h.count_b;
  p.delta_scratch.resize(entries);
  if (entries != 0) {
    std::memcpy(p.delta_scratch.data(), payload, entries * sizeof(DeltaEntry));
  }
  for (uint32_t i = 0; i < h.count_a; ++i) {
    const CacheNodeId node =
        shard_map_.NodeOfFlat(static_cast<uint32_t>(p.delta_scratch[i].index));
    p.local.cache_load[node.layer][node.index] += p.delta_scratch[i].delta;
  }
  for (uint32_t i = 0; i < h.count_b; ++i) {
    const DeltaEntry& e = p.delta_scratch[h.count_a + i];
    p.local.server_load[static_cast<uint32_t>(e.index)] += e.delta;
  }
  return false;
}

bool MultiprocBackend::DrainDataRings(Proc& p) {
  const uint32_t n = shard_map_.shards();
  bool done = false;
  for (uint32_t peer = 0; peer < n; ++peer) {
    if (peer == p.id) {
      continue;
    }
    ShmSpscRing& ring = p.data_in[peer];
    if (ring.EmptyApprox()) {
      continue;
    }
    while (const void* slot = ring.Front()) {
      done |= ApplyDataSlot(p, slot);
      ring.Pop();
    }
  }
  return done;
}

void MultiprocBackend::PollInbox(Proc& p) {
  // Batch-boundary drain: one that consumed a kDone counts as one contended
  // receive, any other (vacuous at x1) as one uncontended receive. Wait-loop
  // drains are not counted.
  if (DrainDataRings(p)) {
    ++p.local.contended_receives;
  } else {
    ++p.local.uncontended_receives;
  }
}

void MultiprocBackend::FlushLoads(Proc& p) {
  // End-of-run owner split (the hot path never tests ownership): own
  // cumulative contributions land either in this shard's authoritative
  // counters or in delta chunks per owning shard. Loads are sums of
  // exactly-representable costs, so materializing the total here instead of
  // accumulating per request is bit-identical.
  for (uint32_t flat = 0; flat < p.own_cache.size(); ++flat) {
    const double delta = p.own_cache[flat];
    if (delta == 0.0) {
      continue;
    }
    const CacheNodeId node = shard_map_.NodeOfFlat(flat);
    if (shard_map_.OwnerOfFlat(flat) == p.id) {
      p.local.cache_load[node.layer][node.index] += delta;
    } else {
      p.out_cache[shard_map_.OwnerOfFlat(flat)].emplace_back(flat, delta);
    }
  }
  for (uint32_t server = 0; server < p.own_server.size(); ++server) {
    const double delta = p.own_server[server];
    if (delta == 0.0) {
      continue;
    }
    if (shard_map_.OwnerOfServer(server) == p.id) {
      p.local.server_load[server] += delta;
    } else {
      p.out_server[shard_map_.OwnerOfServer(server)].emplace_back(server, delta);
    }
  }
  const uint32_t n = shard_map_.shards();
  for (uint32_t peer = 0; peer < n; ++peer) {
    if (peer == p.id ||
        (p.out_cache[peer].empty() && p.out_server[peer].empty())) {
      continue;
    }
    SendLoadDeltas(p, peer, p.out_cache[peer], p.out_server[peer]);
    p.out_cache[peer].clear();
    p.out_server[peer].clear();
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

bool MultiprocBackend::ControllerPublishRealloc(Proc& p, uint32_t step) {
  const uint32_t n = shard_map_.shards();
  auto* table_ready = reinterpret_cast<std::atomic<uint64_t>*>(
      arena_.At(realloc_ready_offset_[step]));
  const std::vector<size_t>& tables = realloc_table_offset_[step];
  uint64_t mask = 0;
  std::vector<std::vector<std::pair<uint64_t, uint32_t>>> reports;
  reports.reserve(n);
  for (uint32_t s = 0; s < n; ++s) {
    const std::atomic<uint64_t>* flag = ReportFlag(step, s);
    // A shard that died before publishing is simply absent from the sample.
    if (!WaitFor(p, [&] {
          return flag->load(std::memory_order_acquire) != 0 ||
                 (s != p.id && ShardDead(s));
        })) {
      return false;
    }
    if (flag->load(std::memory_order_acquire) == 0) {
      continue;  // excluded from the merge — and from the published mask
    }
    if (s < 63) {
      mask |= 1ull << s;
    }
    reports.push_back(ReadArenaReport(step, s));
  }
  model_.ReallocateFromReports(p.core.spine_alive(), reports);
  const std::vector<std::shared_ptr<const RouteTable>> routes =
      BuildReallocRoutes(fired_plan_, p.core, model_);
  // On a controller respawn the flag may already be set; the model mutations
  // above still ran — later realloc steps need the refilled state — but the
  // identical bytes are not rewritten under concurrent readers. A failover
  // successor always finds the flag clear (kShardDead is set only after the
  // dead claimant's writes stopped), so its full rewrite wins cleanly.
  if (table_ready->load(std::memory_order_acquire) == 0) {
    for (size_t i = 0; i < routes.size(); ++i) {
      SerializeTable(arena_.At(tables[i]), routes[i].get());
    }
    table_ready->store(1 | (mask << 1), std::memory_order_release);
  }
  return true;
}

void MultiprocBackend::Reallocate(Proc& p) {
  const uint32_t n = shard_map_.shards();
  const uint32_t step = p.realloc_seq++;
  // 1. Publish this shard's heavy-hitter report into its idempotent slot:
  //    entries first, then count+1 through the release flag. A respawned
  //    incarnation finds the flag set (reports are deterministic per shard)
  //    and skips the write, so a concurrent controller read never races.
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
  uint8_t* ready_line = arena_.At(realloc_ready_offset_[step]);
  auto* table_ready = reinterpret_cast<std::atomic<uint64_t>*>(ready_line);
  // Controller claim word (claimant id + 1), sharing the reserved line with
  // the ready flag. Zero until the first live shard elects itself; re-pointed
  // at the deterministic successor when a claimant dies before publishing.
  auto* claim = reinterpret_cast<std::atomic<uint64_t>*>(ready_line + 8);
  const std::vector<size_t>& tables = realloc_table_offset_[step];

  // 2. Controller election + publication. The first live shard claims the
  //    role and runs ControllerPublishRealloc (gather → refill → publish
  //    behind the ready flag). A waiter that observes a dead claimant with
  //    the tables still unpublished CASes the claim to the current first
  //    live shard — the paper's §4.4-style deterministic failover. In a
  //    fault-free run shard 0 wins the first CAS uncontested.
  const auto published_or_ours = [&] {
    if (table_ready->load(std::memory_order_acquire) != 0) {
      return true;
    }
    uint64_t cur = claim->load(std::memory_order_acquire);
    if (cur == 0) {
      if (FirstLiveShard() == p.id &&
          claim->compare_exchange_strong(cur, p.id + 1,
                                         std::memory_order_acq_rel) &&
          p.id != 0) {
        // Shard 0 died before ever claiming: this election IS the failover.
        ++p.local.controller_failovers;
        p.local.fault_events.push_back(
            {p.id, BackendStats::FaultRecord::kControllerFailover, 0});
      }
    } else if (cur != p.id + 1 && ShardDead(static_cast<uint32_t>(cur - 1))) {
      const uint32_t successor = FirstLiveShard();
      if (claim->compare_exchange_strong(cur, successor + 1,
                                         std::memory_order_acq_rel)) {
        ++p.local.controller_failovers;
        p.local.fault_events.push_back(
            {successor, BackendStats::FaultRecord::kControllerFailover, 0});
      }
    }
    return claim->load(std::memory_order_acquire) == p.id + 1;
  };
  if (!WaitFor(p, published_or_ours)) {
    return;  // keep current routes; we are winding down
  }
  const bool is_publisher = table_ready->load(std::memory_order_acquire) == 0;
  if (is_publisher && !ControllerPublishRealloc(p, step)) {
    return;  // winding down
  }
  const uint64_t ready = table_ready->load(std::memory_order_acquire);
  // 3. Forked non-publishers replay the controller's model mutations from the
  //    masked report set, so any of them can take over as controller at a
  //    later step with the refilled allocation state. (The mask covers
  //    shards 0..62; beyond that the report flags stand in, which can
  //    over-include a report the publisher missed — documented limitation.)
  //    Threads share the publisher's model, which it mutated while every
  //    peer was parked above, so they skip the replay.
  if (!is_publisher && launcher_ == Launcher::kForks) {
    const uint64_t mask = ready >> 1;
    std::vector<std::vector<std::pair<uint64_t, uint32_t>>> reports;
    for (uint32_t s = 0; s < n; ++s) {
      const bool included =
          s < 63 ? ((mask >> s) & 1) != 0
                 : ReportFlag(step, s)->load(std::memory_order_acquire) != 0;
      if (included) {
        reports.push_back(ReadArenaReport(step, s));
      }
    }
    model_.ReallocateFromReports(p.core.spine_alive(), reports);
  }
  p.core.SetRoutes(ViewTable(arena_.At(tables[0])));
  const size_t from = p.core.next_action_index();
  for (size_t i = 1; i < tables.size(); ++i) {
    p.core.SetActionRoutes(from + i - 1, ViewTable(arena_.At(tables[i])));
  }
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
        // supervisor ladder sees a genuine stall; sliced sleeps keep the
        // shard abort-responsive.
        struct timespec ms {0, 1000000L};
        for (uint64_t i = 0; i < f.param && !Aborted(); ++i) {
          nanosleep(&ms, nullptr);
        }
        break;
      }
      case FaultKind::kDropTelemetry:
        RecordFault(p, f.kind, f.at_request);
        p.drop_telemetry += static_cast<uint32_t>(f.param);
        break;
      case FaultKind::kDelayControl:
        RecordFault(p, f.kind, f.at_request);
        p.done_delay_ms += static_cast<uint32_t>(f.param);
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
  const uint32_t n = shard_map_.shards();
  const uint32_t num_cache_nodes = shard_map_.num_cache_nodes();
  p.local.cache_load = model_.ZeroCacheLoads();
  p.local.server_load.assign(model_.num_servers(), 0.0);
  p.own_cache.assign(num_cache_nodes, 0.0);
  p.own_server.assign(model_.num_servers(), 0.0);
  p.last_partial.assign(n, std::vector<double>(num_cache_nodes, 0.0));
  p.out_cache.assign(n, {});
  p.out_server.assign(n, {});
  p.done_ring.assign(n, 0);
  p.sampler = &sampler_;
  p.two_level = two_level_.get();
  p.quota_scale = num_requests == 0 ? 0.0
                                    : static_cast<double>(quota) /
                                          static_cast<double>(num_requests);
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

  std::function<void()> batch_event = [&] {
    if (p.processed >= quota) {
      return;
    }
    const uint32_t count = static_cast<uint32_t>(
        std::min<uint64_t>(config_.batch_size, quota - p.processed));
    ProcessBatch(p, count);
    if (p.processed < quota) {
      p.queue.Schedule(static_cast<double>(count), batch_event);
    }
  };
  std::function<void()> telemetry_event = [&] {
    if (p.processed >= quota) {
      return;
    }
    BroadcastTelemetry(p);
    p.queue.Schedule(static_cast<double>(config_.epoch_requests),
                     telemetry_event);
  };
  p.queue.Schedule(0.0, batch_event);
  if (config_.epoch_requests > 0 && n > 1) {
    p.queue.Schedule(static_cast<double>(config_.epoch_requests),
                     telemetry_event);
  }
  p.queue.RunUntil(static_cast<double>(quota) + 1.0);

  p.core.AdvanceTo(quota);

  FlushLoads(p);
  for (uint32_t peer = 0; peer < n; ++peer) {
    if (peer != p.id && !ShardDead(peer)) {
      SendDone(p, peer);
    }
  }
  // A peer is finished when its kDone arrived on the ring — or when its
  // completion slot says it already exited (its kDone may have been consumed
  // by a since-crashed incarnation of this shard under respawn; the slot
  // store is release-ordered after the peer's last ring publish, so counting
  // it finished still guarantees its deltas are visible to the drain below).
  WaitFor(p, [&] {
    for (uint32_t peer = 0; peer < n; ++peer) {
      if (peer != p.id && !p.done_ring[peer] &&
          SlotOf(peer)->state.load(std::memory_order_acquire) ==
              kShardRunning) {
        return false;
      }
    }
    return true;
  });
  DrainDataRings(p);  // every live peer's final deltas are visible now
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
  const uint32_t n = shard_map_.shards();
  // _exit, never exit, in a child: no atexit handlers, no gtest/ASan
  // teardown of inherited parent state — the child owns nothing but its
  // stats region.
  const auto child = [&](uint32_t i, bool again) {
    if (config_.pin_cores) {
      // Before any allocation and the ring prefault, so this shard's state
      // and inbound rings land on the pinned core's NUMA node (first touch).
      PinToCore(i);
    }
    const std::unique_ptr<Proc> p = NewProc(i);
    const bool aborted =
        ShardMain(*p, QuotaOf(num_requests, n, i), num_requests, again);
    _exit(aborted ? 3 : 0);
  };
  std::vector<pid_t> pids(n, -1);
  for (uint32_t i = 0; i < n; ++i) {
    const pid_t pid = ::fork();
    if (pid == 0) {
      child(i, /*again=*/false);
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
  std::vector<uint32_t> respawn_left(
      n, config_.respawn ? config_.respawn_limit : 0);
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
          child(i, /*again=*/true);
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
      // this shard in every send, rendezvous gather, election and the done
      // protocol; the run completes with the survivors' quota — degrade,
      // don't abort.
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
  const uint32_t n = shard_map_.shards();
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
  if (config_.numa_interleave) {
    // Before any arena page is faulted: the plan tables serialized below then
    // stripe across nodes instead of landing wholly on the supervisor's.
    arena_.InterleaveAcrossNumaNodes();
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
            PinToCore(p->id);  // before the ring prefault (first touch)
          }
          ShardMain(*p, QuotaOf(num_requests, n, p->id), num_requests,
                    /*respawned=*/false);
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
