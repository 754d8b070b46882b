// The 100M-key memory-wall bench (PR 9 tentpole proof): per-key memory must be
// proportional to the *cached* set, not the key space, and the big read-only
// state must be physically shared across shard processes.
//
// Geometry: the paper's 100M-object workload with a candidate pool raised
// toward the key space (candidate_pool, the individually-tracked head that
// dense structures materialize per rank) and ~1M cache slots — the scale the
// ROADMAP names as the multiproc payoff, where the pre-PR-9 dense layout costs
// gigabytes per process:
//
//   * dense route table:   8 B x pool per snapshot;
//   * dense sampler:       ~32 B x pool (pmf + inverse-CDF, plus the model's
//                          popularity vectors);
//   * N processes:         N copies of all of it.
//
// The measured rows, each run in a *forked child* so getrusage(ru_maxrss) is a
// clean per-run high-water mark (maxrss is a process-lifetime figure; rows
// sharing a process would smear into each other):
//
//   seq-dense      sequential, dense tables + dense sampler — the
//                  copy-heavy single-process baseline the gate compares against
//   seq            sequential, compact tables + two-level sampler
//   sharded xN     in-process shards, compact + two-level
//   multiproc xN   shard processes, compact + two-level, inherited plan
//   failover x2    in-process shards at the smoke geometry with a two-spine
//                  fail/remap/recover timeline (distcache_sim --fail-spines=2)
//   realloc x2     shard processes at the smoke geometry, static-topk, a
//                  hot-spot shift then a re-allocation: every shard refills
//                  and builds its own tables, so this row shows what that
//                  costs in arena and peak RSS (no gate)
//
// Columns report the set-up time (MakeSimBackend: model, allocation, sampler
// and plan build), peak RSS (context: includes allocator slack and the
// placement/allocation model), the engines' deterministic byte accounting
// (route tables, samplers, arena) and the row geometry's allocation bytes
// (CacheAllocation::bytes() of a ClusterModel built in this process after
// every row ran; the realloc row shows its allocation before the refill).
// The --gate legs use the deterministic bytes, so they are exact at any
// scale, smoke included:
//
//   gate 1 (compaction): dense route-table bytes >= 50x compact bytes
//                        (the ISSUE acceptance ratio at 100M keys / ~1M cached);
//   gate 2 (sharing):    multiproc xN total footprint — arena + the plan's
//                        route tables (inherited by every child, counted
//                        once) + N x per-process sampler — < 2x the seq-dense
//                        single-process bytes (the "beats N x copy-heavy
//                        baseline" criterion: without the shared plan and
//                        compaction this figure is ~N x the baseline, not a
//                        fraction of one);
//   gate 3 (snapshots):  failover x2 route-table bytes <= its base table's
//                        bytes + the plan's map words — the timeline adds no
//                        table: the remap and the last recover (the first is
//                        superseded at its timestamp) each carry the
//                        controller's layer-0 map (num_spine words) with the
//                        base table, since tables name layer-0 copies by
//                        partition;
//   gate 4 (allocation): the row geometry's allocation bytes <= 4 B x layers
//                        per rank of its cached span — its per-rank rows
//                        and nothing else: no per-node key lists and no
//                        failure map (the controller holds that);
//   gate 5 (entries):    the row geometry's compact base table holds exactly
//                        8 B per hot-prefix rank plus 4 B per overflow word —
//                        entries store no server (the engines hash the key
//                        to it) and pack kind and num beside the two
//                        candidate words.
//
// Detect-and-skip: hosts that cannot map the arena skip the multiproc row and
// gate 2 (like bench_scaling); hosts without the memory for the full dense
// baseline drop to the smoke geometry with a note (the gates are
// scale-invariant ratios, so they stay armed). DISTCACHE_BENCH_SMOKE shrinks
// everything for CI; emits BENCH_memwall.json under --json.
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/wait.h>
#include <unistd.h>
#define DISTCACHE_MEMWALL_FORK 1
#endif

#include "bench/bench_common.h"
#include "core/allocation.h"
#include "runtime/shm_arena.h"
#include "sim/cluster_model.h"
#include "sim/multiproc_backend.h"
#include "sim/route_table.h"
#include "sim/sim_backend.h"

namespace distcache {
namespace {

constexpr uint32_t kShards = 4;
constexpr double kMiB = 1024.0 * 1024.0;

struct Geometry {
  uint64_t num_keys;
  uint64_t candidate_pool;
  uint32_t per_switch_objects;  // 64 nodes across 2 layers
  uint64_t requests;
};

// Full scale: 100M keys, 32M-rank head, 64 x 16384 = ~1M cache slots (~500k
// distinct cached keys, one copy per layer) — dense/compact ratio ~60x.
constexpr Geometry kFull{100'000'000, 32'000'000, 16'384, 4'000'000};
// Smoke/reduced scale: same shape three orders of magnitude down (ratio ~120x).
constexpr Geometry kSmoke{4'000'000, 2'000'000, 512, 400'000};

// Rough peak bytes of the dense single-process baseline: route table (8 B) +
// sampler pmf/cdf (16 B) + the model's popularity + head_with_tail vectors
// (16 B) per pool rank, plus slack for placement/allocation state.
uint64_t DenseBaselineEstimate(const Geometry& g) {
  return g.candidate_pool * 40 + (uint64_t{512} << 20);
}

// Gate 5's entry size: one 8-byte word per hot-prefix rank.
constexpr uint64_t kRouteEntryBytes = 8;

uint64_t MemAvailableBytes() {
#if defined(__linux__)
  std::FILE* f = std::fopen("/proc/meminfo", "r");
  if (f == nullptr) {
    return 0;
  }
  char line[256];
  uint64_t kib = 0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::sscanf(line, "MemAvailable: %llu kB",
                    reinterpret_cast<unsigned long long*>(&kib)) == 1) {
      break;
    }
  }
  std::fclose(f);
  return kib * 1024;
#else
  return 0;
#endif
}

SimBackendConfig MakeConfig(const Geometry& g) {
  SimBackendConfig bcfg;
  bcfg.cluster = PaperDefaultConfig(Mechanism::kDistCache);
  bcfg.cluster.num_keys = g.num_keys;
  bcfg.cluster.candidate_pool = g.candidate_pool;
  bcfg.cluster.per_switch_objects = g.per_switch_objects;
  return bcfg;
}

// The failover row's config: two shards on the thread launcher (whose
// route_table_bytes is the plan's) and distcache_sim's --fail-spines=2
// timeline — spines 0 and 1 fail at 20%, remap at 50%, recover at 75%.
SimBackendConfig FailoverConfig() {
  SimBackendConfig bcfg = MakeConfig(kSmoke);
  bcfg.two_level_sampling = true;
  bcfg.shards = 2;
  const uint64_t n = kSmoke.requests;
  for (uint32_t s = 0; s < 2; ++s) {
    bcfg.events.push_back(ClusterEvent::FailSpine(n / 5, s));
    bcfg.events.push_back(ClusterEvent::RecoverSpine(n * 3 / 4, s));
  }
  bcfg.events.push_back(ClusterEvent::RunRecovery(n / 2));
  return bcfg;
}

// The realloc row's config: two shard processes, static-topk, the hot set
// shifts at 40% and the controller re-allocates at 60%.
SimBackendConfig ReallocConfig() {
  SimBackendConfig bcfg = MakeConfig(kSmoke);
  bcfg.two_level_sampling = true;
  bcfg.shards = 2;
  bcfg.cluster.cache_policy = CachePolicyKind::kStaticTopK;
  const uint64_t n = kSmoke.requests;
  bcfg.events = {ClusterEvent::ShiftHotspot(n * 2 / 5, kSmoke.num_keys / 2),
                 ClusterEvent::ReallocateCache(n * 3 / 5)};
  return bcfg;
}

// One measured row, POD so it survives the child->parent pipe.
struct Row {
  char name[24] = {0};
  bool forked = false;  // shard processes: per-process bytes count N times
  bool ran = false;  // false: skipped (substrate unavailable)
  bool ok = false;
  uint32_t shards = 1;
  uint64_t requests = 0;
  double mrps = 0.0;
  double hit_ratio = 0.0;
  double setup_s = 0.0;  // wall time of MakeSimBackend
  uint64_t peak_rss = 0;
  uint64_t route_bytes = 0;
  uint64_t sampler_bytes = 0;
  uint64_t arena_bytes = 0;
  uint64_t alloc_bytes = 0;  // set in the parent process after every row ran

  // The deterministic total-footprint figure the gate uses: what this
  // substrate's processes privately hold plus what they share. In-process rows
  // share the route tables and sampler across shards (one address space).
  // Forked rows count the arena and the route tables once — the children
  // inherit the supervisor's never-written plan — and are charged their
  // sampler per process, an upper bound, since the pre-fork sampler pages are
  // COW-shared until written (never).
  uint64_t total_bytes() const {
    if (forked) {
      return arena_bytes + route_bytes + uint64_t{shards} * sampler_bytes;
    }
    return route_bytes + sampler_bytes;
  }
};

Row MeasureRow(const char* name, BackendKind kind, const SimBackendConfig& cfg,
               uint64_t requests) {
  Row row;
  std::snprintf(row.name, sizeof(row.name), "%s", name);
  row.shards = cfg.shards;
  row.forked = kind == BackendKind::kMultiproc;
  auto fill = [&](Row* r) {
    const auto t0 = std::chrono::steady_clock::now();
    const std::unique_ptr<SimBackend> backend = MakeSimBackend(kind, cfg);
    r->setup_s = std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
                     .count();
    const BackendStats st = backend->Run(requests);
    r->ran = true;
    r->ok = st.failed_shards == 0 && st.requests == requests;
    r->requests = st.requests;
    r->mrps = st.throughput_mrps();
    r->hit_ratio = st.hit_ratio();
    r->peak_rss = st.peak_rss_bytes;
    r->route_bytes = st.route_table_bytes;
    r->sampler_bytes = st.sampler_bytes;
    r->arena_bytes = st.arena_bytes;
  };
#if defined(DISTCACHE_MEMWALL_FORK)
  int fds[2];
  if (::pipe(fds) != 0) {
    fill(&row);  // no pipe: measure in-process (RSS smears across rows)
    return row;
  }
  const pid_t pid = ::fork();
  if (pid == 0) {
    ::close(fds[0]);
    Row child = row;
    fill(&child);
    // Best-effort single write; the row is far below PIPE_BUF so it is atomic.
    const ssize_t n = ::write(fds[1], &child, sizeof(child));
    ::_exit(n == static_cast<ssize_t>(sizeof(child)) ? 0 : 1);
  }
  if (pid < 0) {
    ::close(fds[0]);
    ::close(fds[1]);
    fill(&row);
    return row;
  }
  ::close(fds[1]);
  size_t got = 0;
  while (got < sizeof(row)) {
    const ssize_t n =
        ::read(fds[0], reinterpret_cast<char*>(&row) + got, sizeof(row) - got);
    if (n <= 0) {
      break;
    }
    got += static_cast<size_t>(n);
  }
  ::close(fds[0]);
  int status = 0;
  ::waitpid(pid, &status, 0);
  if (got != sizeof(row) || !WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    row.ran = true;
    row.ok = false;
  }
#else
  fill(&row);
#endif
  return row;
}

void PrintRow(const Row& r) {
  if (!r.ran) {
    std::printf("%-14s %10s  (skipped: substrate unavailable)\n", r.name, "-");
    return;
  }
  std::printf(
      "%-14s %10.2f %8.2f %10.4f %9.3f %12.1f %10.1f %12.1f %10.1f %12.1f %10.2f%s\n",
      r.name, static_cast<double>(r.requests) / 1e6, r.mrps, r.hit_ratio,
      r.setup_s, r.peak_rss / kMiB, r.route_bytes / kMiB, r.sampler_bytes / kMiB,
      r.arena_bytes / kMiB, r.total_bytes() / kMiB, r.alloc_bytes / kMiB,
      r.ok ? "" : "  [FAILED]");
}

void RecordRow(BenchJson& json, const Row& r) {
  if (!r.ran) {
    return;
  }
  const std::string p = r.name;
  json.Metric(p + "_mrps", r.mrps);
  json.Metric(p + "_setup_s", r.setup_s);
  json.Metric(p + "_peak_rss_mb", r.peak_rss / kMiB);
  json.Metric(p + "_route_mb", r.route_bytes / kMiB);
  json.Metric(p + "_sampler_mb", r.sampler_bytes / kMiB);
  json.Metric(p + "_arena_mb", r.arena_bytes / kMiB);
  json.Metric(p + "_total_mb", r.total_bytes() / kMiB);
  json.Metric(p + "_alloc_mb", r.alloc_bytes / kMiB);
}

int Run(BenchJson& json, bool gate) {
  Geometry g = BenchSmoke() ? kSmoke : kFull;
  bool reduced = false;
  if (!BenchSmoke()) {
    const uint64_t avail = MemAvailableBytes();
    const uint64_t need = 3 * DenseBaselineEstimate(kFull) / 2;
    if (avail != 0 && avail < need) {
      std::printf("host has %.1f GiB available, full geometry needs ~%.1f GiB "
                  "— dropping to the reduced geometry (gates stay armed: they "
                  "are scale-invariant ratios)\n",
                  avail / kMiB / 1024.0, need / kMiB / 1024.0);
      g = kSmoke;
      reduced = true;
    }
  }
  const bool multiproc_ok =
      MultiprocBackend::Supported() && ShmArena::Available(64u << 20);

  PrintHeader(
      "Memory wall: footprint at " + std::to_string(g.num_keys / 1'000'000) +
          "M keys, " + std::to_string(g.candidate_pool / 1'000'000) +
          "M-rank head",
      "per-run forked measurement; 'seq-dense' = pre-PR-9 dense tables + dense "
      "sampler (the copy-heavy baseline); all other rows compact tables + "
      "two-level sampler; total = deterministic per-substrate footprint "
      "(arena and route tables counted once, per-process sampler x" +
          std::to_string(kShards) + ")");
  json.Config("num_keys", static_cast<double>(g.num_keys));
  json.Config("candidate_pool", static_cast<double>(g.candidate_pool));
  json.Config("per_switch_objects", static_cast<double>(g.per_switch_objects));
  json.Config("requests", static_cast<double>(g.requests));
  json.Config("shards", static_cast<double>(kShards));
  json.Config("reduced", reduced ? 1.0 : 0.0);
  json.Config("multiproc_supported", multiproc_ok ? 1.0 : 0.0);

  SimBackendConfig dense_cfg = MakeConfig(g);
  dense_cfg.dense_routes = true;
  Row dense =
      MeasureRow("seq-dense", BackendKind::kSequential, dense_cfg, g.requests);

  SimBackendConfig lean = MakeConfig(g);
  lean.two_level_sampling = true;
  Row seq = MeasureRow("seq", BackendKind::kSequential, lean, g.requests);

  SimBackendConfig sharded_cfg = lean;
  sharded_cfg.shards = kShards;
  Row sharded =
      MeasureRow("sharded", BackendKind::kSharded, sharded_cfg, g.requests);

  Row multi;
  std::snprintf(multi.name, sizeof(multi.name), "multiproc");
  if (multiproc_ok) {
    SimBackendConfig multi_cfg = lean;
    multi_cfg.shards = kShards;
    multi = MeasureRow("multiproc", BackendKind::kMultiproc, multi_cfg, g.requests);
  } else {
    std::printf("multiproc: skipped (shared-memory arena unavailable)\n");
  }

  Row failover = MeasureRow("failover", BackendKind::kSharded,
                            FailoverConfig(), kSmoke.requests);

  Row realloc;
  std::snprintf(realloc.name, sizeof(realloc.name), "realloc");
  if (multiproc_ok) {
    realloc = MeasureRow("realloc", BackendKind::kMultiproc, ReallocConfig(),
                         kSmoke.requests);
  }

  // Built after every row ran, so no forked row inherits their pages: the row
  // geometry's model, and the failover row's smoke-geometry one (the realloc
  // row's allocation too, before its refill: the cache policy does not enter
  // the allocation).
  const ClusterModel model(MakeConfig(g).cluster, /*build_popularity=*/false);
  const ClusterModel smoke_model(FailoverConfig().cluster,
                                 /*build_popularity=*/false);
  for (Row* r : {&dense, &seq, &sharded, &multi}) {
    r->alloc_bytes = model.allocation->bytes();
  }
  for (Row* r : {&failover, &realloc}) {
    r->alloc_bytes = smoke_model.allocation->bytes();
  }
  std::printf("\n%-14s %10s %8s %10s %9s %12s %10s %12s %10s %12s %10s\n",
              "substrate", "req (M)", "Mreq/s", "hit ratio", "setup(s)",
              "peakRSS(MB)", "route(MB)", "sampler(MB)", "arena(MB)", "total(MB)",
              "alloc(MB)");
  for (const Row* r : {&dense, &seq, &sharded, &multi, &failover, &realloc}) {
    PrintRow(*r);
    RecordRow(json, *r);
  }

  // ---- gates ---------------------------------------------------------------
  int failed = 0;
  const bool base_ok = dense.ran && dense.ok && seq.ran && seq.ok;
  const double ratio =
      seq.route_bytes > 0
          ? static_cast<double>(dense.route_bytes) / seq.route_bytes
          : 0.0;
  json.Metric("route_bytes_ratio", ratio);
  std::printf("\nroute-table snapshot bytes: dense %.1f MB vs compact %.1f MB "
              "(%.0fx)\n",
              dense.route_bytes / kMiB, seq.route_bytes / kMiB, ratio);
  const double share = dense.total_bytes() > 0 && multi.ran
                           ? static_cast<double>(multi.total_bytes()) /
                                 dense.total_bytes()
                           : 0.0;
  if (multi.ran) {
    json.Metric("multiproc_total_over_dense", share);
    std::printf("multiproc x%u total footprint: %.1f MB = %.2fx one dense "
                "single-process run (naive x%u dense would be %.1f MB)\n",
                kShards, multi.total_bytes() / kMiB, share, kShards,
                kShards * dense.total_bytes() / kMiB);
  }
  const uint64_t failover_base_bytes = BuildRouteTable(smoke_model).bytes();
  // The remap and the last recover each carry one num_spine-word map.
  const uint64_t failover_map_bytes =
      2 * uint64_t{smoke_model.cfg.num_spine} * sizeof(uint32_t);
  const double failover_ratio =
      failover_base_bytes > 0
          ? static_cast<double>(failover.route_bytes) / failover_base_bytes
          : 0.0;
  json.Metric("failover_route_over_base", failover_ratio);
  std::printf("failover x2 route-table bytes: %.2f MB = %.2fx its base table\n",
              failover.route_bytes / kMiB, failover_ratio);
  const CacheAllocation& alloc = *model.allocation;
  const uint64_t alloc_bytes = alloc.bytes();
  const uint64_t cached_ranks = alloc.CachedRankEnd();
  const uint64_t alloc_bound = 4 * alloc.num_layers() * cached_ranks;
  const double alloc_per_rank =
      cached_ranks > 0 ? static_cast<double>(alloc_bytes) / cached_ranks : 0.0;
  json.Metric("alloc_bytes", static_cast<double>(alloc_bytes));
  json.Metric("alloc_bytes_per_cached_rank", alloc_per_rank);
  std::printf("allocation bytes: %.2f MB = %.1f B per cached rank (%llu ranks, "
              "%zu layers)\n",
              alloc_bytes / kMiB, alloc_per_rank,
              static_cast<unsigned long long>(cached_ranks), alloc.num_layers());
  const RouteTable base = BuildRouteTable(model);
  const uint64_t base_bound = kRouteEntryBytes * base.hot_len() +
                              sizeof(uint32_t) * base.overflow.size();
  std::printf("compact base table: %.2f MB = %zu B x %zu ranks + 4 B x %zu "
              "overflow words\n",
              base.bytes() / kMiB, sizeof(RouteEntry), base.hot_len(),
              base.overflow.size());
  if (gate) {
    if (!base_ok) {
      std::fprintf(stderr, "memwall gate FAILED: baseline rows did not run\n");
      failed = 1;
    } else if (ratio < 50.0) {
      std::fprintf(stderr,
                   "memwall gate FAILED: dense/compact route bytes %.1fx < "
                   "50x — compaction regressed\n",
                   ratio);
      failed = 1;
    } else {
      std::printf("memwall gate OK: compaction %.0fx (threshold 50x)\n", ratio);
    }
    if (multi.ran) {
      if (!multi.ok || multi.total_bytes() >= 2 * dense.total_bytes()) {
        std::fprintf(stderr,
                     "memwall gate FAILED: multiproc x%u total %.1f MB not "
                     "under 2x dense single-process %.1f MB\n",
                     kShards, multi.total_bytes() / kMiB,
                     dense.total_bytes() / kMiB);
        failed = 1;
      } else {
        std::printf("memwall gate OK: multiproc x%u total = %.2fx one dense "
                    "process (threshold 2x)\n",
                    kShards, share);
      }
    } else {
      std::printf("memwall gate: multiproc leg skipped (arena unavailable); "
                  "compaction leg still gates\n");
    }
    if (!failover.ok || failover_base_bytes == 0 ||
        failover.route_bytes > failover_base_bytes + failover_map_bytes) {
      std::fprintf(stderr,
                   "memwall gate FAILED: failover x2 route tables %llu B "
                   "exceed the base table's %llu B + %llu B of maps — the "
                   "plan builds a table for a remap\n",
                   static_cast<unsigned long long>(failover.route_bytes),
                   static_cast<unsigned long long>(failover_base_bytes),
                   static_cast<unsigned long long>(failover_map_bytes));
      failed = 1;
    } else {
      std::printf("memwall gate OK: failover x2 route tables = %.2fx the base "
                  "table (threshold: the base table + %llu B of maps)\n",
                  failover_ratio,
                  static_cast<unsigned long long>(failover_map_bytes));
    }
    if (alloc_bytes > alloc_bound) {
      std::fprintf(stderr,
                   "memwall gate FAILED: allocation %.1f B per cached rank "
                   "exceeds 4 B x %zu layers — it holds more than its "
                   "per-rank rows\n",
                   alloc_per_rank, alloc.num_layers());
      failed = 1;
    } else {
      std::printf("memwall gate OK: allocation = %.1f B per cached rank "
                  "(threshold 4 B x %zu layers)\n",
                  alloc_per_rank, alloc.num_layers());
    }
    if (base.bytes() != base_bound) {
      std::fprintf(stderr,
                   "memwall gate FAILED: compact base table %zu B != %llu B "
                   "(8 B per entry + 4 B per overflow word) — %zu-byte route "
                   "entries\n",
                   base.bytes(), static_cast<unsigned long long>(base_bound),
                   sizeof(RouteEntry));
      failed = 1;
    } else {
      std::printf("memwall gate OK: compact base table = 8 B per entry + "
                  "4 B per overflow word\n");
    }
  }
  return failed;
}

}  // namespace
}  // namespace distcache

int main(int argc, char** argv) {
  distcache::BenchJson json(argc, argv, "memwall", {"gate"});
  return distcache::Run(json, json.flags().GetBool("gate", false));
}
