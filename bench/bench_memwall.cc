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
//   * dense route table:   16 B x pool per snapshot;
//   * dense sampler:       ~32 B x pool (pmf + inverse-CDF, plus the model's
//                          popularity vectors);
//   * N processes:         N copies of all of it.
//
// Four measured rows, each run in a *forked child* so getrusage(ru_maxrss) is a
// clean per-run high-water mark (maxrss is a process-lifetime figure; rows
// sharing a process would smear into each other):
//
//   seq-dense      sequential, dense tables + dense sampler — the
//                  copy-heavy single-process baseline the gate compares against
//   seq            sequential, compact tables + two-level sampler
//   sharded xN     in-process shards, compact + two-level
//   multiproc xN   shard processes, compact + two-level, arena-resident plan
//
// Columns report the set-up time (MakeSimBackend: model, allocation, sampler
// and plan build), peak RSS (context: includes allocator slack and the
// placement/allocation model) and the engines' deterministic byte accounting
// (route tables, samplers, arena). The --gate legs use the deterministic
// bytes, so they are exact at any scale, smoke included:
//
//   gate 1 (compaction): dense route-table bytes >= 50x compact bytes
//                        (the ISSUE acceptance ratio at 100M keys / ~1M cached);
//   gate 2 (sharing):    multiproc xN total footprint — arena + N x per-process
//                        private bytes — < 2x the seq-dense single-process
//                        bytes (the "beats N x copy-heavy baseline" criterion:
//                        without the arena-resident plan and compaction this
//                        figure is ~N x the baseline, not a fraction of one).
//
// Detect-and-skip: hosts that cannot map the arena skip the multiproc row and
// gate 2 (like bench_scaling); hosts without the memory for the full dense
// baseline drop to the smoke geometry with a note (the gates are
// scale-invariant ratios, so they stay armed). DISTCACHE_BENCH_SMOKE shrinks
// everything for CI; emits BENCH_memwall.json under --json.
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/wait.h>
#include <unistd.h>
#define DISTCACHE_MEMWALL_FORK 1
#endif

#include "bench/bench_common.h"
#include "runtime/shm_arena.h"
#include "sim/multiproc_backend.h"
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

// Rough peak bytes of the dense single-process baseline: route table (16 B) +
// sampler pmf/cdf (16 B) + the model's popularity + head_with_tail vectors
// (16 B) per pool rank, plus slack for placement/allocation state.
uint64_t DenseBaselineEstimate(const Geometry& g) {
  return g.candidate_pool * 48 + (uint64_t{512} << 20);
}

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

// One measured row, POD so it survives the child->parent pipe.
struct Row {
  char name[24] = {0};
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

  // The deterministic total-footprint figure the gate uses: what this
  // substrate's processes privately hold plus what they share. In-process rows
  // share the route tables and sampler across shards (one address space);
  // multiproc children report route bytes as 0 (the plan lives in the arena,
  // counted once) and are charged their sampler per process — an upper bound,
  // since the pre-fork sampler pages are COW-shared until written (never).
  uint64_t total_bytes() const {
    if (std::strncmp(name, "multiproc", 9) == 0) {
      return arena_bytes + uint64_t{shards} * (route_bytes + sampler_bytes);
    }
    return route_bytes + sampler_bytes;
  }
};

Row MeasureRow(const char* name, BackendKind kind, const SimBackendConfig& cfg,
               uint64_t requests) {
  Row row;
  std::snprintf(row.name, sizeof(row.name), "%s", name);
  row.shards = cfg.shards;
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
  std::printf("%-14s %10.2f %8.2f %10.4f %9.3f %12.1f %10.1f %12.1f %10.1f %12.1f%s\n",
              r.name, static_cast<double>(r.requests) / 1e6, r.mrps, r.hit_ratio,
              r.setup_s, r.peak_rss / kMiB, r.route_bytes / kMiB, r.sampler_bytes / kMiB,
              r.arena_bytes / kMiB, r.total_bytes() / kMiB,
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
      "(arena counted once, per-process state x" +
          std::to_string(kShards) + ")");
  json.Config("num_keys", static_cast<double>(g.num_keys));
  json.Config("candidate_pool", static_cast<double>(g.candidate_pool));
  json.Config("per_switch_objects", static_cast<double>(g.per_switch_objects));
  json.Config("requests", static_cast<double>(g.requests));
  json.Config("shards", static_cast<double>(kShards));
  json.Config("reduced", reduced ? 1.0 : 0.0);
  json.Config("multiproc_supported", multiproc_ok ? 1.0 : 0.0);

  std::printf("\n%-14s %10s %8s %10s %9s %12s %10s %12s %10s %12s\n", "substrate",
              "req (M)", "Mreq/s", "hit ratio", "setup(s)", "peakRSS(MB)", "route(MB)",
              "sampler(MB)", "arena(MB)", "total(MB)");

  SimBackendConfig dense_cfg = MakeConfig(g);
  dense_cfg.dense_routes = true;
  const Row dense =
      MeasureRow("seq-dense", BackendKind::kSequential, dense_cfg, g.requests);
  PrintRow(dense);
  RecordRow(json, dense);

  SimBackendConfig lean = MakeConfig(g);
  lean.two_level_sampling = true;
  const Row seq = MeasureRow("seq", BackendKind::kSequential, lean, g.requests);
  PrintRow(seq);
  RecordRow(json, seq);

  SimBackendConfig sharded_cfg = lean;
  sharded_cfg.shards = kShards;
  const Row sharded =
      MeasureRow("sharded", BackendKind::kSharded, sharded_cfg, g.requests);
  PrintRow(sharded);
  RecordRow(json, sharded);

  Row multi;
  std::snprintf(multi.name, sizeof(multi.name), "multiproc");
  if (multiproc_ok) {
    SimBackendConfig multi_cfg = lean;
    multi_cfg.shards = kShards;
    multi = MeasureRow("multiproc", BackendKind::kMultiproc, multi_cfg, g.requests);
  } else {
    std::printf("multiproc: skipped (shared-memory arena unavailable)\n");
  }
  PrintRow(multi);
  RecordRow(json, multi);

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
  }
  return failed;
}

}  // namespace
}  // namespace distcache

int main(int argc, char** argv) {
  distcache::BenchJson json(argc, argv, "memwall", {"gate"});
  return distcache::Run(json, json.flags().GetBool("gate", false));
}
