// Chaos sweep over the multiproc engine's fault classes (PR 10 tentpole
// proof): seeded fault plans (runtime/fault_plan.h) injected into real shard
// processes, swept over fault class x rate x seed, with three gates:
//
//   gate 1 (termination):  every run returns within a wall-clock deadline —
//                          no fault class may hang the supervisor or a
//                          survivor (the ISSUE's "no fault class may hang the
//                          run" criterion, measured, not assumed);
//   gate 2 (determinism):  every (seed, plan) run twice produces the same
//                          DeterministicStatsDigest — fault injection is
//                          keyed to request counts, not wall clock, so chaos
//                          runs are byte-reproducible;
//   gate 3 (degradation):  killing one of two shards without respawn loses
//                          exactly that shard's half of the quota
//                          (degraded_fraction == 0.5) and the survivors' hit
//                          ratio stays near the no-fault run — losses are
//                          proportional to lost quota, not amplified.
//
// Crash classes run under --respawn (the run must still complete its full
// quota); the degradation leg runs without it (the run must degrade, not
// abort). Hosts that cannot map the shm arena skip the sweep with a note —
// there is nothing to chaos-test without fork + arena. DISTCACHE_BENCH_SMOKE
// shrinks seeds and request counts for CI; emits BENCH_chaos.json under
// --json; --gate arms the three gates (exit 3 on failure, the repo's unified
// bench-gate exit code).
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "runtime/fault_plan.h"
#include "sim/multiproc_backend.h"
#include "sim/sim_backend.h"
#include "sim/stats_codec.h"

namespace distcache {
namespace {

constexpr uint32_t kShards = 2;

struct ChaosResult {
  bool ok = true;          // ran, both runs returned
  bool deterministic = true;
  double wall_ms = 0.0;    // slower of the two runs
  BackendStats stats;
};

SimBackendConfig ChaosConfig(uint64_t requests, uint64_t seed) {
  SimBackendConfig bcfg;
  bcfg.cluster.num_spine = 8;
  bcfg.cluster.num_racks = 8;
  bcfg.cluster.servers_per_rack = 4;
  bcfg.cluster.per_switch_objects = 50;
  bcfg.cluster.num_keys = 1'000'000;
  bcfg.cluster.zipf_theta = 0.99;
  bcfg.cluster.write_ratio = 0.2;
  bcfg.cluster.seed = seed;
  bcfg.shards = kShards;
  bcfg.batch_size = 64;
  // A hotspot shift plus realloc rendezvous in every run, so control-plane
  // faults (a delay, a shard dying before the report gather) have a control
  // plane to hit.
  bcfg.events = {ClusterEvent::ShiftHotspot(requests * 9 / 20, 12'345),
                 ClusterEvent::ReallocateCache(requests * 3 / 5)};
  return bcfg;
}

double RunOnce(const SimBackendConfig& bcfg, uint64_t requests,
               BackendStats* out) {
  const auto t0 = std::chrono::steady_clock::now();
  *out = MakeSimBackend(BackendKind::kMultiproc, bcfg)->Run(requests);
  const auto t1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::milli>(t1 - t0).count();
}

// One chaos cell: a seeded random plan of `rate` events of one class,
// executed twice for the determinism gate.
ChaosResult RunCell(uint64_t requests, uint64_t seed, const std::string& spec,
                    bool respawn) {
  ChaosResult r;
  SimBackendConfig bcfg = ChaosConfig(requests, seed);
  bcfg.respawn_limit = respawn ? 3 : 0;
  std::string error;
  if (!ParseFaultPlan(spec, kShards, requests, seed, &bcfg.fault_plan,
                      &error)) {
    std::fprintf(stderr, "bad fault spec %s: %s\n", spec.c_str(),
                 error.c_str());
    r.ok = false;
    return r;
  }
  BackendStats again;
  const double w1 = RunOnce(bcfg, requests, &r.stats);
  const double w2 = RunOnce(bcfg, requests, &again);
  r.wall_ms = w1 > w2 ? w1 : w2;
  r.deterministic =
      DeterministicStatsDigest(r.stats) == DeterministicStatsDigest(again);
  return r;
}

int Run(BenchJson& json, bool gate, uint64_t seed_base) {
  if (!MultiprocBackend::Supported()) {
    std::printf("bench_chaos: multiproc backend unavailable on this host "
                "(no fork/shm arena) — nothing to chaos-test, skipping\n");
    return 0;
  }

  const bool smoke = BenchSmoke();
  const uint64_t requests = smoke ? 100'000 : 400'000;
  // --seed-base shifts the whole seed set: the CI chaos-soak matrix fans a
  // smoke-sized run out over 10 bases, covering the full 10-seed sweep
  // without any single job paying for it.
  std::vector<uint64_t> seeds =
      SmokeSweep<uint64_t>({42, 43}, {42, 43, 44, 45, 46, 47, 48, 49, 50, 51});
  for (uint64_t& s : seeds) {
    s += seed_base;
  }
  const std::vector<uint32_t> rates = SmokeSweep<uint32_t>({1}, {1, 3});
  const double deadline_ms = smoke ? 30'000.0 : 120'000.0;

  // Crash classes need respawn to complete the quota; the rest run degraded
  // or unharmed without it.
  struct ClassSpec {
    const char* name;
    bool respawn;
  };
  const ClassSpec classes[] = {
      {"exit", true},  {"kill", true},  {"abort", true},  {"stall", false},
      {"drop", false}, {"delay", false}, {"corrupt", false},
  };

  PrintHeader("chaos sweep: fault classes x rates x seeds",
              "multiproc x" + std::to_string(kShards) + ", " +
                  std::to_string(requests) + " requests, " +
                  std::to_string(seeds.size()) + " seeds, every cell run "
                  "twice for the determinism gate");
  json.Config("shards", static_cast<double>(kShards));
  json.Config("requests", static_cast<double>(requests));
  json.Config("seeds", static_cast<double>(seeds.size()));
  json.Config("seed_base", static_cast<double>(seed_base));
  json.Config("smoke", smoke ? "yes" : "no");

  bool all_terminated = true;
  bool all_deterministic = true;
  double slowest_ms = 0.0;
  std::printf("%-8s %-5s %10s %8s %9s %9s %9s %6s\n", "class", "rate",
              "hit-ratio", "failed", "respawned", "degraded", "wall-ms",
              "det");
  for (const ClassSpec& cls : classes) {
    for (const uint32_t rate : rates) {
      double hit_sum = 0.0, degraded_sum = 0.0, wall_max = 0.0;
      uint64_t failed = 0, respawned = 0;
      bool det = true;
      for (const uint64_t seed : seeds) {
        const std::string spec =
            "random:" + std::to_string(rate) + ":" + cls.name;
        const ChaosResult r = RunCell(requests, seed, spec, cls.respawn);
        all_terminated = all_terminated && r.ok && r.wall_ms < deadline_ms;
        det = det && r.deterministic;
        hit_sum += r.stats.hit_ratio();
        degraded_sum += r.stats.degraded_fraction;
        failed += r.stats.failed_shards;
        respawned += r.stats.respawned_shards;
        wall_max = wall_max > r.wall_ms ? wall_max : r.wall_ms;
      }
      all_deterministic = all_deterministic && det;
      slowest_ms = slowest_ms > wall_max ? slowest_ms : wall_max;
      const double n = static_cast<double>(seeds.size());
      std::printf("%-8s %-5u %10.4f %8.1f %9.1f %9.4f %9.0f %6s\n", cls.name,
                  rate, hit_sum / n, static_cast<double>(failed) / n,
                  static_cast<double>(respawned) / n, degraded_sum / n,
                  wall_max, det ? "yes" : "NO");
      const std::string key = std::string(cls.name) + "_x" +
                              std::to_string(rate);
      json.Metric(key + "_hit_ratio", hit_sum / n);
      json.Metric(key + "_degraded", degraded_sum / n);
      json.Metric(key + "_wall_ms_max", wall_max);
      json.Metric(key + "_deterministic", det ? 1.0 : 0.0);
    }
  }

  // Arena-map failure: not part of the per-seed sweep (it fails before any
  // shard forks) but it must still fail *fast* and account for everything.
  BackendStats mapfail;
  {
    SimBackendConfig bcfg = ChaosConfig(requests, seeds[0]);
    std::string error;
    ParseFaultPlan("mapfail", kShards, requests, seeds[0], &bcfg.fault_plan,
                   &error);
    const double w = RunOnce(bcfg, requests, &mapfail);
    all_terminated = all_terminated && w < deadline_ms;
    std::printf("%-8s %-5s %10s %8u %9s %9.4f %9.0f %6s\n", "mapfail", "-",
                "-", static_cast<unsigned>(mapfail.failed_shards), "-",
                mapfail.degraded_fraction, w, "-");
  }
  const bool mapfail_ok =
      mapfail.failed_shards == kShards && mapfail.degraded_fraction == 1.0;

  // ---- degradation-proportionality leg ------------------------------------
  // Lose one of two shards (no respawn): exactly half the quota should be
  // charged to degraded_fraction and the survivors' hit ratio should track
  // the no-fault run — the loss is proportional, not amplified.
  double worst_hit_gap = 0.0;
  bool degrade_exact = true;
  for (const uint64_t seed : seeds) {
    SimBackendConfig clean_cfg = ChaosConfig(requests, seed);
    BackendStats clean;
    RunOnce(clean_cfg, requests, &clean);

    SimBackendConfig loss_cfg = ChaosConfig(requests, seed);
    std::string error;
    ParseFaultPlan("kill:1@" + std::to_string(requests / 8), kShards, requests,
                   seed, &loss_cfg.fault_plan, &error);
    BackendStats lost;
    const double w = RunOnce(loss_cfg, requests, &lost);
    all_terminated = all_terminated && w < deadline_ms;

    degrade_exact = degrade_exact && lost.failed_shards == 1 &&
                    lost.degraded_fraction == 0.5 &&
                    lost.requests == requests / 2;
    const double gap = std::fabs(lost.hit_ratio() - clean.hit_ratio());
    worst_hit_gap = worst_hit_gap > gap ? worst_hit_gap : gap;
  }
  std::printf("\nsingle-shard loss: degraded_fraction exact %s, worst "
              "survivor hit-ratio gap vs clean %.4f\n",
              degrade_exact ? "yes" : "NO", worst_hit_gap);
  json.Metric("loss_degraded_exact", degrade_exact ? 1.0 : 0.0);
  json.Metric("loss_worst_hit_gap", worst_hit_gap);
  json.Metric("slowest_wall_ms", slowest_ms);

  // ---- gates ---------------------------------------------------------------
  if (gate) {
    bool ok = true;
    if (!all_terminated) {
      std::fprintf(stderr, "chaos gate FAILED: a run exceeded the %.0fs "
                           "wall deadline (or failed to parse its plan)\n",
                   deadline_ms / 1000.0);
      ok = false;
    }
    if (!all_deterministic) {
      std::fprintf(stderr, "chaos gate FAILED: same-seed runs were not "
                           "byte-identical on the deterministic subset\n");
      ok = false;
    }
    if (!mapfail_ok) {
      std::fprintf(stderr, "chaos gate FAILED: mapfail did not fail all "
                           "shards with degraded_fraction 1.0\n");
      ok = false;
    }
    if (!degrade_exact || worst_hit_gap > 0.05) {
      std::fprintf(stderr, "chaos gate FAILED: single-shard loss not "
                           "proportional (exact=%d, hit gap %.4f > 0.05)\n",
                   degrade_exact ? 1 : 0, worst_hit_gap);
      ok = false;
    }
    if (!ok) {
      return 3;  // unified bench-gate exit code
    }
    std::printf("chaos gate OK: %zu classes terminated, deterministic, "
                "degradation proportional\n",
                sizeof(classes) / sizeof(classes[0]));
  }
  return 0;
}

}  // namespace
}  // namespace distcache

int main(int argc, char** argv) {
  distcache::BenchJson json(argc, argv, "chaos", {"gate", "seed-base="});
  uint64_t seed_base = 0;
  if (std::string error;
      !json.flags().GetUintChecked("seed-base", 0, &seed_base, &error)) {
    std::fprintf(stderr, "%s\n", error.c_str());
    return 1;
  }
  return distcache::Run(json, json.flags().GetBool("gate", false), seed_base);
}
