// Cross-core engine-scaling harness: throughput of the simulator itself as
// worker shards are added, across hierarchy depths and workload shapes.
//
// This is the regression harness for the sharded engine's scaling substrate
// (lock-free SPSC transport, branch-free hot-path sink, batched request loop —
// see docs/ARCHITECTURE.md "hot-path rules"). The contract it guards:
//
//   * throughput is monotone (within measurement noise) from 1 to 4 shards —
//     the pre-substrate engine *lost* ~20% going 1 -> 4, because every added
//     shard added mutex traffic and owner-split branch mispredicts to the
//     per-request path;
//   * sharded x4 clears 2.5x the sequential reference on the L=2 Zipf-0.99
//     read-only workload (Fig. 9(c) shape).
//
// Sweep: substrate {seq, sharded threads, multiproc processes} x shards
// {1, 2, 4} x L {2, 3} x workload {uniform, zipf-0.99, phased hot-shift}. The
// sharded and multiproc rows run the *same* shard runtime — the column
// difference is purely the launcher (threads vs forked processes, with
// fork and copy-on-write overhead), which is exactly what the multiproc rows
// exist to measure. Every point is best-of-N wall time
// (the harness shares its host with noisy neighbours; best-of is the standard
// de-noising for throughput floors). Emits BENCH_scaling.json under --json.
//
// --pin-cores: pin each shard to a core (threads for sharded, whole processes
// for multiproc); recorded in the JSON config so pinned and unpinned artifacts
// are never compared as like-for-like.
//
// --gate: after the sweep, exit non-zero unless x4 >= 0.9 * x1 on L=2
// zipf-0.99 for *both* substrates (the exact regression this harness exists to
// catch — the 0.9 tolerance absorbs shared-host noise, while the historical
// in-process bug sat at 0.72 to 0.84). Hosts that cannot map the shared arena
// (exhausted /dev/shm, locked-down sandboxes) skip the multiproc rows and
// their gate leg with a note instead of failing — the in-process legs still
// gate. The perf-smoke CI job runs this in DISTCACHE_BENCH_SMOKE mode.
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "sim/multiproc_backend.h"
#include "sim/sim_backend.h"

namespace distcache {
namespace {

struct Workload {
  const char* name;
  double zipf_theta;
  bool phased;  // mid-run hot-spot shift + re-allocation (§6.4)
};

struct Point {
  std::string key;   // e.g. "L2_zipf099_x4"
  double mrps = 0.0;
  double hit_ratio = 0.0;
  uint64_t ring_messages = 0;
  uint64_t contended = 0;
  uint64_t uncontended = 0;
};

constexpr uint32_t kNodesPerLayer = 32;

SimBackendConfig MakeConfig(size_t layers, const Workload& w, uint64_t requests) {
  SimBackendConfig bcfg;
  bcfg.cluster = PaperDefaultConfig(Mechanism::kDistCache);
  bcfg.cluster.zipf_theta = w.zipf_theta;
  if (layers != 2) {
    bcfg.cluster.cache_layers.assign(
        layers, LayerSpec{kNodesPerLayer, bcfg.cluster.per_switch_objects});
  }
  if (w.phased) {
    bcfg.events.push_back(ClusterEvent::ShiftHotspot(requests / 3, 50'000'000));
    bcfg.events.push_back(ClusterEvent::ReallocateCache(requests / 2));
  }
  return bcfg;
}

// Best-of-N throughput for one engine point; stats (hit ratio, transport
// counters) come from the last run — they are trial-invariant up to scheduling
// noise.
Point Measure(const std::string& key, BackendKind kind, uint32_t shards,
              size_t layers, const Workload& w, uint64_t requests, int trials,
              bool pin_cores) {
  Point p;
  p.key = key;
  for (int t = 0; t < trials; ++t) {
    SimBackendConfig bcfg = MakeConfig(layers, w, requests);
    bcfg.shards = shards;
    bcfg.pin_cores = pin_cores;
    const BackendStats st = MakeSimBackend(kind, bcfg)->Run(requests);
    p.mrps = std::max(p.mrps, st.throughput_mrps());
    p.hit_ratio = st.hit_ratio();
    p.ring_messages = st.ring_messages;
    p.contended = st.contended_receives;
    p.uncontended = st.uncontended_receives;
  }
  return p;
}

// One shard-count sweep on one substrate; returns {x1 mrps, x4 mrps} for the
// gate when this is the L2 zipf099 cell.
struct Substrate {
  const char* name;      // row label and JSON key infix ("" for sharded: the
  BackendKind kind;      // pre-substrate keys stay stable across artifacts)
  const char* key_infix;
};

int Run(BenchJson& json, bool gate, bool pin_cores) {
  const uint64_t requests = BenchSmoke() ? 2'000'000 : 8'000'000;
  const int trials = 3;  // best-of-3 in both modes; smoke shrinks requests only
  const std::vector<uint32_t> shard_sweep{1, 2, 4};
  const std::vector<size_t> layer_sweep{2, 3};
  const std::vector<Workload> workloads{
      {"uniform", 0.0, false},
      {"zipf099", 0.99, false},
      {"phased", 0.99, true},
  };
  // Detect-and-skip (not fail): a host that cannot map the shared arena — an
  // exhausted /dev/shm-style shm budget, a locked-down sandbox, a non-Linux
  // build — still produces the full in-process artifact.
  const bool multiproc_ok = MultiprocBackend::Supported();
  std::vector<Substrate> substrates{{"sharded", BackendKind::kSharded, ""}};
  if (multiproc_ok) {
    substrates.push_back({"multiproc", BackendKind::kMultiproc, "multiproc_"});
  }

  PrintHeader("Engine scaling: simulator throughput vs worker shards",
              "paper-default cluster (32 nodes/layer), read-only; best-of-" +
                  std::to_string(trials) + " wall time per point; 'seq' = "
                  "sequential reference engine; 'multiproc' = one forked, "
                  "shared-memory shard process per shard");
  json.Config("requests", static_cast<double>(requests));
  json.Config("trials", static_cast<double>(trials));
  json.Config("nodes_per_layer", static_cast<double>(kNodesPerLayer));
  json.Config("pin_cores", pin_cores ? 1.0 : 0.0);
  json.Config("multiproc_supported", multiproc_ok ? 1.0 : 0.0);
  if (!multiproc_ok) {
    std::printf("\nmultiproc substrate: skipped (shared-memory arena "
                "unavailable on this host)\n");
  }

  struct GateLeg {
    double x1 = 0.0;
    double x4 = 0.0;
  };
  std::vector<GateLeg> gate_legs(substrates.size());
  double gate_seq = 0.0;
  for (const size_t layers : layer_sweep) {
    for (const Workload& w : workloads) {
      const std::string prefix = "L" + std::to_string(layers) + "_" + w.name;
      std::printf("\n%-22s %10s %10s %12s %14s %12s\n", prefix.c_str(), "Mreq/s",
                  "vs seq", "hit ratio", "ring msgs", "done polls");
      const Point seq = Measure(prefix + "_seq", BackendKind::kSequential, 1,
                                layers, w, requests, trials, pin_cores);
      json.Metric(seq.key + "_mrps", seq.mrps);
      std::printf("%-22s %10.2f %9.2fx %12.4f %14s %12s\n", "seq", seq.mrps, 1.0,
                  seq.hit_ratio, "-", "-");
      for (size_t s = 0; s < substrates.size(); ++s) {
        const Substrate& sub = substrates[s];
        std::vector<double> shard_series;
        for (const uint32_t shards : shard_sweep) {
          const Point p = Measure(
              prefix + "_" + sub.key_infix + "x" + std::to_string(shards),
              sub.kind, shards, layers, w, requests, trials, pin_cores);
          shard_series.push_back(p.mrps);
          json.Metric(p.key + "_mrps", p.mrps);
          json.Metric(p.key + "_hit_ratio", p.hit_ratio);
          std::printf("%-22s %10.2f %9.2fx %12.4f %14llu %12llu\n",
                      (std::string(sub.name) + " x" + std::to_string(shards))
                          .c_str(),
                      p.mrps, seq.mrps > 0 ? p.mrps / seq.mrps : 0.0,
                      p.hit_ratio,
                      static_cast<unsigned long long>(p.ring_messages),
                      static_cast<unsigned long long>(p.contended));
          if (layers == 2 && std::strcmp(w.name, "zipf099") == 0) {
            gate_seq = seq.mrps;
            if (shards == 1) {
              gate_legs[s].x1 = p.mrps;
            } else if (shards == 4) {
              gate_legs[s].x4 = p.mrps;
            }
          }
        }
        // "_sharded_mrps" / "_multiproc_mrps": the legacy sharded series key
        // is load-bearing for artifact diffing across PRs.
        json.Series(prefix + "_" + sub.name + "_mrps", shard_series);
      }
    }
  }

  int failed = 0;
  for (size_t s = 0; s < substrates.size(); ++s) {
    const Substrate& sub = substrates[s];
    const GateLeg& leg = gate_legs[s];
    std::printf("\nL2 zipf-0.99 %s summary: seq %.2f, x1 %.2f, x4 %.2f  "
                "(x4/x1 %.2f, x4/seq %.2f)\n",
                sub.name, gate_seq, leg.x1, leg.x4,
                leg.x1 > 0 ? leg.x4 / leg.x1 : 0.0,
                gate_seq > 0 ? leg.x4 / gate_seq : 0.0);
    json.Metric(std::string(sub.key_infix) + "gate_x4_over_x1",
                leg.x1 > 0 ? leg.x4 / leg.x1 : 0.0);
    json.Metric(std::string(sub.key_infix) + "gate_x4_over_seq",
                gate_seq > 0 ? leg.x4 / gate_seq : 0.0);
    if (gate) {
      if (leg.x4 < 0.9 * leg.x1) {
        std::fprintf(stderr,
                     "perf gate FAILED: %s x4 (%.2f Mreq/s) < 0.9 x %s x1 "
                     "(%.2f Mreq/s) — the engine is losing throughput as "
                     "shards are added again\n",
                     sub.name, leg.x4, sub.name, leg.x1);
        failed = 1;
      } else {
        std::printf("perf gate OK (%s): x4/x1 = %.2f (threshold 0.9)\n",
                    sub.name, leg.x4 / leg.x1);
      }
    }
  }
  return failed;
}

}  // namespace
}  // namespace distcache

int main(int argc, char** argv) {
  distcache::BenchJson json(argc, argv, "scaling", {"gate", "pin-cores"});
  return distcache::Run(json, json.flags().GetBool("gate", false),
                        json.flags().GetBool("pin-cores", false));
}
