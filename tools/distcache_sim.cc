// distcache_sim — command-line driver for the cluster simulator.
//
// Examples:
//   distcache_sim --mechanism=distcache --racks=32 --servers-per-rack=32
//                 --zipf=0.99 --cache-per-switch=100   (one command line)
//   distcache_sim --mechanism=nocache --zipf=0.9 --write-ratio=0.2
//   distcache_sim --mechanism=distcache --latency --load=0.5
//   distcache_sim --mechanism=distcache --fail-spines=4 --offered=512
//   distcache_sim --backend=sharded --shards=4 --requests=2000000
//   distcache_sim --backend=multiproc --shards=4 --pin-cores --requests=2000000
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "cluster/cluster_sim.h"
#include "cluster/latency.h"
#include "runtime/fault_plan.h"
#include "sim/sim_backend.h"
#include "tools/flags.h"

namespace distcache {
namespace {

// Printable name for a BackendStats::FaultRecord kind: injected FaultKinds
// (< 16) keep their plan spelling; supervisor observations get their own.
const char* FaultRecordName(uint32_t kind) {
  if (kind < 16) {
    return FaultKindName(static_cast<FaultKind>(kind));
  }
  switch (kind) {
    case BackendStats::FaultRecord::kShardDeath: return "death";
    case BackendStats::FaultRecord::kShardRespawn: return "respawn";
    case BackendStats::FaultRecord::kShardDeclaredDead: return "declared-dead";
    case BackendStats::FaultRecord::kHeartbeatWarn: return "hb-warn";
    case BackendStats::FaultRecord::kControllerFailover: return "failover";
    case BackendStats::FaultRecord::kStatsCrcMismatch: return "crc-mismatch";
    case BackendStats::FaultRecord::kArenaMapFailed: return "map-fail";
    default: return "?";
  }
}

Mechanism ParseMechanism(const std::string& name) {
  if (name == "nocache") {
    return Mechanism::kNoCache;
  }
  if (name == "partition") {
    return Mechanism::kCachePartition;
  }
  if (name == "replication") {
    return Mechanism::kCacheReplication;
  }
  return Mechanism::kDistCache;
}

int Run(int argc, char** argv) {
  const Flags flags(argc, argv);
  // Every flag distcache_sim reads: a typo (--shard=4) or a retired flag must
  // fail loudly instead of running without it.
  if (const std::string unknown = flags.FirstUnknown(
          {"arrival-rate", "backend", "batch", "burst", "cache-per-switch",
           "cache-policy", "deadline-sec", "epoch", "fail-at", "fail-spines",
           "fault-plan", "fault-seed", "heartbeat-dead-ms", "heartbeat-warn-ms",
           "help", "hierarchy", "hop-cost", "huge-pages", "keys", "latency",
           "layer-cache", "layer-sizes", "layers", "load", "mechanism",
           "numa-interleave", "offered", "phases", "pin-cores", "racks",
           "realloc-at", "recover-at", "remap-at", "requests", "respawn",
           "respawn-limit", "routing", "sample", "seed", "server-rate",
           "servers-per-rack", "service-rates", "shards", "shift-at",
           "shift-by", "spines", "stale-telemetry", "two-level", "uncapped",
           "write-policy", "write-ratio", "zipf"});
      !unknown.empty()) {
    std::fprintf(stderr, "error: unknown flag --%s\n", unknown.c_str());
    return 1;
  }
  if (flags.Has("help")) {
    std::printf(
        "usage: distcache_sim [--mechanism=distcache|replication|partition|nocache]\n"
        "  [--spines=N] [--racks=N] [--servers-per-rack=N] [--cache-per-switch=N]\n"
        "  [--keys=N] [--zipf=T] [--write-ratio=W] [--seed=S]\n"
        "  [--routing=pot|random|first] [--stale-telemetry] [--uncapped]\n"
        "  [--latency --load=F] [--fail-spines=K --offered=R]\n"
        "  [--backend=sequential|sharded|multiproc|fluid --shards=N\n"
        "   --requests=N --batch=N --epoch=N]   (request-level engine run;\n"
        "   multiproc runs one forked, shared-memory shard process per shard;\n"
        "   --epoch is the shard runtime's telemetry epoch, not sequential's)\n"
        "  [--backend=sharded|multiproc --pin-cores]   (pin each shard to a\n"
        "   core: threads in-process, whole processes for multiproc)\n"
        "  [--backend=multiproc --huge-pages]   (try 2 MiB pages for the shared\n"
        "   arena; silently falls back when the hugepage pool is empty)\n"
        "  [--backend=multiproc --numa-interleave]   (interleave the shared\n"
        "   arena's pages across NUMA nodes; no-op on single-node hosts)\n"
        "  [--backend=multiproc --respawn [--respawn-limit=N]]   (respawn a\n"
        "   shard process that dies mid-run, up to N times per shard (default 3);\n"
        "   past the budget the shard is declared dead and the survivors finish\n"
        "   degraded — the summary reports respawns and the degraded fraction)\n"
        "  [--backend=multiproc --fault-plan=SPEC [--fault-seed=S]]   (seeded\n"
        "   fault injection, runtime/fault_plan.h: SPEC is comma-separated\n"
        "   events kind:shard@request[:param] with kinds exit|kill|abort|stall|\n"
        "   drop|delay|corrupt, plus 'mapfail' and 'random:count[:kind]' drawn\n"
        "   from --fault-seed (default --seed); an empty plan is bit-identical\n"
        "   to a fault-free run)\n"
        "  [--backend=multiproc --heartbeat-warn-ms=D --heartbeat-dead-ms=D]\n"
        "   (supervisor liveness ladder: a shard silent for warn-ms counts a\n"
        "   heartbeat miss, one silent for dead-ms is killed into the\n"
        "   respawn-or-degrade path; 0 disables a rung)\n"
        "  [--deadline-sec=N]   (wall-clock watchdog: the whole invocation is\n"
        "   killed with exit code 4 after N seconds; default off, armed in CI)\n"
        "   exit codes: 0 clean run, 1 usage/config error, 2 failed shard\n"
        "   processes (stats partial), 4 deadline exceeded (3 is reserved for\n"
        "   bench gate failures, e.g. bench_chaos --gate)\n"
        "  [--backend=... --two-level]   (O(hot) two-level workload sampler —\n"
        "   alias table over the hot head + closed-form capped-Zipf tail —\n"
        "   instead of the dense O(pool) inverse-CDF; different RNG stream, so\n"
        "   aggregates match statistically, not bit for bit)\n"
        "  [--backend=... --fail-spines=K [--fail-at=R] [--remap-at=R]\n"
        "   [--recover-at=R] [--sample=N]]   (failure timeline: fail spines 0..K-1\n"
        "   at request fail-at, controller recovery at remap-at, switches restored\n"
        "   at recover-at; --sample prints the per-interval time series)\n"
        "  [--backend=... --shift-at=R [--shift-by=K] [--realloc-at=R]]\n"
        "   (hot-spot shift: rotate the hot set by K keys (default keys/2) at\n"
        "   request shift-at; the controller re-allocates the cache from observed\n"
        "   heavy-hitter counts at realloc-at)\n"
        "  [--backend=... --phases=start:theta:write[:shift],...]\n"
        "   (workload phase timeline: switch skew / write ratio / hot rotation at\n"
        "   the given request timestamps)\n"
        "  [--backend=... --arrival-rate=R [--burst=factor:every:duration]\n"
        "   [--service-rates=a,b,...] [--server-rate=S] [--hop-cost=H]]\n"
        "   (open-loop virtual time: Poisson arrivals at absolute rate R, in\n"
        "   units of one storage server's service rate — compare against\n"
        "   racks*servers-per-rack; --burst multiplies the rate by `factor` for\n"
        "   `duration` time units every `every`. Each request queues FIFO at its\n"
        "   serving node — exponential service at the per-cache-layer\n"
        "   --service-rates (default: a rack's aggregate) or --server-rate\n"
        "   (default 1) — plus H per network hop, and the run summary gains the\n"
        "   measured latency distribution. Counters stay bit-identical to the\n"
        "   closed-loop run with the same seed)\n"
        "  [--cache-policy=distcache|static-topk|lru|lfu|fifo|segmented]\n"
        "  [--hierarchy=inclusive|exclusive] [--write-policy=write-through|write-back]\n"
        "   (per-node cache semantics, core/cache_policy.h: distcache is the\n"
        "   paper's static balanced allocation + PoT routing; static-topk keeps\n"
        "   the static contents but routes to the first alive candidate; the\n"
        "   dynamic policies run per-node admission/replacement in the request\n"
        "   engines and per-policy closed forms in the fluid engine. The\n"
        "   hierarchy and write knobs apply to dynamic policies only)\n"
        "  [--layers=L] [--layer-sizes=a,b,c] [--layer-cache=x,y,z]\n"
        "   (multi-layer hierarchical caching, §3.1: L cache layers, top first;\n"
        "   the last layer is the rack-bound leaf layer, so its size must equal\n"
        "   --racks (or sets it when --racks is not given). --layer-sizes\n"
        "   defaults every layer to --racks nodes; --layer-cache defaults every\n"
        "   layer to --cache-per-switch objects per node; a single value\n"
        "   broadcasts to all L layers)\n");
    return 0;
  }
  std::string error;
  // Wall-clock watchdog (--deadline-sec): a detached thread that _exits(4)
  // when the budget runs out — armed before any simulation work, so even a
  // wedged engine (the thing the fault tests exist to rule out) cannot hang
  // a CI job past its deadline.
  {
    uint64_t deadline_sec = 0;
    if (!flags.GetUintChecked("deadline-sec", 0, &deadline_sec, &error)) {
      std::fprintf(stderr, "%s\n", error.c_str());
      return 1;
    }
    if (deadline_sec != 0) {
      std::thread([deadline_sec] {
        std::this_thread::sleep_for(std::chrono::seconds(deadline_sec));
        std::fprintf(stderr, "error: --deadline-sec=%llu exceeded\n",
                     static_cast<unsigned long long>(deadline_sec));
        _exit(4);
      }).detach();
    }
  }
  ClusterConfig cfg;
  cfg.mechanism = ParseMechanism(flags.GetString("mechanism", "distcache"));
  // Validated knobs: a NaN/negative/garbled value would silently skew every
  // derived number (or wrap through strtoull), so refuse instead.
  const auto uint32_flag = [&](const char* name, uint32_t def,
                               uint32_t* out) -> bool {
    uint64_t value = 0;
    if (!flags.GetUintChecked(name, def, &value, &error)) {
      return false;
    }
    if (value == 0 || value > 0xffffffffULL) {
      error = "--" + std::string(name) + "=" + std::to_string(value) +
              ": want an integer in [1, 2^32)";
      return false;
    }
    *out = static_cast<uint32_t>(value);
    return true;
  };
  if (!uint32_flag("spines", 32, &cfg.num_spine) ||
      !uint32_flag("racks", 32, &cfg.num_racks) ||
      !uint32_flag("servers-per-rack", 32, &cfg.servers_per_rack) ||
      !uint32_flag("cache-per-switch", 100, &cfg.per_switch_objects) ||
      !flags.GetUintChecked("keys", 100'000'000, &cfg.num_keys, &error) ||
      !flags.GetUintChecked("seed", 42, &cfg.seed, &error) ||
      !flags.GetDoubleInRange("zipf", 0.99, 0.0, 1.0, &cfg.zipf_theta, &error) ||
      !flags.GetDoubleInRange("write-ratio", 0.0, 0.0, 1.0, &cfg.write_ratio,
                              &error)) {
    std::fprintf(stderr, "%s\n", error.c_str());
    return 1;
  }
  // Multi-layer hierarchy (§3.1): --layers/--layer-sizes/--layer-cache build
  // cfg.cache_layers; absent, the cluster keeps the two-layer spine/leaf shape.
  if (flags.Has("layers") || flags.Has("layer-sizes") || flags.Has("layer-cache")) {
    uint64_t num_layers = 2;
    std::vector<uint64_t> sizes;
    std::vector<uint64_t> budgets;
    if (!flags.GetUintChecked("layers", 2, &num_layers, &error) ||
        !flags.GetUintList("layer-sizes", &sizes, &error) ||
        !flags.GetUintList("layer-cache", &budgets, &error)) {
      std::fprintf(stderr, "%s\n", error.c_str());
      return 1;
    }
    if (!flags.Has("layers")) {
      num_layers = sizes.empty() ? 2 : sizes.size();
    }
    if (num_layers < 2 || num_layers > kMaxCacheLayers) {
      std::fprintf(stderr, "--layers=%llu: want between 2 and %zu cache layers\n",
                   static_cast<unsigned long long>(num_layers), kMaxCacheLayers);
      return 1;
    }
    if (sizes.empty()) {
      // Default shape: the top layer keeps --spines, everything below mirrors
      // the racks (the leaf layer is rack-bound; mid layers default to match).
      sizes.assign(num_layers, cfg.num_racks);
      sizes.front() = cfg.num_spine;
    }
    if (budgets.empty()) {
      budgets.assign(num_layers, cfg.per_switch_objects);
    } else if (budgets.size() == 1) {
      budgets.assign(num_layers, budgets[0]);  // single value broadcasts
    }
    if (sizes.size() != num_layers || budgets.size() != num_layers) {
      std::fprintf(stderr,
                   "--layer-sizes/--layer-cache must list one value per layer "
                   "(--layers=%llu, got %zu sizes, %zu budgets)\n",
                   static_cast<unsigned long long>(num_layers), sizes.size(),
                   budgets.size());
      return 1;
    }
    // The leaf layer is rack-bound: its size either matches --racks or defines
    // it; likewise the top layer vs --spines. Explicit conflicting flags are
    // rejected, never silently overridden.
    if (flags.Has("racks") && sizes.back() != cfg.num_racks) {
      std::fprintf(stderr,
                   "--layer-sizes: the last (leaf) layer has %llu nodes but "
                   "--racks=%u; the leaf layer is rack-bound\n",
                   static_cast<unsigned long long>(sizes.back()), cfg.num_racks);
      return 1;
    }
    if (flags.Has("spines") && sizes.front() != cfg.num_spine) {
      std::fprintf(stderr,
                   "--layer-sizes: the first (spine) layer has %llu nodes but "
                   "--spines=%u; drop one of the two flags\n",
                   static_cast<unsigned long long>(sizes.front()), cfg.num_spine);
      return 1;
    }
    cfg.num_racks = static_cast<uint32_t>(sizes.back());
    cfg.num_spine = static_cast<uint32_t>(sizes.front());
    for (size_t l = 0; l < num_layers; ++l) {
      if (sizes[l] > 0xffffffffULL || budgets[l] > 0xffffffffULL) {
        std::fprintf(stderr, "--layer-sizes/--layer-cache values must fit uint32\n");
        return 1;
      }
      cfg.cache_layers.push_back({static_cast<uint32_t>(sizes[l]),
                                  static_cast<uint32_t>(budgets[l])});
    }
    if (const std::string layer_error = ValidateCacheLayers(cfg); !layer_error.empty()) {
      std::fprintf(stderr, "%s\n", layer_error.c_str());
      return 1;
    }
  }
  cfg.stale_telemetry = flags.GetBool("stale-telemetry", false);
  cfg.cap_at_server_aggregate = !flags.GetBool("uncapped", false);
  const std::string routing = flags.GetString("routing", "pot");
  cfg.routing = routing == "random"  ? RoutingPolicy::kRandom
                : routing == "first" ? RoutingPolicy::kFirstChoice
                                     : RoutingPolicy::kPowerOfTwo;
  // Per-node cache semantics (core/cache_policy.h). Parse errors and invalid
  // combinations (e.g. --cache-policy=lru with --mechanism=nocache) are
  // rejected here with the same message the engine boundary would abort with.
  if (const std::string name = flags.GetString("cache-policy", "distcache");
      !ParseCachePolicy(name, &cfg.cache_policy)) {
    std::fprintf(stderr,
                 "unknown --cache-policy=%s (want distcache|static-topk|lru|"
                 "lfu|fifo|segmented)\n", name.c_str());
    return 1;
  }
  if (const std::string name = flags.GetString("hierarchy", "inclusive");
      !ParseHierarchyMode(name, &cfg.cache_hierarchy)) {
    std::fprintf(stderr, "unknown --hierarchy=%s (want inclusive|exclusive)\n",
                 name.c_str());
    return 1;
  }
  if (const std::string name = flags.GetString("write-policy", "write-through");
      !ParseWritePolicy(name, &cfg.write_policy)) {
    std::fprintf(stderr,
                 "unknown --write-policy=%s (want write-through|write-back)\n",
                 name.c_str());
    return 1;
  }
  if (const std::string policy_error =
          ValidateCachePolicy(cfg.cache_policy, cfg.cache_hierarchy,
                              cfg.write_policy, cfg.mechanism);
      !policy_error.empty()) {
    std::fprintf(stderr, "%s\n", policy_error.c_str());
    return 1;
  }

  std::printf("mechanism=%s  %u spines, %u racks x %u servers, cache %u/switch, %s, "
              "write ratio %.2f\n",
              MechanismName(cfg.mechanism).c_str(), cfg.num_spine, cfg.num_racks,
              cfg.servers_per_rack, cfg.per_switch_objects,
              cfg.zipf_theta > 0 ? ("zipf-" + std::to_string(cfg.zipf_theta)).c_str()
                                 : "uniform",
              cfg.write_ratio);
  if (cfg.cache_policy != CachePolicyKind::kDistCache) {
    std::printf("cache policy: %s", CachePolicyName(cfg.cache_policy));
    if (PolicyIsDynamic(cfg.cache_policy)) {
      std::printf("  (%s, %s)", HierarchyModeName(cfg.cache_hierarchy),
                  WritePolicyName(cfg.write_policy));
    }
    std::printf("\n");
  }
  if (!cfg.cache_layers.empty()) {
    std::printf("hierarchy:");
    for (size_t l = 0; l < cfg.cache_layers.size(); ++l) {
      std::printf(" L%zu=%ux%u", l, cfg.cache_layers[l].nodes,
                  cfg.cache_layers[l].cache_objects);
    }
    std::printf("  (nodes x objects/node, top->leaf)\n");
  }

  if (flags.Has("backend")) {
    // Request-level engine run through the pluggable SimBackend interface.
    const std::string backend_name = flags.GetString("backend", "sequential");
    if (backend_name != "sequential" && backend_name != "sharded" &&
        backend_name != "multiproc" && backend_name != "fluid") {
      std::fprintf(stderr,
                   "unknown --backend=%s (want sequential|sharded|multiproc|"
                   "fluid)\n",
                   backend_name.c_str());
      return 1;
    }
    // The remaining fluid-model-only modes and ablations are not implemented by
    // the request-level engines; refuse rather than silently ignore them.
    for (const char* incompatible : {"latency", "stale-telemetry", "uncapped"}) {
      if (flags.Has(incompatible)) {
        std::fprintf(stderr, "--%s is a fluid-model mode; it cannot be combined "
                             "with --backend\n", incompatible);
        return 1;
      }
    }
    SimBackendConfig bcfg;
    bcfg.cluster = cfg;
    uint64_t requests = 0;
    if (!uint32_flag("shards", 1, &bcfg.shards) ||
        // Flag default = the engine default, so a flag-less CLI run matches
        // library/bench runs bit for bit.
        !uint32_flag("batch", bcfg.batch_size, &bcfg.batch_size) ||
        !flags.GetUintChecked("epoch", 4096, &bcfg.epoch_requests, &error) ||
        !flags.GetUintChecked("requests", 2'000'000, &requests, &error) ||
        !flags.GetUintChecked("sample", 0, &bcfg.sample_interval, &error)) {
      std::fprintf(stderr, "%s\n", error.c_str());
      return 1;
    }
    bcfg.pin_cores = flags.GetBool("pin-cores", false);
    bcfg.huge_pages = flags.GetBool("huge-pages", false);
    bcfg.numa_interleave = flags.GetBool("numa-interleave", false);
    bcfg.respawn = flags.GetBool("respawn", false);
    bcfg.two_level_sampling = flags.GetBool("two-level", false);
    // Robustness knobs (multiproc only): respawn budget, heartbeat ladder,
    // injected fault plan.
    {
      uint64_t limit = bcfg.respawn_limit;
      if (!flags.GetUintChecked("respawn-limit", limit, &limit, &error) ||
          !flags.GetUintChecked("heartbeat-warn-ms", bcfg.heartbeat_warn_ms,
                                &bcfg.heartbeat_warn_ms, &error) ||
          !flags.GetUintChecked("heartbeat-dead-ms", bcfg.heartbeat_dead_ms,
                                &bcfg.heartbeat_dead_ms, &error)) {
        std::fprintf(stderr, "%s\n", error.c_str());
        return 1;
      }
      if (limit > 0xffffffffULL) {
        std::fprintf(stderr, "--respawn-limit must fit uint32\n");
        return 1;
      }
      bcfg.respawn_limit = static_cast<uint32_t>(limit);
    }
    if (flags.Has("fault-plan")) {
      if (backend_name != "multiproc") {
        std::fprintf(stderr, "--fault-plan needs --backend=multiproc\n");
        return 1;
      }
      uint64_t fault_seed = cfg.seed;
      if (!flags.GetUintChecked("fault-seed", cfg.seed, &fault_seed, &error) ||
          !ParseFaultPlan(flags.GetString("fault-plan", ""), bcfg.shards,
                          requests, fault_seed, &bcfg.fault_plan, &error)) {
        std::fprintf(stderr, "%s\n", error.c_str());
        return 1;
      }
      std::printf("fault plan: %s\n",
                  FaultPlanToString(bcfg.fault_plan).c_str());
    }
    if (bcfg.pin_cores && backend_name != "sharded" &&
        backend_name != "multiproc") {
      std::fprintf(stderr, "--pin-cores needs --backend=sharded|multiproc\n");
      return 1;
    }
    if (bcfg.huge_pages && backend_name != "multiproc") {
      std::fprintf(stderr, "--huge-pages needs --backend=multiproc\n");
      return 1;
    }
    if (bcfg.numa_interleave && backend_name != "multiproc") {
      std::fprintf(stderr, "--numa-interleave needs --backend=multiproc\n");
      return 1;
    }
    if (bcfg.respawn && backend_name != "multiproc") {
      std::fprintf(stderr, "--respawn needs --backend=multiproc\n");
      return 1;
    }
    // Open-loop virtual time (sim/sim_backend.h QueueModelConfig): Poisson
    // arrivals, per-node FIFO queueing, per-layer service rates, hop costs.
    if (!flags.GetDoubleInRange("arrival-rate", 0.0, 0.0, 1e15,
                                &bcfg.queue.arrival.rate, &error) ||
        !flags.GetDoubleInRange("hop-cost", bcfg.queue.hop_cost, 0.0, 1e6,
                                &bcfg.queue.hop_cost, &error) ||
        !flags.GetDoubleInRange("server-rate", bcfg.queue.server_service_rate,
                                1e-9, 1e15, &bcfg.queue.server_service_rate,
                                &error) ||
        !flags.GetDoubleList("service-rates", &bcfg.queue.service_rates,
                             &error)) {
      std::fprintf(stderr, "%s\n", error.c_str());
      return 1;
    }
    if (flags.Has("burst") &&
        !ParseBurstSpec(flags.GetString("burst", ""), &bcfg.queue.arrival,
                        &error)) {
      std::fprintf(stderr, "%s\n", error.c_str());
      return 1;
    }
    if (!bcfg.queue.enabled()) {
      // The queue knobs modulate the arrival process; without one they would
      // silently do nothing, so refuse instead.
      for (const char* needs_rate : {"burst", "service-rates", "server-rate",
                                     "hop-cost"}) {
        if (flags.Has(needs_rate)) {
          std::fprintf(stderr,
                       "--%s needs an open-loop arrival process; add "
                       "--arrival-rate=R\n", needs_rate);
          return 1;
        }
      }
    }
    // Timeline timestamps: anything at or beyond --requests would silently never
    // fire; reject it so a typo'd timeline fails loudly.
    const auto timeline_at = [&](const char* name, uint64_t def,
                                 uint64_t* out) -> bool {
      if (!flags.GetUintChecked(name, def, out, &error)) {
        return false;
      }
      if (*out >= requests) {
        error = "--" + std::string(name) + "=" + std::to_string(*out) +
                ": timeline timestamps must be below --requests (" +
                std::to_string(requests) + ")";
        return false;
      }
      return true;
    };
    if (flags.Has("fail-spines")) {
      // Failure timeline (§4.4 / Fig. 11): spines 0..K-1 fail at --fail-at, the
      // controller remaps their partitions at --remap-at, and the switches come
      // back (partitions return home) at --recover-at.
      uint64_t fail_spines = 0;
      if (!flags.GetUintChecked("fail-spines", 1, &fail_spines, &error)) {
        std::fprintf(stderr, "%s\n", error.c_str());
        return 1;
      }
      // More than num_spine is meaningless; clamping keeps the count in uint32
      // without silently truncating huge values to small ones.
      const auto k = static_cast<uint32_t>(
          std::min<uint64_t>(fail_spines, cfg.num_spine));
      uint64_t fail_at = 0;
      uint64_t remap_at = 0;
      uint64_t recover_at = 0;
      if (!timeline_at("fail-at", requests / 5, &fail_at) ||
          !timeline_at("remap-at", requests / 2, &remap_at) ||
          !timeline_at("recover-at", requests * 3 / 4, &recover_at)) {
        std::fprintf(stderr, "%s\n", error.c_str());
        return 1;
      }
      for (uint32_t s = 0; s < k && s < cfg.num_spine; ++s) {
        bcfg.events.push_back(ClusterEvent::FailSpine(fail_at, s));
        bcfg.events.push_back(ClusterEvent::RecoverSpine(recover_at, s));
      }
      bcfg.events.push_back(ClusterEvent::RunRecovery(remap_at));
    }
    // Hot-spot shift timeline (§6.4): the hot set rotates by --shift-by keys at
    // --shift-at, and the controller re-allocates the cache from observed
    // heavy-hitter counts at --realloc-at. Each event appears only when its flag
    // does (a realloc-only run is a legitimate control experiment).
    uint64_t shift_at = 0;
    bool have_shift = false;
    if (flags.Has("shift-at") || flags.Has("shift-by")) {
      uint64_t shift_by = 0;
      if (!timeline_at("shift-at", requests / 4, &shift_at) ||
          !flags.GetUintChecked("shift-by", cfg.num_keys / 2, &shift_by, &error)) {
        std::fprintf(stderr, "%s\n", error.c_str());
        return 1;
      }
      bcfg.events.push_back(ClusterEvent::ShiftHotspot(shift_at, shift_by));
      have_shift = true;
    }
    if (flags.Has("realloc-at")) {
      uint64_t realloc_at = 0;
      if (!timeline_at("realloc-at", requests / 2, &realloc_at)) {
        std::fprintf(stderr, "%s\n", error.c_str());
        return 1;
      }
      if (have_shift && realloc_at <= shift_at) {
        std::fprintf(stderr, "--realloc-at=%llu must come after --shift-at=%llu\n",
                     static_cast<unsigned long long>(realloc_at),
                     static_cast<unsigned long long>(shift_at));
        return 1;
      }
      bcfg.events.push_back(ClusterEvent::ReallocateCache(realloc_at));
    }
    if (flags.Has("phases")) {
      if (!ParsePhaseList(flags.GetString("phases", ""), &bcfg.phases, &error)) {
        std::fprintf(stderr, "--phases: %s\n", error.c_str());
        return 1;
      }
      for (const WorkloadPhase& phase : bcfg.phases) {
        if (phase.start_request >= requests) {
          std::fprintf(stderr,
                       "--phases: phase start %llu must be below --requests (%llu)\n",
                       static_cast<unsigned long long>(phase.start_request),
                       static_cast<unsigned long long>(requests));
          return 1;
        }
      }
    }
    auto backend = MakeSimBackend(ParseBackendKind(backend_name), bcfg);
    const BackendStats stats = backend->Run(requests);
    std::printf(
        "backend=%s shards=%u: %llu requests in %.3fs (%.2f Mreq/s)\n"
        "  hit ratio %.4f (spine %llu, leaf %llu, server reads %llu)\n"
        "  cache imbalance (max/mean) %.3f  server imbalance %.3f\n"
        "  cross-shard messages %llu  dropped %llu\n",
        backend->name().c_str(), bcfg.shards,
        static_cast<unsigned long long>(stats.requests), stats.wall_seconds,
        stats.throughput_mrps(), stats.hit_ratio(),
        static_cast<unsigned long long>(stats.spine_hits),
        static_cast<unsigned long long>(stats.leaf_hits),
        static_cast<unsigned long long>(stats.server_reads),
        stats.CacheImbalance(), stats.ServerImbalance(),
        static_cast<unsigned long long>(stats.cross_shard_messages),
        static_cast<unsigned long long>(stats.dropped));
    // Memory footprint: peak RSS is the max across the driver and any shard
    // processes; route/sampler bytes are per-process state (multiproc keeps
    // route tables in the shared arena, counted once under `arena`).
    constexpr double kMiB = 1024.0 * 1024.0;
    std::printf("  memory: peak RSS %.1f MiB  route tables %.1f MiB  "
                "sampler %.1f MiB  arena %.1f MiB\n",
                stats.peak_rss_bytes / kMiB, stats.route_table_bytes / kMiB,
                stats.sampler_bytes / kMiB, stats.arena_bytes / kMiB);
    if (stats.respawned_shards > 0) {
      std::printf("  respawned %llu shard process(es) mid-run (--respawn)\n",
                  static_cast<unsigned long long>(stats.respawned_shards));
    }
    if (stats.injected_faults > 0 || stats.heartbeat_misses > 0 ||
        stats.controller_failovers > 0 || stats.degraded_fraction > 0.0 ||
        !stats.fault_events.empty()) {
      std::printf(
          "  faults: injected %llu  heartbeat misses %llu  controller "
          "failovers %llu  degraded fraction %.4f\n",
          static_cast<unsigned long long>(stats.injected_faults),
          static_cast<unsigned long long>(stats.heartbeat_misses),
          static_cast<unsigned long long>(stats.controller_failovers),
          stats.degraded_fraction);
      std::printf("  fault timeline:");
      for (const BackendStats::FaultRecord& rec : stats.fault_events) {
        if (rec.kind < 16) {  // injected: the plan timestamp is meaningful
          std::printf(" %s:%u@%llu", FaultRecordName(rec.kind), rec.shard,
                      static_cast<unsigned long long>(rec.at));
        } else {  // supervisor/failover observation, wall-clock ordered
          std::printf(" %s:%u", FaultRecordName(rec.kind), rec.shard);
        }
      }
      std::printf("\n");
    }
    if (!stats.latency.empty()) {
      std::printf(
          "  latency (virtual time units): mean %.3f  p50 %.3f  p95 %.3f  "
          "p99 %.3f  p99.9 %.3f  overloaded %.4f\n",
          stats.latency.mean(), stats.latency.Percentile(50.0),
          stats.latency.Percentile(95.0), stats.latency.Percentile(99.0),
          stats.latency.Percentile(99.9), stats.latency.infinite_fraction());
    }
    if (!stats.series.empty()) {
      std::printf("  %-10s %10s %10s %10s\n", "interval", "delivered", "dropped",
                  "hit-ratio");
      for (size_t i = 0; i < stats.series.size(); ++i) {
        const auto& pt = stats.series[i];
        std::printf("  %-10zu %9.1f%% %10llu %10.4f\n", i,
                    100.0 * pt.delivered_fraction(),
                    static_cast<unsigned long long>(pt.dropped), pt.hit_ratio());
      }
    }
    if (stats.failed_shards > 0) {
      // Partial picture: the summary above covers the surviving shards only.
      // Exit 2 distinguishes "shards lost, run degraded" from usage errors
      // (1), bench gate failures (3) and deadline kills (4) — see --help.
      std::fprintf(stderr,
                   "error: %llu of %u shard processes died; stats above are "
                   "partial\n",
                   static_cast<unsigned long long>(stats.failed_shards),
                   bcfg.shards);
      return 2;
    }
    return 0;
  }

  ClusterSim sim(cfg);
  if (flags.Has("fail-spines")) {
    uint64_t fail_spines = 0;
    double offered = 0.0;
    if (!flags.GetUintChecked("fail-spines", 1, &fail_spines, &error) ||
        !flags.GetDoubleInRange("offered", 0.5 * sim.TotalServerCapacity(), 0.0,
                                1e15, &offered, &error)) {
      std::fprintf(stderr, "%s\n", error.c_str());
      return 1;
    }
    const auto k = static_cast<uint32_t>(
        std::min<uint64_t>(fail_spines, cfg.num_spine));
    std::printf("offered rate %.0f\n", offered);
    std::printf("healthy            : %8.0f\n", sim.AchievedThroughput(offered));
    for (uint32_t s = 0; s < k && s < cfg.num_spine; ++s) {
      sim.FailSpine(s);
    }
    std::printf("%u spines failed   : %8.0f\n", k, sim.AchievedThroughput(offered));
    sim.RunFailureRecovery();
    std::printf("after recovery     : %8.0f\n", sim.AchievedThroughput(offered));
    return 0;
  }

  if (flags.Has("latency")) {
    double load = 0.0;
    if (!flags.GetDoubleInRange("load", 0.5, 0.0, 1.0, &load, &error)) {
      std::fprintf(stderr, "%s\n", error.c_str());
      return 1;
    }
    const LatencyReport report =
        ComputeLatencyReport(sim, load * sim.TotalServerCapacity());
    std::printf("latency @ %.0f%% load: mean=%.2f p50=%.2f p95=%.2f p99=%.2f "
                "(hit fraction %.2f)\n",
                100 * load, report.mean, report.p50, report.p95, report.p99,
                report.hit_fraction);
    return 0;
  }

  const double throughput = sim.SaturationThroughput();
  std::printf("saturation throughput: %.0f (x one storage server; aggregate %.0f)\n",
              throughput, sim.TotalServerCapacity());
  return 0;
}

}  // namespace
}  // namespace distcache

int main(int argc, char** argv) { return distcache::Run(argc, argv); }
