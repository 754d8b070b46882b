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
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "cluster/cluster_sim.h"
#include "cluster/latency.h"
#include "runtime/fault_plan.h"
#include "sim/multiproc_backend.h"
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
    case BackendStats::FaultRecord::kStatsCrcMismatch: return "crc-mismatch";
    case BackendStats::FaultRecord::kArenaMapFailed: return "map-fail";
    default: return "?";
  }
}

// The parser of a flag's spelling table: false (output untouched) for a name
// that is not one of the spellings.
template <typename T, size_t N>
auto Spellings(const std::pair<const char*, T> (&table)[N]) {
  return [&table](const std::string& name, T* out) {
    for (const auto& [spelling, value] : table) {
      if (name == spelling) {
        *out = value;
        return true;
      }
    }
    return false;
  };
}

constexpr std::pair<const char*, Mechanism> kMechanisms[] = {
    {"distcache", Mechanism::kDistCache},
    {"replication", Mechanism::kCacheReplication},
    {"partition", Mechanism::kCachePartition},
    {"nocache", Mechanism::kNoCache}};

constexpr std::pair<const char*, RoutingPolicy> kRoutings[] = {
    {"pot", RoutingPolicy::kPowerOfTwo},
    {"random", RoutingPolicy::kRandom},
    {"first", RoutingPolicy::kFirstChoice}};

constexpr std::pair<const char*, BackendKind> kBackends[] = {
    {"sequential", BackendKind::kSequential},
    {"sharded", BackendKind::kSharded},
    {"multiproc", BackendKind::kMultiproc},
    {"fluid", BackendKind::kFluid}};

// A run's mode: the --backend engine (bit 1 << BackendKind) or, without
// --backend, one fluid-model figure.
constexpr uint8_t ModeOf(BackendKind kind) {
  return static_cast<uint8_t>(1u << static_cast<unsigned>(kind));
}
static_assert(static_cast<unsigned>(BackendKind::kMultiproc) < 4);
constexpr uint8_t kSequentialRun = ModeOf(BackendKind::kSequential);
constexpr uint8_t kShardedRun = ModeOf(BackendKind::kSharded);
constexpr uint8_t kMultiprocRun = ModeOf(BackendKind::kMultiproc);
constexpr uint8_t kFluidRun = ModeOf(BackendKind::kFluid);
constexpr uint8_t kSaturationRun = 16;
constexpr uint8_t kLatencyRun = 32;
constexpr uint8_t kFailureRun = 64;
constexpr uint8_t kRequestEngine = kSequentialRun | kShardedRun | kMultiprocRun;
constexpr uint8_t kAnyBackend = kRequestEngine | kFluidRun;
constexpr uint8_t kShardRuntime = kShardedRun | kMultiprocRun;
constexpr uint8_t kFigureRun = kSaturationRun | kLatencyRun | kFailureRun;
constexpr uint8_t kAnyRun = kAnyBackend | kFigureRun;

// Without --backend a run is one fluid-model figure: failure (--fail-spines,
// which wins over --latency), latency (--latency) or saturation (neither).
constexpr std::pair<const char*, uint8_t> kFigures[] = {
    {"saturation", kSaturationRun}, {"latency", kLatencyRun}, {"failure", kFailureRun}};

// The flag that selects a figure in `modes`; nullptr for saturation.
const char* Selector(uint8_t modes) {
  return (modes & kFailureRun) != 0   ? "fail-spines"
         : (modes & kLatencyRun) != 0 ? "latency"
                                      : nullptr;
}

// Every flag distcache_sim reads: the modes that read it, its --help line and
// the flag it is read next to, if any. A flag missing from the table (a typo,
// a retired flag) or one the run's mode does not read is refused instead of
// silently dropped. A flag that takes a value has help starting "=" (a choice
// flag spells its values "=a|b|c"); any other is boolean.
struct FlagRow {
  const char* name;
  uint8_t modes;
  const char* help;
  const char* next_to = nullptr;
};
constexpr FlagRow kFlagTable[] = {
    {"help", kAnyRun, "  print this list"},
    {"backend", kAnyRun, "=sequential|sharded|multiproc|fluid  request-level engine"},
    {"mechanism", kAnyRun, "=distcache|replication|partition|nocache"},
    {"spines", kAnyRun, "=N  spine switches (the top cache layer), default 32"},
    {"racks", kAnyRun, "=N  storage racks (the leaf cache layer), default 32"},
    {"servers-per-rack", kAnyRun, "=N  default 32"},
    {"cache-per-switch", kAnyRun, "=N  objects cached per switch, default 100"},
    {"keys", kAnyRun, "=N  key space, default 100000000"},
    {"zipf", kAnyRun, "=T  Zipf skew in [0, 1] (0: uniform), default 0.99"},
    {"write-ratio", kAnyRun, "=W  fraction of writes, default 0"},
    {"seed", kAnyRun, "=S  default 42"},
    {"routing", kAnyRun, "=pot|random|first  query routing over the cached copies"},
    {"cache-policy", kAnyRun, "=distcache|static-topk|lru|lfu|fifo|segmented"},
    {"hierarchy", kAnyRun, "=inclusive|exclusive  copies of a dynamic policy"},
    {"write-policy", kAnyRun, "=write-through|write-back  writes of a dynamic policy"},
    {"layers", kAnyRun, "=L  cache layers, top first (§3.1), default 2"},
    {"layer-sizes", kAnyRun, "=a,b,c  nodes per layer; the last is --racks"},
    {"layer-cache", kAnyRun, "=x,y,z  objects per node per layer; one broadcasts"},
    {"deadline-sec", kAnyRun, "=N  exit 4 after N wall-clock seconds"},
    {"fail-spines", kAnyRun, "=K  fail spines 0..K-1 (alone: the failure figure)"},
    {"latency", kLatencyRun, "  the latency figure"},
    {"load", kLatencyRun, "=F  offered load as a fraction of capacity, default 0.5"},
    {"offered", kFailureRun, "=R  offered rate, default half the capacity"},
    {"stale-telemetry", kFigureRun, "  route on one-round-stale load telemetry"},
    {"uncapped", kSaturationRun, "  do not cap throughput at the servers' aggregate"},
    {"requests", kAnyBackend, "=N  requests to run, default 2000000"},
    {"sample", kAnyBackend, "=N  print one time-series point per N requests"},
    {"fail-at", kAnyBackend, "=R  request at which the spines fail", "fail-spines"},
    {"remap-at", kAnyBackend, "=R  controller remaps their partitions", "fail-spines"},
    {"recover-at", kAnyBackend, "=R  the spines come back", "fail-spines"},
    {"shift-at", kAnyBackend, "=R  rotate the hot set at request R"},
    {"shift-by", kAnyBackend, "=K  keys the hot set rotates by, default keys/2"},
    {"realloc-at", kAnyBackend, "=R  controller re-allocates the cache"},
    {"phases", kAnyBackend, "=start:theta:write[:shift],...  workload phases"},
    {"arrival-rate", kAnyBackend, "=R  open-loop Poisson arrivals, in server rates"},
    {"burst", kAnyBackend, "=F:E:D  rate x F for D time units every E", "arrival-rate"},
    {"service-rates", kAnyBackend, "=a,b,...  per-layer cache rates", "arrival-rate"},
    {"server-rate", kAnyBackend, "=S  server service rate, default 1", "arrival-rate"},
    {"hop-cost", kAnyBackend, "=H  cost per network hop, default 0.2", "arrival-rate"},
    {"two-level", kRequestEngine, "  O(hot) two-level workload sampler"},
    {"shards", kShardRuntime, "=N  shards (threads or processes), default 1"},
    {"batch", kShardRuntime, "=N  requests per batch, default 256"},
    {"epoch", kShardRuntime, "=N  requests per telemetry epoch, default 4096"},
    {"pin-cores", kShardRuntime, "  pin each shard to a core"},
    {"huge-pages", kMultiprocRun, "  2 MiB arena pages where the host has them"},
    {"respawn", kMultiprocRun, "  re-fork a shard process that dies mid-run"},
    {"respawn-limit", kMultiprocRun, "=N  respawns per shard, default 3", "respawn"},
    {"heartbeat-warn-ms", kMultiprocRun, "=D  silence that counts a miss (0: off)"},
    {"heartbeat-dead-ms", kMultiprocRun, "=D  silence that kills a shard (0: off)"},
    {"fault-plan", kMultiprocRun, "=kind:shard@request[:param],...  injected faults"},
    {"fault-seed", kMultiprocRun, "=S  seeds random: faults (--seed)", "fault-plan"},
};

const FlagRow* FindRow(std::string_view name) {
  const FlagRow* row = std::find_if(std::begin(kFlagTable), std::end(kFlagTable),
                                    [name](const FlagRow& r) { return name == r.name; });
  return row == std::end(kFlagTable) ? nullptr : row;
}

// The modes in `modes` as a run selects them: "--backend" (every engine),
// "--backend=a|b", or "figure: a|b" for fluid-model figures.
std::string ModeNames(uint8_t modes) {
  if ((modes & kAnyBackend) == kAnyBackend) {
    return "--backend";
  }
  std::string names;
  for (const auto& [name, kind] : kBackends) {
    if ((modes & ModeOf(kind)) != 0) {
      names.append("|").append(name);
    }
  }
  for (const auto& [name, figure] : kFigures) {
    if ((modes & figure) != 0) {
      names.append("|").append(name);
    }
  }
  return ((modes & kAnyBackend) != 0 ? "--backend=" : "figure: ") + names.substr(1);
}

void PrintHelp() {
  std::printf(
      "usage: distcache_sim [--flag=value ...]  (README.md has the details)\n"
      "  Without --backend: a fluid-model figure (saturation, latency, failure).\n"
      "  Exit codes: 0 ok, 1 usage or config error, 2 shard processes died, 4\n"
      "  --deadline-sec exceeded. [...]: the modes that read a flag, if not all.\n");
  for (const FlagRow& row : kFlagTable) {
    std::string where = row.modes == kAnyRun ? "" : ModeNames(row.modes);
    if (row.next_to != nullptr) {
      where.append(where.empty() ? "" : ", ").append("next to --").append(row.next_to);
    }
    std::printf("  --%s%s%s\n", row.name, row.help,
                where.empty() ? "" : ("  [" + where + "]").c_str());
  }
}

// The refusal of the first given flag that a `mode` run does not read, or "".
std::string RefuseUnread(const Flags& flags, uint8_t mode) {
  for (const FlagRow& row : kFlagTable) {
    if (!flags.Has(row.name)) {
      continue;
    }
    const std::string flag = "--" + std::string(row.name);
    if ((row.modes & mode) == 0) {
      if ((mode & kAnyBackend) != 0 && (row.modes & kAnyBackend) == 0) {
        return flag + " is a fluid-model option; it cannot be combined with --backend";
      }
      if ((row.modes & kFigureRun) == 0) {
        return flag + " needs " + ModeNames(row.modes);
      }
      if (const char* other = Selector(mode); other != nullptr) {
        return flag + " cannot be combined with --" + other;
      }
      return flag + " needs --" + Selector(row.modes);
    }
    if (row.next_to != nullptr && !flags.Has(row.next_to)) {
      return flag + " needs --" + row.next_to;
    }
  }
  return "";
}

// Reads choice flag `name` (default `def`) through `parse`. A value it does
// not parse is refused with the choices the flag's row spells as "=a|b|c".
template <typename T, typename Parse>
bool GetChoice(const Flags& flags, const char* name, const char* def, Parse parse,
               T* out, std::string* error) {
  const std::string value = flags.GetString(name, def);
  if (parse(value, out)) {
    return true;
  }
  const std::string_view help = FindRow(name)->help;
  *error = "unknown --" + std::string(name) + "=" + value + " (want " +
           std::string(help.substr(1, help.find(' ') - 1)) + ")";
  return false;
}

// Reads the cluster shape, the multi-layer hierarchy, the routing and the
// per-node cache semantics into *cfg.
std::string ParseCluster(const Flags& flags, ClusterConfig* cfg) {
  std::string error;
  if (!GetChoice(flags, "mechanism", "distcache", Spellings(kMechanisms),
                 &cfg->mechanism, &error) ||
      !flags.GetUint32("spines", 32, 1, &cfg->num_spine, &error) ||
      !flags.GetUint32("racks", 32, 1, &cfg->num_racks, &error) ||
      !flags.GetUint32("servers-per-rack", 32, 1, &cfg->servers_per_rack, &error) ||
      !flags.GetUint32("cache-per-switch", 100, 1, &cfg->per_switch_objects,
                       &error) ||
      !flags.GetUintChecked("keys", 100'000'000, &cfg->num_keys, &error) ||
      !flags.GetUintChecked("seed", 42, &cfg->seed, &error) ||
      !flags.GetDoubleInRange("zipf", 0.99, 0.0, 1.0, &cfg->zipf_theta, &error) ||
      !flags.GetDoubleInRange("write-ratio", 0.0, 0.0, 1.0, &cfg->write_ratio,
                              &error)) {
    return error;
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
      return error;
    }
    if (!flags.Has("layers")) {
      num_layers = sizes.empty() ? 2 : sizes.size();
    }
    if (num_layers < 2 || num_layers > kMaxCacheLayers) {
      return "--layers=" + std::to_string(num_layers) + ": want between 2 and " +
             std::to_string(kMaxCacheLayers) + " cache layers";
    }
    if (sizes.empty()) {
      // Default shape: the top layer keeps --spines, everything below mirrors
      // the racks (the leaf layer is rack-bound; mid layers default to match).
      sizes.assign(num_layers, cfg->num_racks);
      sizes.front() = cfg->num_spine;
    }
    if (budgets.empty()) {
      budgets.assign(num_layers, cfg->per_switch_objects);
    } else if (budgets.size() == 1) {
      budgets.assign(num_layers, budgets[0]);  // single value broadcasts
    }
    if (sizes.size() != num_layers || budgets.size() != num_layers) {
      return "--layer-sizes/--layer-cache must list one value per layer "
             "(--layers=" + std::to_string(num_layers) + ", got " +
             std::to_string(sizes.size()) + " sizes, " +
             std::to_string(budgets.size()) + " budgets)";
    }
    // The leaf layer is rack-bound: its size either matches --racks or defines
    // it; likewise the top layer vs --spines. Explicit conflicting flags are
    // rejected, never silently overridden.
    if (flags.Has("racks") && sizes.back() != cfg->num_racks) {
      return "--layer-sizes: the last (leaf) layer has " +
             std::to_string(sizes.back()) + " nodes but --racks=" +
             std::to_string(cfg->num_racks) + "; the leaf layer is rack-bound";
    }
    if (flags.Has("spines") && sizes.front() != cfg->num_spine) {
      return "--layer-sizes: the first (spine) layer has " +
             std::to_string(sizes.front()) + " nodes but --spines=" +
             std::to_string(cfg->num_spine) + "; drop one of the two flags";
    }
    cfg->num_racks = static_cast<uint32_t>(sizes.back());
    cfg->num_spine = static_cast<uint32_t>(sizes.front());
    for (size_t l = 0; l < num_layers; ++l) {
      if (sizes[l] > 0xffffffffULL || budgets[l] > 0xffffffffULL) {
        return "--layer-sizes/--layer-cache values must fit uint32";
      }
      cfg->cache_layers.push_back({static_cast<uint32_t>(sizes[l]),
                                   static_cast<uint32_t>(budgets[l])});
    }
    if (std::string layer_error = ValidateCacheLayers(*cfg); !layer_error.empty()) {
      return layer_error;
    }
  }
  cfg->stale_telemetry = flags.GetBool("stale-telemetry", false);
  cfg->cap_at_server_aggregate = !flags.GetBool("uncapped", false);
  // Per-node cache semantics (core/cache_policy.h). Parse errors and invalid
  // combinations (e.g. --cache-policy=lru with --mechanism=nocache) are
  // rejected here with the same message the engine boundary would abort with.
  if (!GetChoice(flags, "routing", "pot", Spellings(kRoutings), &cfg->routing,
                 &error) ||
      !GetChoice(flags, "cache-policy", "distcache", ParseCachePolicy,
                 &cfg->cache_policy, &error) ||
      !GetChoice(flags, "hierarchy", "inclusive", ParseHierarchyMode,
                 &cfg->cache_hierarchy, &error) ||
      !GetChoice(flags, "write-policy", "write-through", ParseWritePolicy,
                 &cfg->write_policy, &error)) {
    return error;
  }
  return ValidateCachePolicy(cfg->cache_policy, cfg->cache_hierarchy,
                             cfg->write_policy, cfg->mechanism, cfg->routing);
}

// --fail-spines=K fails spines 0..K-1, in the failure figure and in the
// engines' failure timeline alike.
bool GetFailSpines(const Flags& flags, uint32_t num_spine, uint32_t* k,
                   std::string* error) {
  uint64_t value = 0;
  if (!flags.GetUintChecked("fail-spines", 1, &value, error)) {
    return false;
  }
  if (value > num_spine) {
    *error = "--fail-spines=" + std::to_string(value) + ": the cluster has only " +
             std::to_string(num_spine) + " spines";
    return false;
  }
  *k = static_cast<uint32_t>(value);
  return true;
}

// Request-level engine run through the pluggable SimBackend interface: reads
// the shard runtime and its robustness knobs, the open-loop queue model and
// the timeline of cluster and workload events, then runs. Sets *status to 2
// when shard processes died.
std::string RunEngine(const Flags& flags, BackendKind kind,
                      const ClusterConfig& cfg, int* status) {
  SimBackendConfig bcfg;
  bcfg.cluster = cfg;
  uint64_t requests = 0;
  uint32_t epoch = 0;
  uint32_t respawn_limit = 0;
  std::string error;
  if (!flags.GetUint32("shards", 1, 1, &bcfg.shards, &error) ||
      // Flag default = the engine default, so a flag-less CLI run matches
      // library/bench runs bit for bit.
      !flags.GetUint32("batch", bcfg.batch_size, 1, &bcfg.batch_size, &error) ||
      // A zero epoch would leave every shard deaf to its peers' loads.
      !flags.GetUint32("epoch", 4096, 1, &epoch, &error) ||
      !flags.GetUintChecked("requests", 2'000'000, &requests, &error) ||
      !flags.GetUintChecked("sample", 0, &bcfg.sample_interval, &error) ||
      !flags.GetUint32("respawn-limit", 3, 0, &respawn_limit, &error) ||
      !flags.GetUintChecked("heartbeat-warn-ms", bcfg.heartbeat_warn_ms,
                            &bcfg.heartbeat_warn_ms, &error) ||
      !flags.GetUintChecked("heartbeat-dead-ms", bcfg.heartbeat_dead_ms,
                            &bcfg.heartbeat_dead_ms, &error) ||
      // Open-loop virtual time (sim/sim_backend.h QueueModelConfig): Poisson
      // arrivals, per-node FIFO queueing, per-layer service rates, hop costs.
      // A zero rate would be the closed loop the flag's absence already runs,
      // with its next-to knobs silently dropped.
      !flags.GetDoubleInRange("arrival-rate", 0.0, 1e-9, 1e15,
                              &bcfg.queue.arrival.rate, &error) ||
      !flags.GetDoubleInRange("hop-cost", bcfg.queue.hop_cost, 0.0, 1e6,
                              &bcfg.queue.hop_cost, &error) ||
      !flags.GetDoubleInRange("server-rate", bcfg.queue.server_service_rate,
                              1e-9, 1e15, &bcfg.queue.server_service_rate,
                              &error) ||
      !flags.GetDoubleList("service-rates", &bcfg.queue.service_rates, &error)) {
    return error;
  }
  bcfg.epoch_requests = epoch;
  bcfg.pin_cores = flags.GetBool("pin-cores", false);
  bcfg.huge_pages = flags.GetBool("huge-pages", false);
  bcfg.respawn_limit = flags.GetBool("respawn", false) ? respawn_limit : 0;
  bcfg.two_level_sampling = flags.GetBool("two-level", false);
  if (flags.Has("fault-plan")) {
    uint64_t fault_seed = cfg.seed;
    if (!flags.GetUintChecked("fault-seed", cfg.seed, &fault_seed, &error) ||
        !ParseFaultPlan(flags.GetString("fault-plan", ""), bcfg.shards,
                        requests, fault_seed, &bcfg.fault_plan, &error)) {
      return error;
    }
    if (error = MultiprocBackend::UnfiredDropFault(bcfg, requests);
        !error.empty()) {
      return "--fault-plan: " + error;
    }
  }
  if (const size_t n = bcfg.queue.service_rates.size(),
      layers = ResolvedCacheLayers(cfg).size();
      n > 1 && n != layers) {
    return "--service-rates: want 1 value or one per cache layer (" +
           std::to_string(layers) + " layers), got " + std::to_string(n);
  }
  if (flags.Has("burst") &&
      !ParseBurstSpec(flags.GetString("burst", ""), &bcfg.queue.arrival, &error)) {
    return error;
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
    uint32_t k = 0;
    uint64_t fail_at = 0;
    uint64_t remap_at = 0;
    uint64_t recover_at = 0;
    if (!GetFailSpines(flags, cfg.num_spine, &k, &error) ||
        !timeline_at("fail-at", requests / 5, &fail_at) ||
        !timeline_at("remap-at", requests / 2, &remap_at) ||
        !timeline_at("recover-at", requests * 3 / 4, &recover_at)) {
      return error;
    }
    for (uint32_t s = 0; s < k; ++s) {
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
  const bool have_shift = flags.Has("shift-at") || flags.Has("shift-by");
  if (have_shift) {
    uint64_t shift_by = 0;
    if (!timeline_at("shift-at", requests / 4, &shift_at) ||
        !flags.GetUintChecked("shift-by", cfg.num_keys / 2, &shift_by, &error)) {
      return error;
    }
    bcfg.events.push_back(ClusterEvent::ShiftHotspot(shift_at, shift_by));
  }
  if (flags.Has("realloc-at")) {
    uint64_t realloc_at = 0;
    if (!timeline_at("realloc-at", requests / 2, &realloc_at)) {
      return error;
    }
    if (have_shift && realloc_at <= shift_at) {
      return "--realloc-at=" + std::to_string(realloc_at) +
             " must come after --shift-at=" + std::to_string(shift_at);
    }
    bcfg.events.push_back(ClusterEvent::ReallocateCache(realloc_at));
  }
  if (flags.Has("phases")) {
    if (!ParsePhaseList(flags.GetString("phases", ""), &bcfg.phases, &error)) {
      return "--phases: " + error;
    }
    for (const WorkloadPhase& phase : bcfg.phases) {
      if (phase.start_request >= requests) {
        return "--phases: phase start " + std::to_string(phase.start_request) +
               " must be below --requests (" + std::to_string(requests) + ")";
      }
    }
  }
  if (flags.Has("fault-plan")) {
    std::printf("fault plan: %s\n", FaultPlanToString(bcfg.fault_plan).c_str());
  }
  if (flags.Has("realloc-at") && PolicyIsDynamic(cfg.cache_policy)) {
    std::printf("note: --realloc-at skipped: cache policy %s manages its own "
                "contents (no controller re-allocation)\n",
                CachePolicyName(cfg.cache_policy));
  }
  auto backend = MakeSimBackend(kind, bcfg);
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
      static_cast<unsigned long long>(stats.ring_messages),
      static_cast<unsigned long long>(stats.dropped));
  // Memory footprint: peak RSS is the max across the driver and any shard
  // processes; route/sampler bytes are per-process state, each distinct route
  // table counted once (shard processes inherit the supervisor's tables; the
  // arena holds telemetry, report and stats slots only).
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
      stats.degraded_fraction > 0.0 || !stats.fault_events.empty()) {
    std::printf(
        "  faults: injected %llu  heartbeat misses %llu  degraded fraction "
        "%.4f\n",
        static_cast<unsigned long long>(stats.injected_faults),
        static_cast<unsigned long long>(stats.heartbeat_misses),
        stats.degraded_fraction);
    std::printf("  fault timeline:");
    for (const BackendStats::FaultRecord& rec : stats.fault_events) {
      if (rec.kind < 16) {  // injected: the plan timestamp is meaningful
        std::printf(" %s:%u@%llu", FaultRecordName(rec.kind), rec.shard,
                    static_cast<unsigned long long>(rec.at));
      } else {  // supervisor observation, wall-clock ordered
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
    *status = 2;
    return "error: " + std::to_string(stats.failed_shards) + " of " +
           std::to_string(bcfg.shards) +
           " shard processes died; stats above are partial";
  }
  return "";
}

// One fluid-model figure: saturation throughput, the latency report at
// --load, or achieved throughput at --offered around a spine failure.
std::string RunFigure(const Flags& flags, const ClusterConfig& cfg, uint8_t mode) {
  ClusterSim sim(cfg);
  std::string error;
  if (mode == kFailureRun) {
    uint32_t k = 0;
    double offered = 0.0;
    if (!GetFailSpines(flags, cfg.num_spine, &k, &error) ||
        !flags.GetDoubleInRange("offered", 0.5 * sim.TotalServerCapacity(),
                                0.0, 1e15, &offered, &error)) {
      return error;
    }
    std::printf("offered rate %.0f\n", offered);
    std::printf("healthy            : %8.0f\n", sim.AchievedThroughput(offered));
    for (uint32_t s = 0; s < k; ++s) {
      sim.FailSpine(s);
    }
    std::printf("%u spines failed   : %8.0f\n", k, sim.AchievedThroughput(offered));
    sim.RunFailureRecovery();
    std::printf("after recovery     : %8.0f\n", sim.AchievedThroughput(offered));
    return "";
  }
  if (mode == kLatencyRun) {
    double load = 0.0;
    if (!flags.GetDoubleInRange("load", 0.5, 0.0, 1.0, &load, &error)) {
      return error;
    }
    const LatencyReport report =
        ComputeLatencyReport(sim, load * sim.TotalServerCapacity());
    std::printf("latency @ %.0f%% load: mean=%.2f p50=%.2f p95=%.2f p99=%.2f "
                "(hit fraction %.2f)\n",
                100 * load, report.mean, report.p50, report.p95, report.p99,
                report.hit_fraction);
    return "";
  }
  const double throughput = sim.SaturationThroughput();
  std::printf("saturation throughput: %.0f (x one storage server; aggregate %.0f)\n",
              throughput, sim.TotalServerCapacity());
  return "";
}

// Runs what `flags` asks for. Returns "" or the error that stopped the run,
// with *status the exit code to report it with.
std::string Simulate(const Flags& flags, int* status) {
  if (std::string error = flags.Refusal([](std::string_view name) {
        const FlagRow* row = FindRow(name);
        return row == nullptr        ? FlagKind::kUnknown
               : row->help[0] == '=' ? FlagKind::kValued
                                     : FlagKind::kBoolean;
      });
      !error.empty()) {
    return error;
  }
  if (flags.Has("help")) {
    PrintHelp();
    return "";
  }
  std::string error;
  BackendKind kind = BackendKind::kSequential;
  if (flags.Has("backend") &&
      !GetChoice(flags, "backend", "", Spellings(kBackends), &kind, &error)) {
    return error;
  }
  const uint8_t mode = flags.Has("backend")       ? ModeOf(kind)
                       : flags.Has("fail-spines") ? kFailureRun
                       : flags.Has("latency")     ? kLatencyRun
                                                  : kSaturationRun;
  if (error = RefuseUnread(flags, mode); !error.empty()) {
    return error;
  }
  // Wall-clock watchdog (--deadline-sec): a detached thread that _exits(4)
  // when the budget runs out — armed before any simulation work, so even a
  // wedged engine (the thing the fault tests exist to rule out) cannot hang
  // a CI job past its deadline.
  uint64_t deadline_sec = 0;
  if (!flags.GetUintChecked("deadline-sec", 0, &deadline_sec, &error)) {
    return error;
  }
  if (deadline_sec != 0) {
    std::thread([deadline_sec] {
      std::this_thread::sleep_for(std::chrono::seconds(deadline_sec));
      std::fprintf(stderr, "error: --deadline-sec=%llu exceeded\n",
                   static_cast<unsigned long long>(deadline_sec));
      _exit(4);
    }).detach();
  }
  ClusterConfig cfg;
  if (error = ParseCluster(flags, &cfg); !error.empty()) {
    return error;
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
  return (mode & kAnyBackend) != 0 ? RunEngine(flags, kind, cfg, status)
                                   : RunFigure(flags, cfg, mode);
}

}  // namespace
}  // namespace distcache

int main(int argc, char** argv) {
  int status = 1;
  const std::string error = distcache::Simulate(distcache::Flags(argc, argv), &status);
  if (!error.empty()) {
    std::fprintf(stderr, "%s\n", error.c_str());
    return status;
  }
  return 0;
}
