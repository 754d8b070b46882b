// perfbench_run — one measured repetition of a benchmark workload.
//
// The Python runner (perfbench/run.py) turns a workload name and seed into an
// engine configuration and runs this program once per repetition, each time in
// a fresh process, so getrusage's ru_maxrss is a per-repetition high-water
// mark. This program knows nothing about workload names: it receives only the
// generated configuration and the seed as --key=value flags.
//
// Untraced mode (the end-to-end numbers) times, from outside the engine:
//   * MakeSimBackend(...) as set-up, `--setups` times (the last backend runs);
//   * the whole SimBackend::Run(n) call, with getrusage(self + children)
//     around it for CPU time and peak RSS (multiproc shard processes are
//     forked and reaped inside Run, so they land in RUSAGE_CHILDREN);
// then checks the run's output (see CheckRun) and prints one JSON line.
//
// Traced mode (--trace=1) additionally replays the workload's own generated
// inputs through the public functions of each module (common, core, sketch,
// sim, runtime) with spans recorded around those calls by the Tracer below —
// there is no tracing inside src/. Each per-layer figure is a span's self time
// divided by its op count, or a count read off the engine's own counters. The
// replay runs after Run() returns, so the timed Run() is the same code in both
// modes.
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/alias_sampler.h"
#include "common/hash.h"
#include "common/random.h"
#include "common/zipf.h"
#include "core/pot_router.h"
#include "runtime/affinity.h"
#include "runtime/shm_arena.h"
#include "runtime/shm_ring.h"
#include "runtime/spsc_ring.h"
#include "sim/cluster_model.h"
#include "sim/engine_core.h"
#include "sim/multiproc_backend.h"
#include "sim/route_table.h"
#include "sim/shard_message.h"
#include "sim/sim_backend.h"
#include "sim/stats_codec.h"
#include "sketch/heavy_hitter.h"

namespace distcache {
namespace {

constexpr double kMiB = 1024.0 * 1024.0;

// ---- flags -------------------------------------------------------------------

class Flags {
 public:
  Flags(int argc, char** argv) {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      const size_t eq = arg.find('=');
      if (arg.rfind("--", 0) != 0 || eq == std::string::npos) {
        Die("malformed flag: " + arg);
      }
      values_[arg.substr(2, eq - 2)] = arg.substr(eq + 1);
    }
  }
  std::string Str(const std::string& name, const std::string& fallback) const {
    const auto it = values_.find(name);
    return it == values_.end() ? fallback : it->second;
  }
  double Num(const std::string& name, double fallback) const {
    const auto it = values_.find(name);
    if (it == values_.end()) {
      return fallback;
    }
    char* end = nullptr;
    const double v = std::strtod(it->second.c_str(), &end);
    if (end == it->second.c_str() || *end != '\0' || !std::isfinite(v) || v < 0) {
      Die("bad value for --" + name + ": " + it->second);
    }
    return v;
  }
  uint64_t U64(const std::string& name, uint64_t fallback) const {
    return static_cast<uint64_t>(Num(name, static_cast<double>(fallback)));
  }
  [[noreturn]] static void Die(const std::string& msg) {
    std::fprintf(stderr, "perfbench_run: %s\n", msg.c_str());
    std::exit(2);
  }

 private:
  std::map<std::string, std::string> values_;
};

struct RunSpec {
  BackendKind kind = BackendKind::kSequential;
  SimBackendConfig config;
  uint64_t requests = 0;
  uint64_t expect_requests = 0;  // what CheckRun demands (== requests normally)
  uint32_t setups = 1;
  double fluid_tolerance = 0.0;  // 0 disables the fluid hit-ratio check
  bool trace = false;
  std::string trace_out;
};

// Traced mode: draws replayed through the request core and the per-key layers.
constexpr uint64_t kReplayDraws = 2'000'000;

RunSpec ParseSpec(const Flags& f) {
  RunSpec s;
  s.kind = ParseBackendKind(f.Str("backend", "sequential"));
  SimBackendConfig& c = s.config;
  c.cluster.seed = f.U64("seed", 1);
  c.cluster.num_keys = f.U64("keys", c.cluster.num_keys);
  c.cluster.candidate_pool = f.U64("pool", 0);
  c.cluster.per_switch_objects =
      static_cast<uint32_t>(f.U64("objects", c.cluster.per_switch_objects));
  c.cluster.write_ratio = f.Num("write-ratio", 0.0);
  const std::string policy = f.Str("policy", "distcache");
  if (policy == "lru") {
    c.cluster.cache_policy = CachePolicyKind::kLru;
  } else if (policy != "distcache") {
    Flags::Die("unknown --policy: " + policy);
  }
  c.cluster.write_policy = f.Str("write-policy", "through") == "back"
                               ? WritePolicy::kWriteBack
                               : WritePolicy::kWriteThrough;
  c.shards = static_cast<uint32_t>(f.U64("shards", 1));
  c.pin_cores = f.U64("pin", 0) != 0;
  c.two_level_sampling = f.U64("two-level", 0) != 0;
  c.queue.arrival.rate = f.Num("arrival-rate", 0.0);
  s.requests = f.U64("requests", 1'000'000);
  s.expect_requests = f.U64("expect-requests", s.requests);
  // Timeline, in absolute request timestamps (run.py scales them).
  if (const uint64_t shift_at = f.U64("shift-at", 0); shift_at > 0) {
    c.events.push_back(ClusterEvent::ShiftHotspot(shift_at, f.U64("shift-by", 0)));
  }
  if (const uint64_t realloc_at = f.U64("realloc-at", 0); realloc_at > 0) {
    c.events.push_back(ClusterEvent::ReallocateCache(realloc_at));
  }
  if (const uint32_t fail = static_cast<uint32_t>(f.U64("fail-spines", 0)); fail > 0) {
    for (uint32_t sp = 0; sp < fail; ++sp) {
      c.events.push_back(ClusterEvent::FailSpine(f.U64("fail-at", 0), sp));
      c.events.push_back(ClusterEvent::RecoverSpine(f.U64("recover-at", 0), sp));
    }
    c.events.push_back(ClusterEvent::RunRecovery(f.U64("remap-at", 0)));
  }
  s.setups = static_cast<uint32_t>(std::max<uint64_t>(1, f.U64("setups", 1)));
  s.fluid_tolerance = f.Num("fluid-tolerance", 0.0);
  s.trace = f.U64("trace", 0) != 0;
  s.trace_out = f.Str("trace-out", "");
  return s;
}

// ---- timing helpers ----------------------------------------------------------

double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double TimevalSeconds(const timeval& tv) {
  return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) * 1e-6;
}

struct Usage {
  double cpu_s = 0.0;      // user + sys, self + reaped children
  double max_rss_kib = 0;  // max of self and the largest reaped child
};

// This process's resident high-water mark in KiB. Linux keeps
// getrusage(RUSAGE_SELF).ru_maxrss across execve, so a program started from a
// larger parent would report the parent's peak; /proc/self/status VmHWM
// belongs to the current address space only.
long SelfPeakRssKib(long fallback) {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) {
    return fallback;
  }
  char line[256];
  long kib = fallback;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::sscanf(line, "VmHWM: %ld kB", &kib) == 1) {
      break;
    }
  }
  std::fclose(f);
  return kib;
}

Usage ReadUsage() {
  rusage self{};
  rusage children{};
  getrusage(RUSAGE_SELF, &self);
  getrusage(RUSAGE_CHILDREN, &children);
  Usage u;
  u.cpu_s = TimevalSeconds(self.ru_utime) + TimevalSeconds(self.ru_stime) +
            TimevalSeconds(children.ru_utime) + TimevalSeconds(children.ru_stime);
  u.max_rss_kib = static_cast<double>(
      std::max(SelfPeakRssKib(self.ru_maxrss), children.ru_maxrss));
  return u;
}

// p-th percentile of a latency histogram, interpolated geometrically inside the
// bucket that holds it (the histogram's own Percentile returns the bucket
// midpoint, which quantizes to ~4.4% steps and hides small shifts).
double InterpolatedPercentile(const LatencyHistogram& h, double p) {
  if (h.empty()) {
    return 0.0;
  }
  const double rank = p / 100.0 * static_cast<double>(h.total());
  double cum = 0.0;
  const std::vector<uint64_t>& counts = h.counts();
  for (size_t b = 0; b < counts.size(); ++b) {
    const double c = static_cast<double>(counts[b]);
    if (c > 0 && cum + c >= rank) {
      const double frac = std::clamp((rank - cum) / c, 0.0, 1.0);
      return LatencyHistogram::BucketLowerEdge(static_cast<int>(b)) *
             std::exp2(frac / LatencyHistogram::kSubBuckets);
    }
    cum += c;
  }
  return INFINITY;  // the rank lies in the saturated mass
}

// ---- per-run correctness check ---------------------------------------------

std::vector<std::string> CheckRun(const RunSpec& spec, const BackendStats& st,
                                  double fluid_hit) {
  std::vector<std::string> errors;
  const auto expect = [&](bool ok, const std::string& what) {
    if (!ok) {
      errors.push_back(what);
    }
  };
  expect(st.requests == spec.expect_requests,
         "requests " + std::to_string(st.requests) + " != expected " +
             std::to_string(spec.expect_requests));
  expect(st.failed_shards == 0,
         "failed_shards = " + std::to_string(st.failed_shards));
  expect(st.degraded_fraction == 0.0, "degraded_fraction != 0");
  expect(st.reads + st.writes == st.requests, "reads + writes != requests");
  expect(st.spine_hits + st.leaf_hits == st.cache_hits,
         "spine_hits + leaf_hits != cache_hits");
  if (spec.config.queue.enabled()) {
    // Exactly one completion per delivered request (drops record nothing).
    expect(st.latency.total() == st.requests - st.dropped,
           "latency samples " + std::to_string(st.latency.total()) +
               " != delivered " + std::to_string(st.requests - st.dropped));
    // A saturated node pushes the p99 rank past the histogram's last bucket.
    expect(std::isfinite(InterpolatedPercentile(st.latency, 99.0)),
           "sim p99 lies in the histogram's saturated mass");
  }
  if (spec.fluid_tolerance > 0.0) {
    expect(std::fabs(st.hit_ratio() - fluid_hit) <= spec.fluid_tolerance,
           "hit ratio " + std::to_string(st.hit_ratio()) + " vs fluid " +
               std::to_string(fluid_hit) + " beyond tolerance " +
               std::to_string(spec.fluid_tolerance));
  }
  return errors;
}

// ---- tracing -----------------------------------------------------------------

// In-memory span recorder: name, start, end, parent span and op count. A
// span's self time is its duration minus the time its direct children cover.
// Spans are kept in memory and written out once, when the replay ends.
class Tracer {
 public:
  int Begin(const std::string& name, uint64_t ops) {
    const int parent = stack_.empty() ? -1 : stack_.back();
    spans_.push_back({name, parent, Now(), 0.0, ops, 0.0});
    stack_.push_back(static_cast<int>(spans_.size()) - 1);
    return stack_.back();
  }
  void End() {
    Span& s = spans_[stack_.back()];
    s.end = Now();
    if (s.parent >= 0) {
      spans_[s.parent].child_s += s.end - s.start;
    }
    stack_.pop_back();
  }
  // Runs fn() inside a span; returns its wall seconds.
  template <typename Fn>
  double Time(const std::string& name, uint64_t ops, Fn&& fn) {
    const int id = Begin(name, ops);
    fn();
    End();
    return Seconds(id);
  }
  double Seconds(int id) const { return spans_[id].end - spans_[id].start; }
  size_t size() const { return spans_.size(); }
  // Wall seconds one Begin/End pair costs, measured on a scratch tracer with a
  // span name as long as the replay's (past the small-string buffer).
  static double SpanCost() {
    constexpr int kSpans = 10'000;
    Tracer probe;
    const double t0 = Now();
    for (int i = 0; i < kSpans; ++i) {
      probe.Begin("sim.process_closed", 1);
      probe.End();
    }
    return (Now() - t0) / kSpans;
  }
  // Σ self seconds / Σ ops over every span of `name`.
  double SelfPerOp(const std::string& name) const {
    double self = 0.0;
    uint64_t ops = 0;
    for (const Span& s : spans_) {
      if (s.name == name) {
        self += (s.end - s.start) - s.child_s;
        ops += s.ops;
      }
    }
    return ops == 0 ? 0.0 : self / static_cast<double>(ops);
  }
  void Write(const std::string& path) const {
    if (path.empty()) {
      return;
    }
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      return;
    }
    std::fprintf(f, "[\n");
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "  {\"id\": %zu, \"name\": \"%s\", \"parent\": %d, "
                   "\"start_s\": %.9f, \"end_s\": %.9f, \"self_s\": %.9f, "
                   "\"ops\": %llu}%s\n",
                   i, s.name.c_str(), s.parent, s.start - spans_[0].start,
                   s.end - spans_[0].start, (s.end - s.start) - s.child_s,
                   static_cast<unsigned long long>(s.ops),
                   i + 1 == spans_.size() ? "" : ",");
    }
    std::fprintf(f, "]\n");
    std::fclose(f);
  }

 private:
  struct Span {
    std::string name;
    int parent;
    double start;
    double end;
    uint64_t ops;
    double child_s;
  };
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

// Mirrors the sequential engine's sink (global cumulative loads, telemetry view
// refreshed in place) and counts the charges.
struct BenchSink {
  BackendStats* st;
  LoadTracker* view;
  uint64_t charges = 0;

  void AddCacheLoad(CacheNodeId node, double delta) {
    double& load = st->cache_load[node.layer][node.index];
    load += delta;
    view->Set(node, load);
    ++charges;
  }
  void AddServerLoad(uint32_t server, double delta) {
    st->server_load[server] += delta;
    ++charges;
  }
};

// The workload's key sampler, as its engine builds it: the inverse-CDF
// DiscreteDistribution (sequential), the alias table (sharded/multiproc), or
// the O(hot) two-level sampler.
struct ReplaySampler {
  std::unique_ptr<DiscreteDistribution> dense;
  std::unique_ptr<AliasSampler> alias;
  std::unique_ptr<TwoLevelSampler> two_level;

  void SampleBatch(Rng& rng, uint32_t* out, size_t n) const {
    if (two_level) {
      two_level->SampleBatch(rng, out, n);
    } else if (alias) {
      alias->SampleBatch(rng, out, n);
    } else {
      for (size_t i = 0; i < n; ++i) {
        out[i] = static_cast<uint32_t>(dense->Sample(rng));
      }
    }
  }
};

// Two pinned threads move `msgs` messages through `push`/`pop`; returns
// seconds from the start signal to the consumer's last pop.
template <typename Push, typename Pop>
double PingThroughput(uint64_t msgs, Push push, Pop pop) {
  std::atomic<int> ready{0};
  std::atomic<bool> go{false};
  double t0 = 0.0;
  double t1 = 0.0;
  std::thread producer([&] {
    PinToCore(0);
    ready.fetch_add(1);
    while (!go.load(std::memory_order_acquire)) {
    }
    for (uint64_t i = 0; i < msgs; ++i) {
      while (!push(i)) {
      }
    }
  });
  std::thread consumer([&] {
    PinToCore(1);
    ready.fetch_add(1);
    while (!go.load(std::memory_order_acquire)) {
    }
    for (uint64_t got = 0; got < msgs;) {
      got += pop() ? 1 : 0;
    }
    t1 = Now();
  });
  while (ready.load() < 2) {
  }
  t0 = Now();
  go.store(true, std::memory_order_release);
  producer.join();
  consumer.join();
  return t1 - t0;
}

using Metrics = std::vector<std::pair<std::string, double>>;

// Replays the workload's inputs through each module's public functions.
// `st` is the workload's own final stats (from the Run in this process) and
// `backend` the constructed backend still alive in this process.
Metrics TracedReplay(const RunSpec& spec, const BackendStats& st,
                     Tracer& tr) {
  const SimBackendConfig& cfg = spec.config;
  const uint64_t seed = cfg.cluster.seed;
  const uint64_t n = kReplayDraws;
  Metrics m;
  const int replay = tr.Begin("replay", 0);

  std::unique_ptr<ClusterModel> model;
  tr.Time("sim.model_build", 1, [&] {
    model = std::make_unique<ClusterModel>(cfg.cluster, !cfg.two_level_sampling);
  });
  ReplaySampler sampler;
  tr.Time("common.sampler_build", 1, [&] {
    if (cfg.two_level_sampling) {
      sampler.two_level = std::make_unique<TwoLevelSampler>(
          model->cfg.num_keys, model->cfg.zipf_theta, model->pool);
    } else if (spec.kind == BackendKind::kSequential) {
      sampler.dense =
          std::make_unique<DiscreteDistribution>(model->head_with_tail, "head+tail");
    } else {
      sampler.alias = std::make_unique<AliasSampler>(model->head_with_tail);
    }
  });
  std::shared_ptr<const RouteTable> base;
  tr.Time("sim.route_build", 1, [&] {
    base = std::make_shared<const RouteTable>(BuildRouteTable(*model));
  });
  std::vector<TimelineStep> plan;
  tr.Time("sim.plan_build", 1, [&] { plan = BuildTimelinePlan(cfg, *model); });

  // The workload's own generated inputs: n bucket draws from its sampler.
  std::vector<uint32_t> buckets(n);
  Rng draw_rng(HashCombine(seed, 0xc1057e4ULL));
  tr.Time("common.sample", n,
          [&] { sampler.SampleBatch(draw_rng, buckets.data(), n); });
  uint64_t in_prefix = 0;
  for (const uint32_t b : buckets) {
    in_prefix += b < base->hot_len() ? 1 : 0;
  }

  // Request core over the pre-drawn buckets, with the workload's timeline
  // scaled to the replay length, with and without the open-loop overlay.
  const double scale = static_cast<double>(n) / static_cast<double>(spec.requests);
  const uint32_t batch = cfg.batch_size;
  BackendStats core_st;
  uint64_t charges = 0;
  std::unique_ptr<EngineCore> core;
  const auto replay_core = [&](bool open_loop) {
    core = std::make_unique<EngineCore>(model.get(), HashCombine(seed, 0xc1057e4ULL),
                                        HashCombine(seed, 0x90076eULL),
                                        TimelineNeedsObserver(cfg.events));
    core_st = BackendStats{};
    core_st.cache_load = model->ZeroCacheLoads();
    core_st.server_load.assign(model->num_servers(), 0.0);
    core->BindStats(&core_st);
    core->SetRoutes(base);
    if (open_loop) {
      core->ConfigureOpenLoop(cfg.queue, HashCombine(seed, 0x0be71457ULL));
    }
    for (const TimelineStep& step : plan) {
      core->QueueAction({static_cast<double>(step.at_request) * scale,
                         step.is_phase, step.phase, step.event, step.pmf,
                         step.routes});
    }
    BenchSink sink{&core_st, &core->view()};
    tr.Time(open_loop ? "sim.process" : "sim.process_closed", n, [&] {
      for (uint64_t off = 0; off < n; off += batch) {
        core->AdvanceTo(off);
        core->ProcessBatch(sink, buckets.data() + off,
                           static_cast<uint32_t>(std::min<uint64_t>(batch, n - off)));
      }
    });
    charges = sink.charges;
  };
  // Closed first, then the workload's own (open-loop) configuration, twice
  // each so both see warm caches; the last replay's core stays for the
  // counters below.
  for (int round = 0; round < 2; ++round) {
    replay_core(false);
    replay_core(cfg.queue.enabled());
  }
  const CachePolicyRuntime* policy = core->policy_runtime();

  // PoT choice over the workload's own candidate pairs, against the loads the
  // replay left in the telemetry view.
  std::vector<std::pair<CacheNodeId, CacheNodeId>> pairs;
  for (const uint32_t b : buckets) {
    if (b < base->hot_len()) {
      const RouteEntry& e = base->entries[b];
      if (e.kind == RouteEntry::kCached && e.num == 2) {
        pairs.emplace_back(UnpackCandidate(e.c0), UnpackCandidate(e.c1));
      }
    }
  }
  PotRouter router(&core->view(), cfg.cluster.routing, HashCombine(seed, 0x90076eULL));
  std::vector<CacheNodeId> cands(2);
  uint64_t picks = 0;
  tr.Time("core.pot_choose", std::max<size_t>(pairs.size(), 1), [&] {
    for (const auto& [a, b] : pairs) {
      cands[0] = a;
      cands[1] = b;
      picks += router.Choose(cands);
    }
  });

  // Keys of the drawn buckets (the tail bucket takes a rank past the pool).
  std::vector<uint64_t> keys(n);
  for (uint64_t i = 0; i < n; ++i) {
    const uint64_t rank = buckets[i] < model->pool
                              ? buckets[i]
                              : model->pool + i % (cfg.cluster.num_keys - model->pool + 1);
    keys[i] = std::min<uint64_t>(rank, cfg.cluster.num_keys - 1);
  }
  uint64_t copies = 0;
  tr.Time("core.copies_of", n, [&] {
    for (const uint64_t k : keys) {
      copies += model->allocation->CopiesOf(k).num;
    }
  });
  HeavyHitterDetector::Config hh;
  hh.sketch.width = 1 << 18;
  hh.sketch.counter_max = UINT32_MAX;
  hh.report_threshold = 2;
  hh.max_reports_per_epoch = static_cast<size_t>(2 * model->pool);
  HeavyHitterDetector detector(hh);
  uint64_t reported = 0;
  tr.Time("sketch.record", n, [&] {
    for (const uint64_t k : keys) {
      reported += detector.Record(k) ? 1 : 0;
    }
  });

  // Stats codec on the workload's own final stats: one shard's serialize +
  // deserialize + merge.
  size_t cache_nodes = 0;
  for (const auto& layer : st.cache_load) {
    cache_nodes += layer.size();
  }
  std::vector<uint8_t> blob(StatsCodecBound(st.cache_load.size(), cache_nodes,
                                            st.server_load.size(), st.series.size(),
                                            st.fault_events.size()));
  constexpr uint64_t kCodecReps = 200;
  BackendStats merged;
  bool codec_ok = true;
  tr.Time("sim.codec", kCodecReps, [&] {
    for (uint64_t i = 0; i < kCodecReps; ++i) {
      const size_t len = SerializeBackendStats(st, blob.data(), blob.size());
      BackendStats back;
      codec_ok = codec_ok && len > 0 && DeserializeBackendStats(blob.data(), len, &back);
      merged.Merge(back);
    }
  });

  // Transports: the in-process ring with the engine's telemetry message shape,
  // and the arena ring with its slot size, each between two pinned threads.
  constexpr uint64_t kMsgs = 100'000;
  const std::vector<double> partials(cache_nodes, 1.0);
  {
    SpscRing<ShardMsg> ring(256);
    tr.Time("runtime.spsc", kMsgs, [&] {
      PingThroughput(
          kMsgs,
          [&](uint64_t) {
            ShardMsg msg;
            msg.kind = ShardMsg::Kind::kTelemetry;
            msg.cache_partials = partials;
            return ring.TryPush(std::move(msg));
          },
          [&] { return ring.TryPop().has_value(); });
    });
  }
  const size_t slot_bytes = 64 + std::max<size_t>(cache_nodes * sizeof(double), 1024);
  ShmArena ring_arena;
  if (ring_arena.Map(ShmSpscRing::BytesFor(256, slot_bytes), false)) {
    ShmSpscRing tx(ring_arena.base(), 256, slot_bytes);
    ShmSpscRing rx(ring_arena.base(), 256, slot_bytes);
    std::vector<double> sink_buf(cache_nodes);
    tr.Time("runtime.shm_ring", kMsgs, [&] {
      PingThroughput(
          kMsgs,
          [&](uint64_t) {
            void* slot = tx.TryStage();
            if (slot == nullptr) {
              return false;
            }
            std::memcpy(slot, partials.data(), partials.size() * sizeof(double));
            tx.Publish();
            return true;
          },
          [&] {
            const void* slot = rx.Front();
            if (slot == nullptr) {
              return false;
            }
            std::memcpy(sink_buf.data(), slot, sink_buf.size() * sizeof(double));
            rx.Pop();
            return true;
          });
    });
  }

  // Arena map + first touch at the workload's arena size (engines without an
  // arena: the size their plan would occupy in one).
  const size_t arena_bytes = st.arena_bytes > 0
                                 ? st.arena_bytes
                                 : PlanRouteTableBytes(base.get(), plan) + (1u << 20);
  for (int i = 0; i < 3; ++i) {
    ShmArena arena;
    bool mapped = false;
    tr.Time("runtime.arena_map", 1, [&] {
      mapped = arena.Map(arena_bytes, cfg.huge_pages);
      for (size_t off = 0; mapped && off < arena_bytes; off += 4096) {
        arena.base()[off] = 1;
      }
    });
  }
  // fork + reap of a no-op child from this process (model and plan resident).
  for (int i = 0; i < 5; ++i) {
    tr.Time("runtime.fork", 1, [&] {
      const pid_t pid = ::fork();
      if (pid == 0) {
        ::_exit(0);
      }
      int status = 0;
      if (pid > 0) {
        ::waitpid(pid, &status, 0);
      }
    });
  }
  tr.End();  // replay

  const double dn = static_cast<double>(n);
  const uint64_t polls = st.contended_receives + st.uncontended_receives;
  m = {
      {"common.sample_ns", tr.SelfPerOp("common.sample") * 1e9},
      {"common.sampler_build_s", tr.SelfPerOp("common.sampler_build")},
      {"sim.model_build_s", tr.SelfPerOp("sim.model_build")},
      {"sim.route_build_s", tr.SelfPerOp("sim.route_build")},
      {"sim.plan_build_s", tr.SelfPerOp("sim.plan_build")},
      {"sim.route_table_mb", static_cast<double>(PlanRouteTableBytes(base.get(), plan)) / kMiB},
      {"sim.process_ns_per_req", tr.SelfPerOp("sim.process") * 1e9},
      {"sim.open_loop_ns_per_req",
       (tr.SelfPerOp("sim.process") - tr.SelfPerOp("sim.process_closed")) * 1e9},
      {"sim.hot_prefix_fraction", static_cast<double>(in_prefix) / dn},
      {"sim.sink_charges_per_req", static_cast<double>(charges) / dn},
      {"sim.codec_us_per_shard", codec_ok ? tr.SelfPerOp("sim.codec") * 1e6 : -1.0},
      {"core.pot_choose_ns", tr.SelfPerOp("core.pot_choose") * 1e9},
      {"core.copies_of_ns", tr.SelfPerOp("core.copies_of") * 1e9},
      {"core.policy_evictions_per_req",
       policy != nullptr ? static_cast<double>(policy->counters().evictions) / dn : 0.0},
      {"core.policy_writebacks_per_req",
       policy != nullptr ? static_cast<double>(policy->counters().writebacks) / dn : 0.0},
      {"sketch.record_ns", tr.SelfPerOp("sketch.record") * 1e9},
      {"runtime.spsc_ns_per_msg", tr.SelfPerOp("runtime.spsc") * 1e9},
      {"runtime.shm_ring_ns_per_msg", tr.SelfPerOp("runtime.shm_ring") * 1e9},
      {"runtime.arena_map_ms", tr.SelfPerOp("runtime.arena_map") * 1e3},
      {"runtime.fork_ms", tr.SelfPerOp("runtime.fork") * 1e3},
      {"runtime.ring_msgs_per_kreq",
       st.requests == 0 ? 0.0
                        : 1e3 * static_cast<double>(st.ring_messages) /
                              static_cast<double>(st.requests)},
      {"runtime.contended_poll_fraction",
       polls == 0 ? 0.0
                  : static_cast<double>(st.contended_receives) /
                        static_cast<double>(polls)},
      // Tracing overhead where the spans are: their own Begin/End cost over the
      // replay's wall time. Run() carries no spans, so the end-to-end figures
      // pay none.
      {"trace.overhead_frac",
       Tracer::SpanCost() * static_cast<double>(tr.size()) / tr.Seconds(replay)},
  };
  // Keep the side results observable so no timed loop can be elided.
  if (picks + copies + reported == UINT64_MAX) {
    std::fprintf(stderr, "unreachable\n");
  }
  return m;
}

void PrintJsonNumber(std::string& out, double v) {
  char buf[64];
  if (std::isfinite(v)) {
    std::snprintf(buf, sizeof(buf), "%.9g", v);
  } else {
    std::snprintf(buf, sizeof(buf), "null");
  }
  out += buf;
}

int Main(int argc, char** argv) {
  const Flags flags(argc, argv);
  RunSpec spec = ParseSpec(flags);
  if (spec.kind == BackendKind::kFluid) {
    Flags::Die("the fluid backend is a reference, not a measured engine");
  }
  if (spec.kind == BackendKind::kMultiproc && !MultiprocBackend::Supported()) {
    Flags::Die("multiproc backend unsupported on this host");
  }
  Tracer tr;
  std::vector<double> setup_s;
  std::unique_ptr<SimBackend> backend;
  for (uint32_t i = 0; i < spec.setups; ++i) {
    backend.reset();
    const double t0 = Now();
    backend = MakeSimBackend(spec.kind, spec.config);
    setup_s.push_back(Now() - t0);
  }
  const Usage u0 = ReadUsage();
  const double w0 = Now();
  const BackendStats st = backend->Run(spec.requests);
  const double w1 = Now();
  const Usage u1 = ReadUsage();
  const double wall = w1 - w0;

  double fluid_hit = 0.0;
  if (spec.fluid_tolerance > 0.0) {
    fluid_hit = MakeSimBackend(BackendKind::kFluid, spec.config)->Run(spec.requests).hit_ratio();
  }
  const std::vector<std::string> errors = CheckRun(spec, st, fluid_hit);

  Metrics layer;
  if (spec.trace) {
    layer = TracedReplay(spec, st, tr);
    const double shards = spec.kind == BackendKind::kSequential ? 1.0 : spec.config.shards;
    layer.push_back({"runtime.cpu_util", (u1.cpu_s - u0.cpu_s) / (wall * shards)});
    tr.Write(spec.trace_out);
  }
  backend.reset();

  std::string out = "{\"requests\": " + std::to_string(st.requests) +
                    ", \"dropped\": " + std::to_string(st.dropped) + ", \"setup_s\": [";
  for (size_t i = 0; i < setup_s.size(); ++i) {
    out += i ? ", " : "";
    PrintJsonNumber(out, setup_s[i]);
  }
  const Metrics e2e = {
      {"wall_s", wall},
      {"cpu_s", u1.cpu_s - u0.cpu_s},
      {"peak_rss_mb", u1.max_rss_kib / 1024.0},
      {"hit_ratio", st.hit_ratio()},
      {"fluid_hit_ratio", fluid_hit},
      {"cache_imbalance", st.CacheImbalance()},
      {"sim_p99", InterpolatedPercentile(st.latency, 99.0)},
  };
  out += "]";
  for (const auto& [name, value] : e2e) {
    out += ", \"" + name + "\": ";
    PrintJsonNumber(out, value);
  }
  out += ", \"layer\": {";
  for (size_t i = 0; i < layer.size(); ++i) {
    out += (i ? ", \"" : "\"") + layer[i].first + "\": ";
    PrintJsonNumber(out, layer[i].second);
  }
  out += "}, \"errors\": [";
  for (size_t i = 0; i < errors.size(); ++i) {
    out += (i ? ", \"" : "\"") + errors[i] + "\"";
  }
  out += "]}";
  std::printf("%s\n", out.c_str());
  return errors.empty() ? 0 : 3;
}

}  // namespace
}  // namespace distcache

int main(int argc, char** argv) { return distcache::Main(argc, argv); }
