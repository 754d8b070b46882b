// Shared helpers for the figure/table reproduction benches.
#ifndef DISTCACHE_BENCH_BENCH_COMMON_H_
#define DISTCACHE_BENCH_BENCH_COMMON_H_

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <initializer_list>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "cluster/cluster_sim.h"
#include "core/cache_policy.h"
#include "core/mechanism.h"
#include "tools/flags.h"

namespace distcache {

// True when DISTCACHE_BENCH_SMOKE is set: benches shrink their sweeps to finish in
// about a second so `make bench-smoke` can catch bitrot without reproducing full
// figures. Numbers printed under smoke mode are NOT meaningful.
inline bool BenchSmoke() {
  const char* env = std::getenv("DISTCACHE_BENCH_SMOKE");
  return env != nullptr && env[0] != '\0' && env[0] != '0';
}

// Sweep selector: the reduced list under smoke mode, the full list otherwise.
template <typename T>
std::vector<T> SmokeSweep(std::vector<T> smoke, std::vector<T> full) {
  return BenchSmoke() ? std::move(smoke) : std::move(full);
}

inline const std::vector<Mechanism>& AllMechanisms() {
  static const std::vector<Mechanism> kAll{
      Mechanism::kDistCache, Mechanism::kCacheReplication, Mechanism::kCachePartition,
      Mechanism::kNoCache};
  return kAll;
}

// The paper's default testbed shape (§6.2): 32 spine switches, 32 storage racks,
// 32 servers per rack, 100 objects per cache switch, 100M keys, Zipf-0.99.
inline ClusterConfig PaperDefaultConfig(Mechanism m) {
  ClusterConfig cfg;
  cfg.mechanism = m;
  cfg.num_spine = 32;
  cfg.num_racks = 32;
  cfg.servers_per_rack = 32;
  cfg.per_switch_objects = 100;
  cfg.num_keys = 100'000'000;
  cfg.zipf_theta = 0.99;
  return cfg;
}

// `--cache-policy=<name>` plumbing for benches: overrides the per-node cache
// policy (core/cache_policy.h) on every DistCache-mechanism config the bench
// builds — the comparison mechanisms keep their fixed semantics, so the flag
// ablates DistCache's policy without touching the baselines. Unknown names and
// invalid combinations fail fast instead of silently benchmarking the default.
class BenchPolicyFlag {
 public:
  explicit BenchPolicyFlag(const Flags& flags) {
    const std::string name = flags.GetString("cache-policy", "distcache");
    if (!ParseCachePolicy(name, &kind_)) {
      std::fprintf(stderr,
                   "unknown --cache-policy=%s (want distcache|static-topk|"
                   "lru|lfu|fifo|segmented)\n", name.c_str());
      std::exit(1);
    }
  }

  void Apply(ClusterConfig* cfg) const {
    if (cfg->mechanism != Mechanism::kDistCache) {
      return;
    }
    cfg->cache_policy = kind_;
    if (const std::string err =
            ValidateCachePolicy(cfg->cache_policy, cfg->cache_hierarchy,
                                cfg->write_policy, cfg->mechanism, cfg->routing);
        !err.empty()) {
      std::fprintf(stderr, "--cache-policy: %s\n", err.c_str());
      std::exit(1);
    }
  }

  const char* name() const { return CachePolicyName(kind_); }
  bool is_default() const { return kind_ == CachePolicyKind::kDistCache; }

 private:
  CachePolicyKind kind_ = CachePolicyKind::kDistCache;
};

inline void PrintHeader(const std::string& title, const std::string& note) {
  std::printf("\n=== %s ===\n", title.c_str());
  if (!note.empty()) {
    std::printf("%s\n", note.c_str());
  }
}

inline void PrintRow(const std::string& label, const std::vector<double>& values,
                     const std::vector<std::string>& names) {
  std::printf("%-14s", label.c_str());
  for (size_t i = 0; i < values.size(); ++i) {
    std::printf("  %-16s %8.0f", names[i].c_str(), values[i]);
  }
  std::printf("\n");
}

// Machine-readable bench output: pass --json (or set DISTCACHE_BENCH_JSON=1) and
// the bench writes BENCH_<name>.json next to the binary, carrying its config,
// scalar metrics and metric series — the artifact the perf-trajectory tooling
// ingests. With the flag absent every recording call is a no-op, so benches can
// record unconditionally.
//
// It also owns the bench's command line: `other_flags` names every flag the
// bench reads besides --json (read through flags()), a flag that takes a value
// spelled with a trailing "=" ("seed-base="), a boolean one without. Any other
// flag, a stray word or a boolean flag given another value than true|false|1|0
// exits 1 with the Flags::Refusal error instead of being silently ignored.
class BenchJson {
 public:
  BenchJson(int argc, char** argv, std::string bench_name,
            std::initializer_list<std::string_view> other_flags = {})
      : name_(std::move(bench_name)), flags_(argc, argv) {
    if (const std::string error = flags_.Refusal([&](std::string_view flag) {
          for (std::string_view known : other_flags) {
            const bool valued = known.ends_with('=');
            if (known.substr(0, known.size() - (valued ? 1 : 0)) == flag) {
              return valued ? FlagKind::kValued : FlagKind::kBoolean;
            }
          }
          return flag == "json" ? FlagKind::kBoolean : FlagKind::kUnknown;
        });
        !error.empty()) {
      std::fprintf(stderr, "%s\n", error.c_str());
      std::exit(1);
    }
    enabled_ = flags_.GetBool("json", false);
    const char* env = std::getenv("DISTCACHE_BENCH_JSON");
    enabled_ = enabled_ || (env != nullptr && env[0] != '\0' && env[0] != '0');
  }
  ~BenchJson() { Write(); }

  BenchJson(const BenchJson&) = delete;
  BenchJson& operator=(const BenchJson&) = delete;

  bool enabled() const { return enabled_; }
  const Flags& flags() const { return flags_; }

  void Config(const std::string& key, const std::string& value) {
    config_.emplace_back(key, Quote(value));
  }
  void Config(const std::string& key, double value) {
    config_.emplace_back(key, Number(value));
  }
  void Metric(const std::string& key, double value) {
    metrics_.emplace_back(key, Number(value));
  }
  void Series(const std::string& key, const std::vector<double>& values) {
    std::string json = "[";
    for (size_t i = 0; i < values.size(); ++i) {
      json += (i == 0 ? "" : ", ") + Number(values[i]);
    }
    json += "]";
    series_.emplace_back(key, std::move(json));
  }

 private:
  using Entries = std::vector<std::pair<std::string, std::string>>;

  static std::string Quote(const std::string& text) {
    std::string out = "\"";
    for (char c : text) {
      if (c == '"' || c == '\\') {
        out += '\\';
        out += c;
      } else if (static_cast<unsigned char>(c) < 0x20) {
        char buf[8];
        std::snprintf(buf, sizeof(buf), "\\u%04x", c);
        out += buf;
      } else {
        out += c;
      }
    }
    return out + "\"";
  }

  static std::string Number(double value) {
    if (!std::isfinite(value)) {
      return "null";  // JSON has no NaN/inf
    }
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    return buf;
  }

  static void WriteSection(std::FILE* f, const char* name, const Entries& entries,
                           bool trailing_comma) {
    std::fprintf(f, "  \"%s\": {", name);
    for (size_t i = 0; i < entries.size(); ++i) {
      std::fprintf(f, "%s\n    %s: %s", i == 0 ? "" : ",",
                   Quote(entries[i].first).c_str(), entries[i].second.c_str());
    }
    std::fprintf(f, "%s}%s\n", entries.empty() ? "" : "\n  ",
                 trailing_comma ? "," : "");
  }

  void Write() {
    if (!enabled_) {
      return;
    }
    const std::string path = "BENCH_" + name_ + ".json";
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "bench: cannot write %s\n", path.c_str());
      return;
    }
    std::fprintf(f, "{\n  \"bench\": %s,\n  \"smoke\": %s,\n", Quote(name_).c_str(),
                 BenchSmoke() ? "true" : "false");
    WriteSection(f, "config", config_, /*trailing_comma=*/true);
    WriteSection(f, "metrics", metrics_, /*trailing_comma=*/true);
    WriteSection(f, "series", series_, /*trailing_comma=*/false);
    std::fprintf(f, "}\n");
    std::fclose(f);
    std::printf("wrote %s\n", path.c_str());
  }

  bool enabled_ = false;
  std::string name_;
  Flags flags_;
  Entries config_;
  Entries metrics_;
  Entries series_;
};

}  // namespace distcache

#endif  // DISTCACHE_BENCH_BENCH_COMMON_H_
