#include "sim/stats_codec.h"

#include <bit>
#include <cstring>

#include "common/hash.h"
#include "common/stats.h"

namespace distcache {
namespace {

// Bump-pointer writer/reader over the caller's buffer; every primitive moves
// through memcpy so doubles keep their exact bit pattern and alignment is a
// non-issue.
struct Writer {
  uint8_t* p;
  size_t left;
  bool ok = true;

  void Bytes(const void* src, size_t n) {
    if (!ok || n > left) {
      ok = false;
      return;
    }
    if (n == 0) {
      return;  // empty vectors hand us data() == nullptr; memcpy forbids it
    }
    std::memcpy(p, src, n);
    p += n;
    left -= n;
  }
  void U64(uint64_t v) { Bytes(&v, sizeof(v)); }
  void F64(double v) { Bytes(&v, sizeof(v)); }
  void DoubleVec(const std::vector<double>& v) {
    U64(v.size());
    Bytes(v.data(), v.size() * sizeof(double));
  }
};

struct Reader {
  const uint8_t* p;
  size_t left;
  bool ok = true;

  void Bytes(void* dst, size_t n) {
    if (!ok || n > left) {
      ok = false;
      return;
    }
    if (n == 0) {
      return;  // a resize(0) target keeps data() == nullptr; memcpy forbids it
    }
    std::memcpy(dst, p, n);
    p += n;
    left -= n;
  }
  uint64_t U64() {
    uint64_t v = 0;
    Bytes(&v, sizeof(v));
    return v;
  }
  double F64() {
    double v = 0.0;
    Bytes(&v, sizeof(v));
    return v;
  }
  bool DoubleVec(std::vector<double>* v) {
    const uint64_t n = U64();
    if (!ok || n > left / sizeof(double)) {
      return ok = false;
    }
    v->resize(n);
    Bytes(v->data(), n * sizeof(double));
    return ok;
  }
};

void PutHistogram(Writer& w, const LatencyHistogram& h) {
  const std::vector<uint64_t>& counts = h.counts();
  w.U64(counts.size());  // 0 (lazily unallocated) or kNumBuckets
  w.Bytes(counts.data(), counts.size() * sizeof(uint64_t));
  w.U64(h.total());
  w.U64(h.infinite());
  w.F64(h.finite_sum());
}

bool GetHistogram(Reader& r, LatencyHistogram* h) {
  const uint64_t n = r.U64();
  if (!r.ok || (n != 0 && n != LatencyHistogram::kNumBuckets) ||
      n > r.left / sizeof(uint64_t)) {
    return r.ok = false;
  }
  std::vector<uint64_t> counts(n);
  r.Bytes(counts.data(), n * sizeof(uint64_t));
  const uint64_t total = r.U64();
  const uint64_t infinite = r.U64();
  const double sum = r.F64();
  if (!r.ok) {
    return false;
  }
  *h = LatencyHistogram::FromRaw(std::move(counts), total, infinite, sum);
  return true;
}

// Every row of a counter table, in table order, as its 8-byte bit pattern:
// a Writer over const stats serializes, a Reader over mutable stats parses.
template <typename Counters, typename Stream, typename Stats>
void CounterBytes(Stream& io, Stats& c) {
  Counters::ForEach([&](auto field, MergeRule, bool) {
    io.Bytes(&(c.*field), sizeof(c.*field));
  });
}

// Mixes the digest rows of a counter table (doubles by bit pattern).
template <typename Counters, typename Mix>
void MixCounters(const Mix& mix, const Counters& c) {
  Counters::ForEach([&](auto field, MergeRule, bool in_digest) {
    if (in_digest) {
      mix(std::bit_cast<uint64_t>(c.*field));
    }
  });
}

constexpr size_t kHistogramBound =
    8 + LatencyHistogram::kNumBuckets * 8 + 8 + 8 + 8;
constexpr size_t kCounterBound =
    8 * CounterCount<BackendCounters>() + 8;  // + slack word
constexpr size_t kIntervalBound = 8 * CounterCount<IntervalCounters>();
constexpr size_t kFaultRecordBound = 2 * 4 + 8;  // shard + kind + at

}  // namespace

size_t StatsCodecBound(size_t num_layers, size_t num_cache_nodes,
                       size_t num_servers, size_t max_series_points,
                       size_t max_fault_events) {
  size_t bytes = kCounterBound;
  bytes += 8 + num_layers * 8 + num_cache_nodes * 8;  // cache_load
  bytes += 8 + num_servers * 8;                       // server_load
  bytes += kHistogramBound;                           // latency
  bytes += 8 + max_series_points * (kIntervalBound + kHistogramBound);  // series
  bytes += 8 + max_fault_events * kFaultRecordBound;           // fault_events
  return bytes;
}

size_t SerializeBackendStats(const BackendStats& stats, uint8_t* out,
                             size_t cap) {
  Writer w{out, cap};
  CounterBytes<BackendCounters>(w, stats);
  w.U64(stats.cache_load.size());
  for (const std::vector<double>& layer : stats.cache_load) {
    w.DoubleVec(layer);
  }
  w.DoubleVec(stats.server_load);
  PutHistogram(w, stats.latency);
  w.U64(stats.series.size());
  for (const BackendStats::IntervalPoint& pt : stats.series) {
    CounterBytes<IntervalCounters>(w, pt);
    PutHistogram(w, pt.latency);
  }
  w.U64(stats.fault_events.size());
  for (const BackendStats::FaultRecord& rec : stats.fault_events) {
    w.Bytes(&rec.shard, sizeof(rec.shard));
    w.Bytes(&rec.kind, sizeof(rec.kind));
    w.U64(rec.at);
  }
  return w.ok ? cap - w.left : 0;
}

bool DeserializeBackendStats(const uint8_t* in, size_t len, BackendStats* out) {
  *out = BackendStats{};
  Reader r{in, len};
  CounterBytes<BackendCounters>(r, *out);
  const uint64_t layers = r.U64();
  if (!r.ok || layers > r.left / 8) {
    *out = BackendStats{};
    return false;
  }
  out->cache_load.resize(layers);
  for (uint64_t l = 0; l < layers; ++l) {
    r.DoubleVec(&out->cache_load[l]);
  }
  r.DoubleVec(&out->server_load);
  GetHistogram(r, &out->latency);
  const uint64_t points = r.U64();
  if (!r.ok || points > r.left / kIntervalBound) {
    *out = BackendStats{};
    return false;
  }
  out->series.resize(points);
  for (uint64_t i = 0; i < points; ++i) {
    BackendStats::IntervalPoint& pt = out->series[i];
    CounterBytes<IntervalCounters>(r, pt);
    GetHistogram(r, &pt.latency);
  }
  const uint64_t faults = r.U64();
  if (!r.ok || faults > r.left / kFaultRecordBound) {
    *out = BackendStats{};
    return false;
  }
  out->fault_events.resize(faults);
  for (uint64_t i = 0; i < faults; ++i) {
    BackendStats::FaultRecord& rec = out->fault_events[i];
    r.Bytes(&rec.shard, sizeof(rec.shard));
    r.Bytes(&rec.kind, sizeof(rec.kind));
    rec.at = r.U64();
  }
  if (!r.ok) {
    *out = BackendStats{};
    return false;
  }
  return true;
}

uint64_t DeterministicStatsDigest(const BackendStats& stats) {
  uint64_t h = 0x5eed0d16e57ULL;
  const auto mix = [&h](uint64_t v) { h = Mix64(HashCombine(h, v)); };
  MixCounters<BackendCounters>(mix, stats);
  mix(stats.series.size());
  for (const BackendStats::IntervalPoint& pt : stats.series) {
    MixCounters<IntervalCounters>(mix, pt);
  }
  return h;
}

}  // namespace distcache
