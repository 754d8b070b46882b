#include "sim/pok_process.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <numeric>

#include "common/hash.h"

namespace distcache {

PokProcess::PokProcess(const Config& config)
    : config_(config),
      graph_(config.num_objects, config.layer_sizes, HashCombine(config.seed, 0x907a11ULL)),
      dist_(config.pmf_cap > 0.0
                ? std::make_unique<DiscreteDistribution>(
                      CappedZipfPmf(config.num_objects, config.zipf_theta,
                                    config.pmf_cap),
                      "capped-zipf")
                : MakeDistribution(config.num_objects, config.zipf_theta)),
      rng_(HashCombine(config.seed, 0x4ea1ULL)) {
  // choices past L would read another object's candidates (or past the node
  // table), and a zero or non-finite rate schedules no sane event: fail loudly in
  // every build mode instead.
  const auto positive = [](double rate) { return std::isfinite(rate) && rate > 0.0; };
  if (config_.choices < 1 || config_.choices > graph_.num_layers() ||
      !positive(config_.total_rate) || !positive(config_.service_rate)) {
    std::fprintf(stderr,
                 "invalid PokProcess config: choices=%zu (want 1..%zu), total_rate=%g, "
                 "service_rate=%g (want positive finite rates)\n",
                 config_.choices, graph_.num_layers(), config_.total_rate,
                 config_.service_rate);
    std::abort();
  }
  queue_len_.assign(graph_.num_cache_nodes(), 0);
  busy_.assign(graph_.num_cache_nodes(), false);
}

size_t PokProcess::ChooseQueue(uint64_t object) {
  if (config_.policy == ChoicePolicy::kRandom) {
    return graph_.NodeOf(object, rng_.NextBounded(config_.choices));
  }
  // The shortest queue; the t-th candidate to tie the shortest so far replaces it
  // with probability 1/t, so ties are broken uniformly (appendix A.3).
  size_t best = graph_.NodeOf(object, 0);
  uint64_t ties = 1;
  for (size_t l = 1; l < config_.choices; ++l) {
    const size_t node = graph_.NodeOf(object, l);
    if (queue_len_[node] < queue_len_[best]) {
      best = node;
      ties = 1;
    } else if (queue_len_[node] == queue_len_[best]) {
      ++ties;
      if (rng_.NextBounded(ties) == ties - 1) {
        best = node;
      }
    }
  }
  return best;
}

void PokProcess::StartServiceIfIdle(size_t queue_index) {
  if (busy_[queue_index] || queue_len_[queue_index] == 0) {
    return;
  }
  busy_[queue_index] = true;
  events_.Schedule(rng_.NextExponential(config_.service_rate),
                   [this, queue_index] { Depart(queue_index); });
}

void PokProcess::Depart(size_t queue_index) {
  busy_[queue_index] = false;
  assert(queue_len_[queue_index] > 0);
  --queue_len_[queue_index];
  ++departures_;
  StartServiceIfIdle(queue_index);
}

void PokProcess::Arrive() {
  const size_t q = ChooseQueue(dist_->Sample(rng_));
  ++queue_len_[q];
  ++arrivals_;
  StartServiceIfIdle(q);
  events_.Schedule(rng_.NextExponential(config_.total_rate), [this] { Arrive(); });
}

PokProcess::Result PokProcess::Run(double duration) {
  Result result;
  events_.Schedule(rng_.NextExponential(config_.total_rate), [this] { Arrive(); });
  const int samples = std::max(4, static_cast<int>(duration));
  const double step = duration / samples;
  result.backlog_series.reserve(samples);
  for (int i = 0; i < samples; ++i) {
    events_.RunUntil(step * (i + 1));
    result.backlog_series.push_back(static_cast<double>(
        std::accumulate(queue_len_.begin(), queue_len_.end(), uint64_t{0})));
    result.max_queue = std::max(
        result.max_queue,
        static_cast<double>(*std::max_element(queue_len_.begin(), queue_len_.end())));
  }
  result.arrivals = arrivals_;
  result.departures = departures_;

  // Drift: least-squares slope of the backlog over the second half of the samples.
  const size_t half = result.backlog_series.size() / 2;
  const size_t n = result.backlog_series.size() - half;
  if (n >= 2) {
    double sx = 0, sy = 0, sxx = 0, sxy = 0;
    for (size_t i = 0; i < n; ++i) {
      const double x = static_cast<double>(i) * step;
      const double y = result.backlog_series[half + i];
      sx += x;
      sy += y;
      sxx += x * x;
      sxy += x * y;
    }
    const double denom = static_cast<double>(n) * sxx - sx * sx;
    result.drift = denom != 0.0 ? (static_cast<double>(n) * sxy - sx * sy) / denom : 0.0;
  }
  // Stationary when the backlog is not persistently growing: drift well below 1% of
  // the arrival rate (an unstable system drifts at Θ(R - capacity)).
  result.stationary = result.drift < 0.01 * config_.total_rate;
  return result;
}

}  // namespace distcache
