// The power-of-k-choices queueing process of the paper's analysis (appendix A.3,
// over L layers by §3.1): one exponential-service queue per cache node; Poisson
// query arrivals; a query for object i joins one of the queues h_0(i), h_1(i), ...
// of the first `choices` layers. Object choices are FIXED by the hash functions —
// the crucial difference from the classic balls-and-bins supermarket model.
//
// Lemma 2: if a fractional perfect matching exists, the two-choice process is
// positive recurrent (queues stay bounded). Lemma 3: with a single hash function
// (one layer) it is non-stationary with constant probability (queues grow
// linearly). More layers keep it stationary at the same per-node load. The benches
// cross-check all three against the max-flow certificate of the same CacheGraph.
#ifndef DISTCACHE_SIM_POK_PROCESS_H_
#define DISTCACHE_SIM_POK_PROCESS_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/random.h"
#include "common/zipf.h"
#include "matching/cache_graph.h"
#include "sim/event_queue.h"

namespace distcache {

enum class ChoicePolicy {
  kShortestQueue,  // join the shortest candidate queue, ties broken uniformly
  kRandom,         // a uniformly random candidate (no load awareness)
};

class PokProcess {
 public:
  struct Config {
    size_t num_objects = 256;                 // k
    std::vector<size_t> layer_sizes{16, 16};  // L layers of cache nodes
    double service_rate = 1.0;                // T̃ per cache node
    double total_rate = 0.0;                  // R; required
    double zipf_theta = 0.99;                 // object popularity (0 = uniform)
    // When > 0, clip the object pmf at this value (redistributing mass to the tail).
    // Setting pmf_cap = service_rate / (2 * total_rate) puts the workload exactly at
    // Theorem 1's precondition max_i p_i * R = T~/2.
    double pmf_cap = 0.0;
    // How many of the L layers the router may use, in [1, L] (1 = single choice,
    // L = full power-of-k). Candidates are taken from the first `choices` layers.
    size_t choices = 2;
    ChoicePolicy policy = ChoicePolicy::kShortestQueue;
    uint64_t seed = 7;
  };

  struct Result {
    std::vector<double> backlog_series;  // total queued jobs sampled each time unit
    uint64_t arrivals = 0;
    uint64_t departures = 0;
    double max_queue = 0.0;
    // Least-squares slope of the backlog over the second half of the run, in jobs per
    // time unit. ~0 for a stationary system; ≈ (R - served rate) when unstable.
    double drift = 0.0;
    bool stationary = false;
  };

  // Aborts with a message, in every build mode, on `choices` outside [1, L] or a
  // total or service rate that is not positive and finite (and, through the graph,
  // on an empty layer list or layer).
  explicit PokProcess(const Config& config);

  // Runs the process for `duration` time units, sampling the backlog each unit.
  Result Run(double duration);

  // The choice-set graph, shared with the matching analysis for cross-checks.
  const CacheGraph& graph() const { return graph_; }

 private:
  size_t ChooseQueue(uint64_t object);
  void Arrive();
  void Depart(size_t queue_index);
  void StartServiceIfIdle(size_t queue_index);

  Config config_;
  CacheGraph graph_;
  std::unique_ptr<KeyDistribution> dist_;
  EventQueue events_;
  Rng rng_;
  std::vector<uint64_t> queue_len_;
  std::vector<bool> busy_;
  uint64_t arrivals_ = 0;
  uint64_t departures_ = 0;
};

}  // namespace distcache

#endif  // DISTCACHE_SIM_POK_PROCESS_H_
