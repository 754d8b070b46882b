#include "matching/cache_graph.h"

#include <algorithm>
#include <bit>
#include <cstdio>
#include <cstdlib>
#include <numeric>
#include <string>
#include <unordered_map>

#include "common/hash.h"
#include "matching/max_flow.h"

namespace distcache {
namespace {

// A graph the analysis cannot take would index past its node arrays or shift a
// mask past 64 bits; fail loudly in every build mode instead.
[[noreturn]] void Die(const std::string& message) {
  std::fprintf(stderr, "invalid cache graph: %s\n", message.c_str());
  std::abort();
}

void CheckSize(const char* what, size_t got, size_t want) {
  if (got != want) {
    Die(std::string(what) + " has " + std::to_string(got) + " entries, want " +
        std::to_string(want));
  }
}

}  // namespace

CacheGraph::CacheGraph(size_t num_objects, std::vector<size_t> layer_sizes,
                       uint64_t seed)
    : num_objects_(num_objects), layer_sizes_(std::move(layer_sizes)) {
  if (layer_sizes_.empty()) {
    Die("no cache layers");
  }
  HashFamily family(num_layers(), seed);
  node_.resize(num_objects_ * num_layers());
  for (size_t l = 0; l < num_layers(); ++l) {
    if (layer_sizes_[l] == 0) {
      Die("layer " + std::to_string(l) + " has no nodes");
    }
    for (uint64_t i = 0; i < num_objects_; ++i) {
      node_[i * num_layers() + l] = total_nodes_ + family.Bucket(l, i, layer_sizes_[l]);
    }
    total_nodes_ += layer_sizes_[l];
  }
}

std::vector<size_t> CacheGraph::ChoicesOf(uint64_t object) const {
  const auto first = node_.begin() + static_cast<ptrdiff_t>(object * num_layers());
  return {first, first + static_cast<ptrdiff_t>(num_layers())};
}

uint64_t CacheGraph::CandidateMask(uint64_t object) const {
  uint64_t mask = 0;
  for (size_t l = 0; l < num_layers(); ++l) {
    mask |= uint64_t{1} << NodeOf(object, l);
  }
  return mask;
}

bool CacheGraph::FeasibleMatching(const std::vector<double>& rates,
                                  const std::vector<double>& layer_capacity) const {
  CheckSize("rates", rates.size(), num_objects_);
  CheckSize("layer_capacity", layer_capacity.size(), num_layers());
  // Node ids in the flow network: 0 = source, 1..k = objects,
  // k+1 .. k+nodes = cache nodes, k+nodes+1 = sink.
  const size_t source = 0;
  const size_t sink = num_objects_ + total_nodes_ + 1;
  MaxFlow flow(sink + 1);
  double demand = 0.0;
  for (size_t i = 0; i < num_objects_; ++i) {
    flow.AddEdge(source, 1 + i, rates[i]);
    demand += rates[i];
    for (size_t l = 0; l < num_layers(); ++l) {
      flow.AddEdge(1 + i, 1 + num_objects_ + NodeOf(i, l), rates[i]);
    }
  }
  size_t v = 0;
  for (size_t l = 0; l < num_layers(); ++l) {
    for (size_t n = 0; n < layer_sizes_[l]; ++n, ++v) {
      flow.AddEdge(1 + num_objects_ + v, sink, layer_capacity[l]);
    }
  }
  return flow.Solve(source, sink) >= demand * (1.0 - 1e-9) - 1e-9;
}

double CacheGraph::MaxSupportedRate(const std::vector<double>& pmf, double node_capacity,
                                    double tolerance) const {
  CheckSize("pmf", pmf.size(), num_objects_);
  const double mass = std::accumulate(pmf.begin(), pmf.end(), 0.0);
  if (mass <= 0.0) {
    return 0.0;
  }
  const std::vector<double> capacity(num_layers(), node_capacity);
  // Upper bound: total cache capacity. Lower bound: zero.
  double lo = 0.0;
  double hi = node_capacity * static_cast<double>(total_nodes_);
  std::vector<double> rates(num_objects_);
  const auto feasible = [&](double total_rate) {
    for (size_t i = 0; i < num_objects_; ++i) {
      rates[i] = total_rate * pmf[i] / mass;
    }
    return FeasibleMatching(rates, capacity);
  };
  if (feasible(hi)) {
    return hi;
  }
  while (hi - lo > tolerance * hi) {
    const double mid = 0.5 * (lo + hi);
    if (feasible(mid)) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return lo;
}

bool CacheGraph::HasExpansionProperty() const {
  if (num_objects_ > 20 || total_nodes_ > 64) {
    Die("exhaustive expansion check limited to 20 objects and 64 nodes, got " +
        std::to_string(num_objects_) + " objects and " + std::to_string(total_nodes_) +
        " nodes");
  }
  const size_t subsets = size_t{1} << num_objects_;
  // neighbors[S] built incrementally: Γ(S) = Γ(S \ lowbit) ∪ Γ(lowbit).
  std::vector<uint64_t> neighbors(subsets, 0);
  for (size_t s = 1; s < subsets; ++s) {
    const size_t low = s & (~s + 1);
    const size_t low_idx = static_cast<size_t>(std::countr_zero(low));
    neighbors[s] = neighbors[s ^ low] | CandidateMask(low_idx);
    if (static_cast<size_t>(std::popcount(neighbors[s])) <
        static_cast<size_t>(std::popcount(s))) {
      return false;
    }
  }
  return true;
}

double CacheGraph::RhoMax(const std::vector<double>& rates, double node_capacity) const {
  CheckSize("rates", rates.size(), num_objects_);
  if (total_nodes_ > 24) {
    Die("exhaustive rho_max limited to 24 cache nodes, got " +
        std::to_string(total_nodes_));
  }
  // Aggregate object rates by their choice-set mask D(i); there are at most
  // prod(layer sizes) distinct masks regardless of k.
  std::unordered_map<uint64_t, double> lambda_by_mask;
  for (size_t i = 0; i < num_objects_; ++i) {
    lambda_by_mask[CandidateMask(i)] += rates[i];
  }
  const uint64_t subsets = uint64_t{1} << total_nodes_;
  double rho_max = 0.0;
  for (uint64_t q = 1; q < subsets; ++q) {
    double arrivals = 0.0;
    for (const auto& [mask, lambda] : lambda_by_mask) {
      if ((mask & ~q) == 0) {
        arrivals += lambda;  // every choice of these objects lies inside Q
      }
    }
    if (arrivals <= 0.0) {
      continue;
    }
    const double mu = node_capacity * static_cast<double>(std::popcount(q));
    rho_max = std::max(rho_max, arrivals / mu);
  }
  return rho_max;
}

}  // namespace distcache
