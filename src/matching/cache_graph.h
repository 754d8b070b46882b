// The bipartite object→cache-node graph of the paper's analysis (§3.2, appendix A)
// over L cache layers (§3.1): U = k hot objects, V = every layer's cache nodes;
// object i has an edge to node h_l(i) of each layer l, for independent hash
// functions h_0..h_{L-1}. L = 2 is the paper's graph (groups A and B), L = 1 the
// single-hash strawman of Lemma 3, L > 2 the multi-layer hierarchy.
//
// Provides:
//  * fractional perfect-matching feasibility (Definition 1) via max-flow, i.e., can
//    the cache layers absorb query rates {r_i} without overloading any node;
//  * the largest supportable total rate R* (binary search over feasibility);
//  * the expansion property |Γ(S)| ≥ |S| (Definition 3), exhaustively for small k;
//  * the traffic intensity ρ_max of the power-of-k queueing process (Theorem 3
//    condition), exhaustively for small node counts.
// Each aborts with a message, in every build mode, on input it cannot take (no
// layers, an empty layer, a vector of the wrong size, a check past its limit).
#ifndef DISTCACHE_MATCHING_CACHE_GRAPH_H_
#define DISTCACHE_MATCHING_CACHE_GRAPH_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace distcache {

class CacheGraph {
 public:
  // `layer_sizes[l]` = number of cache nodes in layer l (at least one layer, none
  // empty); layer l hashes with h_l of the family derived from `seed`.
  CacheGraph(size_t num_objects, std::vector<size_t> layer_sizes, uint64_t seed);

  size_t num_layers() const { return layer_sizes_.size(); }
  size_t num_cache_nodes() const { return total_nodes_; }

  // Global node id of object `i`'s candidate in `layer`. Layers are laid out
  // consecutively: layer 0's nodes first, then layer 1's, ...
  size_t NodeOf(uint64_t object, size_t layer) const {
    return node_[object * num_layers() + layer];
  }

  // All L candidates of an object (one per layer).
  std::vector<size_t> ChoicesOf(uint64_t object) const;

  // Definition 1 feasibility: can rates[i] (i < num_objects) be fully served with
  // every layer-l node's load ≤ layer_capacity[l]? Exact via max-flow.
  bool FeasibleMatching(const std::vector<double>& rates,
                        const std::vector<double>& layer_capacity) const;

  // Largest total rate R such that rates proportional to `pmf` are feasible with
  // capacity `node_capacity` at every node, found by binary search; `tolerance` is
  // relative.
  double MaxSupportedRate(const std::vector<double>& pmf, double node_capacity,
                          double tolerance = 1e-3) const;

  // Definition 3: |Γ(S)| ≥ |S| for every non-empty S ⊆ U. Exhaustive (2^k subsets);
  // requires num_objects ≤ 20 and num_cache_nodes() ≤ 64.
  bool HasExpansionProperty() const;

  // ρ_max of the power-of-k arrival process (appendix A.3): max over node subsets
  // Q of (total rate of objects whose every choice lies in Q) / (capacity of Q).
  // Exhaustive (2^(num nodes) subsets); requires num_cache_nodes() ≤ 24.
  double RhoMax(const std::vector<double>& rates, double node_capacity) const;

 private:
  // The bit set of object i's candidate nodes (num_cache_nodes() ≤ 64).
  uint64_t CandidateMask(uint64_t object) const;

  size_t num_objects_;
  std::vector<size_t> layer_sizes_;
  size_t total_nodes_ = 0;
  // node_[i * L + l] = global node id of object i's candidate in layer l.
  std::vector<size_t> node_;
};

}  // namespace distcache

#endif  // DISTCACHE_MATCHING_CACHE_GRAPH_H_
