// Client-ToR cache-load table fed by in-network telemetry (§4.2).
//
// Cache switches piggyback their epoch load in reply headers; the client ToR stores
// the latest value per cache switch in on-chip registers (256 × 32-bit in the
// prototype). Loads can go stale when a switch stops seeing traffic; the paper
// proposes an aging mechanism that gradually decays un-refreshed loads toward zero
// (not implementable in P4 at the time — we implement it and ablate it).
//
// The table covers an arbitrary cache hierarchy: one load slot per node of every
// layer (layer 0 = the top/"spine" layer, the last layer = the rack-bound leaves),
// flattened into a single dense array so the hot-path Load() is one add and one
// read regardless of depth. Power-of-k routing over L layers compares the L
// candidates through this one table.
//
// Invariants this table must maintain for the power-of-k-choices guarantee
// (Theorem 1) to apply:
//
//  1. *Per-node monotone freshness*: the stored load for a node is always some past
//     true load of that node (possibly decayed by aging) plus optimistic local
//     increments the client itself caused — never an arbitrary value. PoT tolerates
//     bounded staleness (it only compares candidates), but it does not tolerate
//     systematically inverted loads.
//  2. *Bounded staleness*: every node's entry is refreshed at least once per
//     telemetry epoch while the node serves traffic. The sharded simulation backend
//     preserves this with partial-sum gossip — each shard broadcasts its own
//     cumulative per-node contributions every epoch and receivers fold in the
//     monotone increments — while each client tracks its own contributions via
//     Add(), so the view error for any node is at most the traffic other clients
//     sent it within one epoch (sim/multiproc_backend.h). Broadcasting absolute
//     owner loads instead would mix snapshots of different ages and
//     systematically misroute.
//  3. *Herding avoidance*: decisions within an epoch must not all see the identical
//     frozen snapshot (else every query chases the same "less loaded" node — the
//     stale-telemetry ablation in ClusterSim). Local Add() increments provide the
//     within-epoch feedback that keeps the fixed-candidates PoT process stationary.
//
// Failure handling (§4.4) adds a fourth rule, *dead-node aging*: a failed switch
// stops emitting telemetry, so its table entry freezes at a stale — and, because
// loads only grow, eventually the *smallest* — value. Invariant 3 then breaks in
// the worst possible way: the frozen ghost wins every PoT comparison and the whole
// query stream herds onto a blackhole, with no within-epoch feedback to push it
// away (dead switches serve nothing, so the entry never moves). MarkDead() is the
// limit case of aging such an entry out: it pins the visible load to +infinity so
// the ghost loses every comparison, while telemetry keeps accumulating into a
// shadow value that MarkAlive() restores on recovery (a dead switch's true
// cumulative load is unchanged while it is down, so the shadow — the pre-failure
// estimate plus any late-arriving telemetry — is the correct post-recovery view).
#ifndef DISTCACHE_CORE_LOAD_TRACKER_H_
#define DISTCACHE_CORE_LOAD_TRACKER_H_

#include <array>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

#include "common/cacheline.h"
#include "core/allocation.h"
#include "net/topology.h"

namespace distcache {

class LoadTracker {
 public:
  struct Config {
    // Nodes per cache layer, top first (the historical shape is {num_spine,
    // num_racks}).
    std::vector<uint32_t> layer_sizes{32, 32};
    // Multiplier applied per Age() call to entries not refreshed since the last
    // Age(); 1.0 disables aging (the prototype's behaviour).
    double aging_factor = 0.5;
  };

  explicit LoadTracker(const Config& config)
      : config_(config), offset_(config.layer_sizes) {
    loads_.assign(offset_.total(), 0.0);
    fresh_.assign(offset_.total(), false);
    dead_.assign(offset_.total(), false);
    shadow_.assign(offset_.total(), 0.0);
  }

  // Telemetry arrival: reply traversed `node` which reported `load`.
  void Update(CacheNodeId node, uint64_t load) { Set(node, static_cast<double>(load)); }

  double Load(CacheNodeId node) const { return loads_[offset_.Flat(node)]; }

  // Authoritative refresh (epoch telemetry broadcast in the simulation backends):
  // replaces the view with the owner's true cumulative load and marks it fresh.
  // While a node is marked dead the refresh lands on the shadow value instead, so
  // the +infinity pin survives until MarkAlive().
  void Set(CacheNodeId node, double load) {
    if (!Valid(node)) {
      return;
    }
    const size_t i = offset_.Flat(node);
    (dead_[i] ? shadow_ : loads_)[i] = load;
    fresh_[i] = true;
  }

  // Optimistic local increment: the client just routed `delta` work to `node` and
  // accounts for it immediately, without waiting for the next telemetry epoch
  // (invariant 3 above). Does not mark the entry fresh — only real telemetry does.
  void Add(CacheNodeId node, double delta) {
    if (!Valid(node)) {
      return;
    }
    const size_t i = offset_.Flat(node);
    (dead_[i] ? shadow_ : loads_)[i] += delta;
  }

  // Dead-node aging (§4.4, header comment): pin the visible load to +infinity so
  // the failed node loses every PoT comparison; the current estimate moves to a
  // shadow that continues to absorb Set()/Add() (late telemetry). Idempotent.
  void MarkDead(CacheNodeId node) {
    if (!Valid(node)) {
      return;
    }
    const size_t i = offset_.Flat(node);
    if (!dead_[i]) {
      dead_[i] = true;
      shadow_[i] = loads_[i];
      loads_[i] = std::numeric_limits<double>::infinity();
    }
  }

  // Recovery: restore the shadow estimate (the node served nothing while dead, so
  // its true cumulative load is exactly where telemetry last left it). Idempotent.
  void MarkAlive(CacheNodeId node) {
    if (!Valid(node)) {
      return;
    }
    const size_t i = offset_.Flat(node);
    if (dead_[i]) {
      dead_[i] = false;
      loads_[i] = shadow_[i];
    }
  }

  bool IsDead(CacheNodeId node) const {
    // Unknown nodes are ignored, like Set/Add/MarkDead.
    return Valid(node) && dead_[offset_.Flat(node)];
  }

  // Epoch boundary: decay entries that saw no telemetry this epoch (aging, §4.2), and
  // clear freshness marks. Dead entries stay pinned at +infinity — decaying a dead
  // node toward zero would make the ghost *attractive* (and 0 × inf is NaN).
  void Age() {
    for (size_t i = 0; i < loads_.size(); ++i) {
      if (!fresh_[i] && !dead_[i]) {
        loads_[i] *= config_.aging_factor;
      }
      fresh_[i] = false;
    }
  }

  // ToR switch replacement (§4.4): a new client ToR "initializes the loads of all
  // cache switches to be zero" and relearns from telemetry.
  void Reset() {
    loads_.assign(loads_.size(), 0.0);
    fresh_.assign(fresh_.size(), false);
    dead_.assign(dead_.size(), false);
    shadow_.assign(shadow_.size(), 0.0);
  }

  size_t num_layers() const { return config_.layer_sizes.size(); }

  // One layer's current view (a copy; test/diagnostic use).
  std::vector<double> LayerLoads(size_t layer) const {
    return {loads_.begin() + offset_.LayerBegin(layer),
            loads_.begin() + offset_.LayerEnd(layer)};
  }
  std::vector<double> spine_loads() const { return LayerLoads(0); }
  std::vector<double> leaf_loads() const { return LayerLoads(num_layers() - 1); }

 private:
  bool Valid(CacheNodeId node) const {
    return node.layer < config_.layer_sizes.size() &&
           node.index < config_.layer_sizes[node.layer];
  }

  Config config_;
  LayerOffsets offset_;
  // The load lanes are the hottest per-thread data in the sharded engine (one
  // tracker per worker, read+written every request); cache-line padding
  // guarantees two workers' lanes never share a line even when the allocator
  // packs the trackers' heap blocks back to back.
  CacheAlignedVector<double> loads_;
  std::vector<bool> fresh_;
  // Dead-node aging state: while dead_[i], loads_[i] holds +infinity and
  // shadow_[i] carries the live estimate (see MarkDead/MarkAlive).
  std::vector<bool> dead_;
  CacheAlignedVector<double> shadow_;
};

}  // namespace distcache

#endif  // DISTCACHE_CORE_LOAD_TRACKER_H_
