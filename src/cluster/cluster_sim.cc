#include "cluster/cluster_sim.h"

#include <algorithm>
#include <cmath>

namespace distcache {

ClusterSim::ClusterSim(const ClusterConfig& config)
    : config_(config),
      model_(config, /*build_popularity=*/false),
      popularity_(model_.PopularityFor(config.zipf_theta)),
      spine_alive_(config.num_spine, 1),
      layer_capacity_(LayerCapacities(config)) {
  prev_.cache = model_.ZeroCacheLoads();
  prev_.server.assign(num_servers(), 0.0);
}

void ClusterSim::FailSpine(uint32_t spine) {
  if (spine < config_.num_spine) {
    spine_alive_[spine] = 0;
    recovery_ran_ = false;  // hot objects of the dead switch lose their spine copy
    policy_dirty_ = true;   // dynamic policies: the dead node's layer goes cold
  }
}

void ClusterSim::RecoverSpine(uint32_t spine) {
  if (spine < config_.num_spine) {
    spine_alive_[spine] = 1;
    model_.SyncControllerRemap(spine_alive_);  // remapped partitions go home
    policy_dirty_ = true;
  }
}

uint64_t ClusterSim::KeyOfRank(uint64_t rank) const {
  return distcache::KeyOfRank(rank, hot_shift_, config_.num_keys);
}

void ClusterSim::SetWorkload(double zipf_theta, double write_ratio) {
  if (zipf_theta != config_.zipf_theta) {
    config_.zipf_theta = zipf_theta;
    popularity_ = model_.PopularityFor(zipf_theta);
  }
  config_.write_ratio = write_ratio;
  policy_dirty_ = true;
}

void ClusterSim::ReallocateCacheToHotSet() {
  if (UsesDynamicPolicy()) {
    // The dynamic policies own their contents; the controller has nothing to
    // re-allocate (the request engines' timeline plans likewise drop the
    // step). The steady-state model already follows the hot set.
    return;
  }
  std::vector<uint64_t> hottest(model_.pool);
  for (uint64_t rank = 0; rank < hottest.size(); ++rank) {
    hottest[rank] = KeyOfRank(rank);
  }
  model_.ReallocateCache(hottest);
}

double ClusterSim::RoutingLoad(CacheNodeId node, const LoadSnapshot& acc) const {
  const double load = config_.stale_telemetry ? prev_.cache[node.layer][node.index]
                                              : acc.cache[node.layer][node.index];
  return load / layer_capacity_[node.layer];
}

void ClusterSim::RouteKeyReads(uint64_t key, double read_rate, const CacheCopies& copies,
                               LoadSnapshot& acc) {
  if (read_rate <= 0.0) {
    return;
  }
  if (!copies.cached()) {
    acc.server[model_.placement.ServerOf(key)] += read_rate;
    return;
  }

  if (copies.replicated_all_spines) {
    // CacheReplication: uniform spread over the spine replicas (plus the leaf copy,
    // which is just one more replica). Until the controller reacts to failures, the
    // client ToRs keep spraying dead replicas too; that traffic is lost (accounted at
    // tick end).
    std::vector<uint32_t> spines;
    for (uint32_t s = 0; s < config_.num_spine; ++s) {
      if (spine_alive_[s] || !recovery_ran_) {
        spines.push_back(s);
      }
    }
    const auto leaf = copies.leaf();
    const double n = static_cast<double>(spines.size() + (leaf ? 1 : 0));
    if (n == 0) {
      acc.server[model_.placement.ServerOf(key)] += read_rate;
      return;
    }
    for (uint32_t s : spines) {
      acc.cache[0][s] += read_rate / n;
    }
    if (leaf) {
      acc.cache.back()[*leaf] += read_rate / n;
    }
    return;
  }

  // A dead top-layer switch keeps receiving its routed share until the controller
  // remaps the partition: the client ToRs have no failure signal beyond telemetry
  // going stale, so queries sent to the dead switch are simply lost (§4.4 / Fig. 11
  // shows the resulting throughput dip). After RunFailureRecovery() the allocation
  // maps the partition to an alive switch and CopiesOf() no longer points here.
  CacheNodeId cand[kMaxCacheLayers];
  size_t k = 0;
  for (uint8_t i = 0; i < copies.num; ++i) {
    const CacheNodeId node = copies.nodes[i];
    if (node.layer == 0 && !spine_alive_[node.index] && recovery_ran_) {
      continue;  // known-dead copy, no longer routed to
    }
    cand[k++] = node;
  }
  if (k == 0) {
    acc.server[model_.placement.ServerOf(key)] += read_rate;
    return;
  }
  if (k == 1) {
    acc.cache[cand[0].layer][cand[0].index] += read_rate;
    return;
  }

  switch (EffectiveRouting(config_)) {
    case RoutingPolicy::kFirstChoice:
      acc.cache[cand[0].layer][cand[0].index] += read_rate;
      return;
    case RoutingPolicy::kRandom:
      // Per-query coin flip: in the fluid limit, an even split.
      for (size_t i = 0; i < k; ++i) {
        acc.cache[cand[i].layer][cand[i].index] += read_rate / static_cast<double>(k);
      }
      return;
    case RoutingPolicy::kPowerOfTwo:
      break;
  }
  if (config_.stale_telemetry) {
    // Herding ablation: every query of the epoch chases the previous epoch's
    // least-loaded candidate (earlier layer wins ties).
    size_t best = 0;
    for (size_t i = 1; i < k; ++i) {
      if (RoutingLoad(cand[i], acc) < RoutingLoad(cand[best], acc)) {
        best = i;
      }
    }
    acc.cache[cand[best].layer][cand[best].index] += read_rate;
    return;
  }
  // Continuous telemetry: per-query choices equalize the candidates' utilization —
  // the fluid limit of the power-of-k process is a water-filling split.
  if (k == 2) {
    // Closed form for the two-candidate case (the historical spine/leaf path).
    const double cap0 = layer_capacity_[cand[0].layer];
    const double cap1 = layer_capacity_[cand[1].layer];
    double& load0 = acc.cache[cand[0].layer][cand[0].index];
    double& load1 = acc.cache[cand[1].layer][cand[1].index];
    const double util = (load0 + load1 + read_rate) / (cap0 + cap1);
    double to_first = util * cap0 - load0;
    to_first = std::clamp(to_first, 0.0, read_rate);
    load0 += to_first;
    load1 += read_rate - to_first;
    return;
  }
  // k > 2: iterative water filling. Find the common utilization level over the
  // candidates that receive traffic; candidates already above the level get none
  // and are dropped from the active set until the level is consistent.
  bool active[kMaxCacheLayers];
  std::fill(active, active + k, true);
  for (size_t round = 0; round < k; ++round) {
    double caps = 0.0;
    double loads = 0.0;
    for (size_t i = 0; i < k; ++i) {
      if (active[i]) {
        caps += layer_capacity_[cand[i].layer];
        loads += acc.cache[cand[i].layer][cand[i].index];
      }
    }
    const double level = (loads + read_rate) / caps;
    bool removed = false;
    for (size_t i = 0; i < k; ++i) {
      if (active[i] &&
          acc.cache[cand[i].layer][cand[i].index] >
              level * layer_capacity_[cand[i].layer]) {
        active[i] = false;
        removed = true;
      }
    }
    if (!removed) {
      size_t last = 0;
      for (size_t i = 0; i < k; ++i) {
        if (active[i]) {
          last = i;
        }
      }
      // The active shares sum to read_rate by construction of `level`; hand the
      // last active candidate the exact remainder so no mass is lost to rounding.
      double assigned = 0.0;
      for (size_t i = 0; i < k; ++i) {
        if (!active[i]) {
          continue;
        }
        double& load = acc.cache[cand[i].layer][cand[i].index];
        if (i == last) {
          load += read_rate - assigned;
        } else {
          const double share =
              std::max(0.0, level * layer_capacity_[cand[i].layer] - load);
          load += share;
          assigned += share;
        }
      }
      return;
    }
  }
}

void ClusterSim::ChargeWrite(uint64_t key, double write_rate, const CacheCopies& copies,
                             LoadSnapshot& acc) {
  if (write_rate <= 0.0) {
    return;
  }
  size_t num_copies = 0;
  for (uint8_t i = 0; i < copies.num; ++i) {
    const CacheNodeId node = copies.nodes[i];
    if (node.layer == 0 && !spine_alive_[node.index]) {
      continue;  // coherence touches only alive copies
    }
    num_copies += 1;
    acc.cache[node.layer][node.index] += config_.coherence_switch_cost * write_rate;
  }
  if (copies.replicated_all_spines) {
    for (uint32_t s = 0; s < config_.num_spine; ++s) {
      if (spine_alive_[s]) {
        num_copies += 1;
        acc.cache[0][s] += config_.coherence_switch_cost * write_rate;
      }
    }
  }
  // The primary server performs the write plus one invalidation+update round per copy
  // (§4.3); uncached objects cost exactly one unit.
  acc.server[model_.placement.ServerOf(key)] +=
      write_rate * (1.0 + config_.coherence_server_cost * static_cast<double>(num_copies));
}

LoadSnapshot ClusterSim::RunTicks(double offered_rate, int ticks) {
  LoadSnapshot acc;
  for (int t = 0; t < ticks; ++t) {
    acc = LoadSnapshot{};
    acc.cache = model_.ZeroCacheLoads();
    acc.server.assign(num_servers(), 0.0);

    if (UsesDynamicPolicy()) {
      // Dynamic per-node policies: loads come from the steady-state hit model,
      // not the static allocation (see ComputePolicyModel).
      ChargePolicyTick(offered_rate, acc);
    } else {
      const double write_ratio = config_.write_ratio;
      // Head ranks, hottest first (greedy order matters for water-filling
      // quality). The queried key id follows the current rank→key rotation, so a
      // hot-spot shift moves the head mass onto whatever is (un)cached at the
      // new keys.
      for (uint64_t rank = 0; rank < popularity_.head.size(); ++rank) {
        const double rate = offered_rate * popularity_.head[rank];
        if (rate <= 0.0) {
          continue;
        }
        const uint64_t key = KeyOfRank(rank);
        const CacheCopies copies = model_.allocation->CopiesOf(key);
        RouteKeyReads(key, rate * (1.0 - write_ratio), copies, acc);
        ChargeWrite(key, rate * write_ratio, copies, acc);
      }
      // Tail: individually negligible keys, spread uniformly by the placement
      // hash; none are cached.
      const double tail_rate = offered_rate * popularity_.tail_mass;
      const double per_server = tail_rate / static_cast<double>(num_servers());
      for (double& load : acc.server) {
        load += per_server;
      }
    }

    // Utilization & achieved throughput accounting. Traffic routed to a dead spine
    // switch is lost entirely; dead switches do not constrain stability (they serve
    // nothing), they only shed the queries sent to them.
    double max_util = 0.0;
    double dropped = 0.0;
    for (uint32_t s = 0; s < config_.num_spine; ++s) {
      if (!spine_alive_[s]) {
        dropped += acc.cache[0][s];
        continue;
      }
      const double util = acc.cache[0][s] / layer_capacity_[0];
      max_util = std::max(max_util, util);
      dropped += std::max(0.0, acc.cache[0][s] - layer_capacity_[0]);
    }
    for (size_t l = 1; l < model_.layers.size(); ++l) {
      for (uint32_t i = 0; i < model_.layers[l].nodes; ++i) {
        const double util = acc.cache[l][i] / layer_capacity_[l];
        max_util = std::max(max_util, util);
        dropped += std::max(0.0, acc.cache[l][i] - layer_capacity_[l]);
      }
    }
    for (double load : acc.server) {
      const double util = load / config_.server_capacity;
      max_util = std::max(max_util, util);
      dropped += std::max(0.0, load - config_.server_capacity);
    }
    // Queries that are not top-layer cache hits still transit the top layer (lower
    // hits and server misses go through an ECMP-chosen spine, §3.4). Until
    // recovery, a dead spine blackholes its 1/num_spine share of that transit
    // traffic as well — this is why the paper sees the throughput drop by the
    // failed switches' share of the *total* throughput ("each spine switch
    // provides 1/32 of the total throughput", §6.4). Transit consumes no cache
    // capacity (forwarding runs at line rate; only the caching path is
    // rate-limited).
    if (!recovery_ran_) {
      uint32_t dead = 0;
      double spine_arrivals = 0.0;
      for (uint32_t s = 0; s < config_.num_spine; ++s) {
        dead += spine_alive_[s] ? 0 : 1;
        spine_arrivals += acc.cache[0][s];
      }
      const double transit = std::max(0.0, offered_rate - spine_arrivals);
      dropped += transit * static_cast<double>(dead) / static_cast<double>(config_.num_spine);
    }
    acc.max_utilization = max_util;
    acc.achieved = std::max(0.0, offered_rate - dropped);
    prev_ = acc;
  }
  return acc;
}

double ClusterSim::SaturationThroughput(double tolerance) {
  double cache_capacity = 0.0;
  for (size_t l = 0; l < model_.layers.size(); ++l) {
    cache_capacity += layer_capacity_[l] * static_cast<double>(model_.layers[l].nodes);
  }
  const double total_capacity = TotalServerCapacity() + cache_capacity;
  const auto stable = [&](double rate) {
    return RunTicks(rate, config_.ticks_per_measurement).max_utilization <= 1.0 + 1e-9;
  };
  double hi_limit =
      config_.cap_at_server_aggregate ? TotalServerCapacity() : total_capacity;
  if (stable(hi_limit)) {
    return hi_limit;
  }
  double lo = 0.0;
  double hi = hi_limit;
  // Converge relative to the answer itself (not the search range), so small
  // saturation rates — e.g. NoCache at large scale — keep full resolution.
  int iterations = 0;
  while (hi - lo > tolerance * std::max(lo, 1.0) && iterations++ < 64) {
    const double mid = 0.5 * (lo + hi);
    if (stable(mid)) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return lo;
}

double ClusterSim::AchievedThroughput(double offered_rate, int ticks) {
  return RunTicks(offered_rate, ticks).achieved;
}

// ---- Dynamic-policy fluid analytics ----------------------------------------

CacheNodeId ClusterSim::PolicyCandidate(size_t layer, uint64_t key) const {
  if (layer + 1 == model_.layers.size()) {
    return {static_cast<uint8_t>(layer), model_.placement.RackOf(key)};
  }
  return {static_cast<uint8_t>(layer), model_.allocation->PartitionOf(layer, key)};
}

namespace {

// Steady-state residency probability of one key with arrival share `a` at
// characteristic time T.
double PolicyResidency(CachePolicyKind kind, double a, double t) {
  switch (kind) {
    case CachePolicyKind::kLru:
    case CachePolicyKind::kSegmented:
      // Che's approximation: a line survives iff re-referenced within T.
      // (SLRU's scan resistance shifts which keys win, not the aggregate
      // occupancy constraint — the fluid model treats it as LRU.)
      return 1.0 - std::exp(-a * t);
    case CachePolicyKind::kFifo:
      // FIFO/RANDOM fluid form: resident a fraction aT/(1+aT) of the time.
      return (a * t) / (1.0 + a * t);
    default:
      return 0.0;  // LFU and the static policies never reach the fixed point
  }
}

}  // namespace

void ClusterSim::ComputePolicyModel() {
  policy_dirty_ = false;
  const CachePolicyKind kind = config_.cache_policy;
  const size_t num_layers = model_.layers.size();
  const size_t head = popularity_.head.size();
  const double tail_keys =
      static_cast<double>(config_.num_keys - static_cast<uint64_t>(head));
  policy_hit_.assign(num_layers, std::vector<double>(head, 0.0));
  policy_tail_hit_.assign(num_layers, {});

  // Miss-through probability of each head rank (and the average tail key)
  // accumulated over the layers above the one being solved.
  std::vector<double> carry(head, 1.0);
  double tail_carry = 1.0;

  for (size_t l = 0; l < num_layers; ++l) {
    const uint32_t nodes = model_.layers[l].nodes;
    const double capacity = static_cast<double>(model_.layers[l].cache_objects);
    policy_tail_hit_[l].assign(nodes, 0.0);

    // Group the thinned head arrivals by candidate node.
    std::vector<std::vector<std::pair<uint64_t, double>>> node_keys(nodes);
    for (uint64_t rank = 0; rank < head; ++rank) {
      const double a = popularity_.head[rank] * carry[rank];
      if (a <= 0.0) {
        continue;
      }
      const uint64_t key = KeyOfRank(rank);
      const CacheNodeId node = PolicyCandidate(l, key);
      if (l == 0 && !spine_alive_[node.index]) {
        continue;  // dead top-layer node: its keys miss this layer entirely
      }
      node_keys[node.index].emplace_back(rank, a);
    }
    // Tail keys hash-spread uniformly across the layer's nodes; each carries a
    // vanishing arrival share thinned by the layers above.
    const double tail_per_node =
        nodes > 0 ? tail_keys / static_cast<double>(nodes) : 0.0;
    const double tail_arrival =
        tail_keys > 0.0 ? popularity_.tail_mass / tail_keys * tail_carry : 0.0;

    for (uint32_t n = 0; n < nodes; ++n) {
      if (l == 0 && !spine_alive_[n]) {
        continue;  // hit probability stays 0
      }
      auto& keys = node_keys[n];
      if (capacity <= 0.0) {
        continue;
      }
      if (kind == CachePolicyKind::kLfu) {
        // Perfect-LFU steady state: the node retains its top-`capacity` keys by
        // arrival rate; leftover slots fill with (interchangeable) tail keys.
        std::sort(keys.begin(), keys.end(),
                  [](const auto& x, const auto& y) {
                    return x.second != y.second ? x.second > y.second
                                                : x.first < y.first;
                  });
        const size_t resident = std::min(keys.size(), static_cast<size_t>(capacity));
        for (size_t i = 0; i < resident; ++i) {
          policy_hit_[l][keys[i].first] = 1.0;
        }
        const double leftover = capacity - static_cast<double>(resident);
        if (leftover > 0.0 && tail_per_node > 0.0) {
          policy_tail_hit_[l][n] = std::min(1.0, leftover / tail_per_node);
        }
        continue;
      }
      // Characteristic-time fixed point: find T with total expected occupancy
      // equal to the capacity. Monotone in T → bisection; if every distinct key
      // fits, residency saturates at 1.
      const double distinct = static_cast<double>(keys.size()) + tail_per_node;
      const auto occupancy = [&](double t) {
        double occ = 0.0;
        for (const auto& [rank, a] : keys) {
          occ += PolicyResidency(kind, a, t);
        }
        if (tail_per_node > 0.0 && tail_arrival > 0.0) {
          occ += tail_per_node * PolicyResidency(kind, tail_arrival, t);
        }
        return occ;
      };
      if (distinct <= capacity) {
        for (const auto& [rank, a] : keys) {
          policy_hit_[l][rank] = 1.0;
        }
        policy_tail_hit_[l][n] = tail_arrival > 0.0 ? 1.0 : 0.0;
        continue;
      }
      double hi = 1.0;
      for (int i = 0; i < 400 && occupancy(hi) < capacity; ++i) {
        hi *= 2.0;
      }
      double lo = 0.0;
      for (int i = 0; i < 80; ++i) {
        const double mid = 0.5 * (lo + hi);
        (occupancy(mid) < capacity ? lo : hi) = mid;
      }
      const double t = 0.5 * (lo + hi);
      for (const auto& [rank, a] : keys) {
        policy_hit_[l][rank] = PolicyResidency(kind, a, t);
      }
      policy_tail_hit_[l][n] =
          tail_arrival > 0.0 ? PolicyResidency(kind, tail_arrival, t) : 0.0;
    }

    // Thin the streams for the next layer down.
    for (uint64_t rank = 0; rank < head; ++rank) {
      carry[rank] *= 1.0 - policy_hit_[l][rank];
    }
    if (nodes > 0) {
      double avg_tail = 0.0;
      for (uint32_t n = 0; n < nodes; ++n) {
        avg_tail += policy_tail_hit_[l][n];
      }
      tail_carry *= 1.0 - avg_tail / static_cast<double>(nodes);
    }
  }

  policy_hit_mass_ = popularity_.tail_mass * (1.0 - tail_carry);
  for (uint64_t rank = 0; rank < head; ++rank) {
    policy_hit_mass_ += popularity_.head[rank] * (1.0 - carry[rank]);
  }
}

double ClusterSim::PolicyHitMass() {
  if (policy_dirty_) {
    ComputePolicyModel();
  }
  return policy_hit_mass_;
}

void ClusterSim::ChargePolicyTick(double offered_rate, LoadSnapshot& acc) {
  if (policy_dirty_) {
    ComputePolicyModel();
  }
  const size_t num_layers = model_.layers.size();
  const size_t head = popularity_.head.size();
  const double write_ratio = config_.write_ratio;
  const bool write_back = config_.write_policy == WritePolicy::kWriteBack;
  const bool inclusive = config_.cache_hierarchy == HierarchyMode::kInclusive;

  for (uint64_t rank = 0; rank < head; ++rank) {
    const double rate = offered_rate * popularity_.head[rank];
    if (rate <= 0.0) {
      continue;
    }
    const uint64_t key = KeyOfRank(rank);
    const double read = rate * (1.0 - write_ratio);
    const double write = rate * write_ratio;
    double carry = 1.0;
    double resident_above = 0.0;  // Σ of unconditional hit probs so far
    double expected_copies = 0.0;
    for (size_t l = 0; l < num_layers; ++l) {
      const CacheNodeId node = PolicyCandidate(l, key);
      const double h = policy_hit_[l][rank];
      const double q = carry * h;  // unconditional hit probability at layer l
      double& load = acc.cache[l][node.index];
      load += read * q;
      if (write > 0.0) {
        if (write_back) {
          // The topmost resident copy absorbs the write (probability ≈ the
          // layer's unconditional hit share), one unit per absorbed write.
          load += write * q;
        } else {
          // Write-through coherence touches every resident copy: inclusive
          // copies stack downward, exclusive lines live at exactly one layer.
          const double resident = inclusive ? resident_above + q : q;
          load += write * resident * config_.coherence_switch_cost;
          expected_copies += resident;
        }
      }
      resident_above += q;
      carry *= 1.0 - h;
    }
    double server = read * carry;  // read misses
    if (write > 0.0) {
      if (write_back) {
        // Unabsorbed writes go straight to the server; absorbed ones return as
        // eventual write-backs (no-coalescing upper bound) — one unit either
        // way, minus the coherence rounds write-through would have paid.
        server += write;
      } else {
        server += write * (1.0 + config_.coherence_server_cost * expected_copies);
      }
    }
    acc.server[model_.placement.ServerOf(key)] += server;
  }

  // Tail: uniform spread; per-node hit shares from the model, the rest (misses
  // plus all tail writes — tail residency is vanishing, so coherence on tail
  // copies is ignored) lands uniformly on the servers.
  const double tail_rate = offered_rate * popularity_.tail_mass;
  if (tail_rate > 0.0) {
    const double tail_read = tail_rate * (1.0 - write_ratio);
    double tail_carry = 1.0;
    for (size_t l = 0; l < num_layers; ++l) {
      const uint32_t nodes = model_.layers[l].nodes;
      const double arrival_per_node =
          tail_read * tail_carry / static_cast<double>(nodes);
      double avg = 0.0;
      for (uint32_t n = 0; n < nodes; ++n) {
        const double h = policy_tail_hit_[l][n];
        acc.cache[l][n] += arrival_per_node * h;
        avg += h;
      }
      tail_carry *= 1.0 - avg / static_cast<double>(nodes);
    }
    const double to_servers = tail_read * tail_carry + tail_rate * write_ratio;
    const double per_server = to_servers / static_cast<double>(num_servers());
    for (double& load : acc.server) {
      load += per_server;
    }
  }
}

}  // namespace distcache
