// SLO saturation bench (extension): offered-load sweep through the open-loop
// virtual-time engine. Every request is timestamped by a Poisson arrival
// process and queues FIFO at its serving node, so each load point yields a
// *measured* latency distribution (hops + queueing + service) rather than an
// analytic sojourn — the request-level counterpart of bench_latency.
//
// Shape to expect: with balanced caching (the paper's power-of-two routing over
// the replicated hot set) the p99 stays essentially flat until the offered load
// approaches the aggregate service capacity; with consistent-hash-style fixed
// routing (static-topk: same cached contents, first-alive candidate) the one
// switch holding the hottest keys saturates far earlier and the tail blows up —
// the paper's intro claim ("the system is bottlenecked by the overloaded nodes,
// resulting in ... long tail latencies") made quantitative.
//
// The lightest load point is cross-checked against the fluid engine's M/M/1
// closed form (FillAnalyticLatency): at low utilization the measured p50 must
// track the analytic one within the histogram's bucket resolution.
//
// --gate: exit nonzero unless balanced caching beats fixed routing on p99 at
// the highest load point (the CI regression gate for the queueing layer).
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "sim/sim_backend.h"

namespace distcache {
namespace {

// Small enough to sweep in seconds, hot enough to saturate: 8x8 switches with
// 50 objects each cache ~44% of the zipf-0.99 read mass; cache nodes serve at
// 6x a storage server, so the fixed-routing hot spine (~7.5% of the offered
// load) saturates near lambda = 80 while the 128 servers' aggregate is 128.
ClusterConfig SloConfig(CachePolicyKind policy) {
  ClusterConfig cfg;
  cfg.mechanism = Mechanism::kDistCache;
  cfg.num_spine = 8;
  cfg.num_racks = 8;
  cfg.servers_per_rack = 16;
  cfg.per_switch_objects = 50;
  cfg.num_keys = 1'000'000;
  cfg.zipf_theta = 0.99;
  cfg.write_ratio = 0.0;
  cfg.seed = 42;
  cfg.cache_policy = policy;
  return cfg;
}

SimBackendConfig SloBackendConfig(CachePolicyKind policy, double lambda) {
  SimBackendConfig bcfg;
  bcfg.cluster = SloConfig(policy);
  bcfg.queue.arrival.rate = lambda;
  bcfg.queue.service_rates = {6.0};  // broadcast to every cache layer
  bcfg.queue.server_service_rate = 1.0;
  bcfg.queue.hop_cost = 0.2;
  return bcfg;
}

BackendStats RunPoint(BackendKind kind, CachePolicyKind policy, double lambda,
                      uint64_t requests) {
  return MakeSimBackend(kind, SloBackendConfig(policy, lambda))->Run(requests);
}

int Run(BenchJson& json, bool gate) {
  PrintHeader(
      "SLO saturation: measured latency vs offered load (open-loop, zipf-0.99)",
      "lambda in storage-server service rates (aggregate 128); balanced = "
      "distcache PoT, fixed = static-topk first-alive routing");
  const uint64_t requests = BenchSmoke() ? 100'000 : 400'000;
  const std::vector<double> sweep = SmokeSweep<double>(
      {8.0, 78.0}, {8.0, 24.0, 48.0, 64.0, 72.0, 78.0});
  json.Config("requests", static_cast<double>(requests));
  json.Series("offered_load", sweep);

  std::printf("%-8s | %28s | %28s\n", "", "balanced (distcache)",
              "fixed routing (static-topk)");
  std::printf("%-8s | %8s %9s %9s | %8s %9s %9s\n", "lambda", "p50", "p99",
              "p99.9", "p50", "p99", "p99.9");

  struct Tail {
    std::vector<double> p50, p99, p999, overloaded;
  };
  Tail balanced, fixed;
  const auto record = [](Tail& t, const LatencyHistogram& h) {
    t.p50.push_back(h.Percentile(50.0));
    t.p99.push_back(h.Percentile(99.0));
    t.p999.push_back(h.Percentile(99.9));
    t.overloaded.push_back(h.infinite_fraction());
  };
  for (double lambda : sweep) {
    const BackendStats bal = RunPoint(BackendKind::kSequential,
                                      CachePolicyKind::kDistCache, lambda,
                                      requests);
    const BackendStats fix = RunPoint(BackendKind::kSequential,
                                      CachePolicyKind::kStaticTopK, lambda,
                                      requests);
    record(balanced, bal.latency);
    record(fixed, fix.latency);
    std::printf("%-8.0f | %8.2f %9.2f %9.2f | %8.2f %9.2f %9.2f\n", lambda,
                balanced.p50.back(), balanced.p99.back(), balanced.p999.back(),
                fixed.p50.back(), fixed.p99.back(), fixed.p999.back());
  }
  json.Series("balanced_p50", balanced.p50);
  json.Series("balanced_p99", balanced.p99);
  json.Series("balanced_p999", balanced.p999);
  json.Series("fixed_p50", fixed.p50);
  json.Series("fixed_p99", fixed.p99);
  json.Series("fixed_p999", fixed.p999);

  // Fluid cross-check at the lightest load: the analytic M/M/1 mixture and the
  // measured distribution must agree on the median at low utilization (the
  // histogram resolves ~4.4% per bucket; 15% covers the model error of
  // fluid-vs-sampled load splits).
  const double light = sweep.front();
  const BackendStats fluid = RunPoint(BackendKind::kFluid,
                                      CachePolicyKind::kDistCache, light,
                                      requests);
  const double fluid_p50 = fluid.latency.Percentile(50.0);
  const double measured_p50 = balanced.p50.front();
  const double rel_err =
      fluid_p50 > 0.0 ? measured_p50 / fluid_p50 - 1.0 : 0.0;
  json.Metric("fluid_p50_light", fluid_p50);
  json.Metric("measured_p50_light", measured_p50);
  std::printf("\nfluid cross-check @ lambda=%.0f: analytic p50=%.3f  "
              "measured p50=%.3f  (%.1f%%)\n",
              light, fluid_p50, measured_p50, 100.0 * rel_err);

  // Gate: at the highest load, balanced caching must keep the tail below the
  // fixed-routing blow-up.
  const double bal_p99 = balanced.p99.back();
  const double fix_p99 = fixed.p99.back();
  json.Metric("gate_balanced_p99", bal_p99);
  json.Metric("gate_fixed_p99", fix_p99);
  const bool tail_flat = bal_p99 < fix_p99;
  std::printf("gate @ lambda=%.0f: balanced p99=%.2f %s fixed p99=%.2f%s\n",
              sweep.back(), bal_p99, tail_flat ? "<" : ">=", fix_p99,
              gate ? (tail_flat ? "  [gate PASS]" : "  [gate FAIL]") : "");
  if (gate && !tail_flat) {
    std::fprintf(stderr,
                 "bench_latency_slo: gate failed: balanced p99 (%.2f) must be "
                 "below fixed-routing p99 (%.2f) at lambda=%.0f\n",
                 bal_p99, fix_p99, sweep.back());
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace distcache

int main(int argc, char** argv) {
  distcache::BenchJson json(argc, argv, "latency_slo", {"gate"});
  return distcache::Run(json, json.flags().GetBool("gate", false));
}
