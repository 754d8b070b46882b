#include "sim/pok_process.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <limits>
#include <string>

namespace distcache {
namespace {

PokProcess::Config BaseConfig(size_t layers, size_t choices, double load) {
  PokProcess::Config cfg;
  cfg.num_objects = 128;
  cfg.layer_sizes = std::vector<size_t>(layers, 8);
  cfg.total_rate = load * static_cast<double>(layers * 8);
  cfg.zipf_theta = 0.99;
  cfg.pmf_cap = 1.0 / (2.0 * cfg.total_rate);  // theorem precondition at this rate
  cfg.choices = choices;
  return cfg;
}

// The Lemma 2 geometry: two layers of 8 unit-rate nodes, two choices, zipf-0.9
// objects at total rate `rate`.
PokProcess::Config TwoChoiceConfig(double rate, ChoicePolicy policy) {
  PokProcess::Config cfg;
  cfg.num_objects = 128;
  cfg.layer_sizes = {8, 8};
  cfg.service_rate = 1.0;
  cfg.total_rate = rate;
  cfg.zipf_theta = 0.9;
  cfg.choices = 2;
  cfg.policy = policy;
  return cfg;
}

TEST(PokProcess, TwoLayerLightLoadStationary) {
  PokProcess p(BaseConfig(2, 2, 0.5));
  const auto result = p.Run(400.0);
  EXPECT_TRUE(result.stationary) << result.drift;
}

TEST(PokProcess, TwoLayerHighLoadStationary) {
  PokProcess p(BaseConfig(2, 2, 0.85));
  EXPECT_TRUE(p.Run(500.0).stationary);
}

TEST(PokProcess, OverloadUnstable) {
  PokProcess p(BaseConfig(2, 2, 1.3));
  const auto result = p.Run(300.0);
  EXPECT_FALSE(result.stationary);
  EXPECT_GT(result.backlog_series.back(), 500.0);
}

TEST(PokProcess, MoreChoicesReduceBacklog) {
  const auto two = PokProcess(BaseConfig(4, 2, 0.8)).Run(400.0);
  const auto four = PokProcess(BaseConfig(4, 4, 0.8)).Run(400.0);
  EXPECT_LE(four.backlog_series.back(), two.backlog_series.back() + 50.0);
}

TEST(PokProcess, SingleChoiceWorstAtEqualCapacity) {
  // choices=1 over the same node pool is the single-hash strawman.
  const auto one = PokProcess(BaseConfig(2, 1, 0.8)).Run(400.0);
  const auto two = PokProcess(BaseConfig(2, 2, 0.8)).Run(400.0);
  EXPECT_LT(two.drift, one.drift + 0.01);
}

TEST(PokProcess, WorkConservation) {
  PokProcess p(BaseConfig(3, 3, 0.6));
  const auto result = p.Run(400.0);
  // Everything that arrived is either served or still queued.
  EXPECT_EQ(result.arrivals,
            result.departures + static_cast<uint64_t>(result.backlog_series.back()));
}

TEST(PokProcess, ArrivalRateMatchesConfig) {
  PokProcess p(BaseConfig(2, 2, 0.5));
  const auto result = p.Run(400.0);
  EXPECT_NEAR(static_cast<double>(result.arrivals) / 400.0, 8.0, 1.0);
}

TEST(PokProcess, FeasibilityCrossCheck) {
  // If the L-layer matching is feasible with slack, the PoK process is stationary.
  PokProcess::Config cfg = BaseConfig(3, 3, 0.7);
  PokProcess p(cfg);
  DiscreteDistribution dist(CappedZipfPmf(cfg.num_objects, 0.99, cfg.pmf_cap));
  std::vector<double> rates(cfg.num_objects);
  for (size_t i = 0; i < cfg.num_objects; ++i) {
    rates[i] = cfg.total_rate * dist.Pmf(i);
  }
  ASSERT_TRUE(p.graph().FeasibleMatching(rates, {1.0, 1.0, 1.0}));
  EXPECT_TRUE(p.Run(500.0).stationary);
}

TEST(PokProcess, LightLoadIsStationary) {
  // 25% of 16 capacity.
  PokProcess p(TwoChoiceConfig(4.0, ChoicePolicy::kShortestQueue));
  const auto result = p.Run(400.0);
  EXPECT_TRUE(result.stationary) << "drift=" << result.drift;
  EXPECT_LT(result.backlog_series.back(), 50.0);
}

TEST(PokProcess, ModerateLoadStationaryUnderPoT) {
  // Lemma 2 regime: ~70% of aggregate capacity, skewed objects; PoT keeps it stable.
  PokProcess p(TwoChoiceConfig(11.0, ChoicePolicy::kShortestQueue));
  const auto result = p.Run(600.0);
  EXPECT_TRUE(result.stationary) << "drift=" << result.drift;
}

TEST(PokProcess, OverloadIsNotStationary) {
  // 150% of capacity.
  PokProcess p(TwoChoiceConfig(24.0, ChoicePolicy::kShortestQueue));
  const auto result = p.Run(400.0);
  EXPECT_FALSE(result.stationary);
  EXPECT_GT(result.backlog_series.back(), 1000.0);
}

TEST(PokProcess, SingleHashUnstableWherePoTIsStable) {
  // Lemma 3's life-or-death gap: at a rate PoT sustains, one hash blows up because
  // some node's hashed-in objects exceed its service rate.
  const double rate = 11.0;
  PokProcess pot(TwoChoiceConfig(rate, ChoicePolicy::kShortestQueue));
  const auto pot_result = pot.Run(600.0);
  EXPECT_TRUE(pot_result.stationary);

  PokProcess::Config single_cfg = TwoChoiceConfig(rate, ChoicePolicy::kShortestQueue);
  // Same aggregate capacity for fairness: one layer of 16 nodes, one choice.
  single_cfg.layer_sizes = {16};
  single_cfg.choices = 1;
  int unstable = 0;
  for (uint64_t seed = 0; seed < 5; ++seed) {
    single_cfg.seed = seed;
    PokProcess single(single_cfg);
    unstable += single.Run(600.0).stationary ? 0 : 1;
  }
  EXPECT_GE(unstable, 3) << "single-hash should blow up with constant probability";
}

TEST(PokProcess, RandomOfTwoWorseThanPoT) {
  // Load-oblivious random-of-two splits 50/50 and overloads the hot pair member.
  const double rate = 13.0;
  PokProcess pot(TwoChoiceConfig(rate, ChoicePolicy::kShortestQueue));
  PokProcess rnd(TwoChoiceConfig(rate, ChoicePolicy::kRandom));
  const auto pot_result = pot.Run(500.0);
  const auto rnd_result = rnd.Run(500.0);
  EXPECT_LE(pot_result.drift, rnd_result.drift + 0.01);
  EXPECT_LE(pot_result.backlog_series.back(),
            rnd_result.backlog_series.back() + 100.0);
}

TEST(PokProcess, ArrivalsMatchConfiguredRate) {
  PokProcess p(TwoChoiceConfig(8.0, ChoicePolicy::kShortestQueue));
  const auto result = p.Run(500.0);
  EXPECT_NEAR(static_cast<double>(result.arrivals) / 500.0, 8.0, 0.8);
}

TEST(PokProcess, DeparturesTrackArrivalsWhenStable) {
  PokProcess p(TwoChoiceConfig(6.0, ChoicePolicy::kShortestQueue));
  const auto result = p.Run(500.0);
  EXPECT_NEAR(static_cast<double>(result.departures) /
                  static_cast<double>(result.arrivals),
              1.0, 0.05);
}

// Cross-check against the matching certificate (Lemma 2): when the max-flow problem
// is feasible with slack, the simulated PoT process is stationary.
TEST(PokProcess, FeasibleMatchingImpliesStationary) {
  PokProcess::Config cfg = TwoChoiceConfig(10.0, ChoicePolicy::kShortestQueue);
  PokProcess p(cfg);
  ZipfDistribution dist(cfg.num_objects, cfg.zipf_theta);
  std::vector<double> rates(cfg.num_objects);
  for (uint64_t i = 0; i < cfg.num_objects; ++i) {
    rates[i] = cfg.total_rate * dist.Pmf(i);
  }
  ASSERT_TRUE(p.graph().FeasibleMatching(rates, {cfg.service_rate, cfg.service_rate}));
  EXPECT_TRUE(p.Run(600.0).stationary);
}

// A config the process cannot run aborts with a message in every build mode.
// TextOf(x) is how the message prints x (%g): 0, -1, inf, nan.
std::string TextOf(double x) {
  char text[32];
  std::snprintf(text, sizeof(text), "%g", x);
  return text;
}

TEST(PokProcessDeathTest, RejectsChoicesOutsideTheLayerCount) {
  EXPECT_DEATH(PokProcess(BaseConfig(2, 3, 0.5)), "choices=3 \\(want 1..2\\)");
  EXPECT_DEATH(PokProcess(BaseConfig(2, 0, 0.5)), "choices=0 \\(want 1..2\\)");
}

TEST(PokProcessDeathTest, RejectsANonPositiveOrNonFiniteRate) {
  for (double rate : {0.0, -1.0, std::numeric_limits<double>::infinity(), std::nan("")}) {
    PokProcess::Config cfg = BaseConfig(2, 2, 0.5);
    cfg.total_rate = rate;
    EXPECT_DEATH(PokProcess{cfg}, "choices=2 \\(want 1..2\\), total_rate=" +
                                      TextOf(rate) + ", service_rate=1 \\(want")
        << rate;
    cfg = BaseConfig(2, 2, 0.5);
    cfg.service_rate = rate;
    EXPECT_DEATH(PokProcess{cfg}, "total_rate=8, service_rate=" + TextOf(rate) + " \\(want")
        << rate;
  }
}

TEST(PokProcessDeathTest, RejectsAnEmptyLayerListOrLayer) {
  PokProcess::Config cfg = BaseConfig(2, 1, 0.5);
  cfg.layer_sizes = {};
  EXPECT_DEATH(PokProcess{cfg}, "no cache layers");
  cfg.layer_sizes = {8, 0};
  EXPECT_DEATH(PokProcess{cfg}, "layer 1 has no nodes");
}

}  // namespace
}  // namespace distcache
