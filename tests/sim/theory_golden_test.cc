// Golden values of the Lemma 1–3 analysis: the two-choice queueing process and
// the two-hash cache graph on fixed seeds. Every figure is pinned by value (a
// backlog sample is a whole job count, so its value is its bit pattern; drift
// and rates by bit pattern), so a refactor of the process or the graph that
// moves one random draw or one node choice fails here.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/zipf.h"
#include "matching/cache_graph.h"
#include "sim/pok_process.h"

namespace distcache {
namespace {

struct PinnedRun {
  uint64_t arrivals;
  uint64_t departures;
  double max_queue;
  uint64_t drift_bits;
  bool stationary;
  std::vector<uint32_t> backlog;
};

// Two layers of 8 unit-rate nodes, the Lemma 2 geometry.
PokProcess::Result RunTwoLayer(size_t objects, double rate, double theta,
                               double pmf_cap, ChoicePolicy policy, uint64_t seed,
                               double duration) {
  PokProcess::Config cfg;
  cfg.num_objects = objects;
  cfg.layer_sizes = {8, 8};
  cfg.service_rate = 1.0;
  cfg.total_rate = rate;
  cfg.zipf_theta = theta;
  cfg.pmf_cap = pmf_cap;
  cfg.choices = 2;
  cfg.policy = policy;
  cfg.seed = seed;
  return PokProcess(cfg).Run(duration);
}

void ExpectPinned(const PokProcess::Result& got, const PinnedRun& want) {
  EXPECT_EQ(got.arrivals, want.arrivals);
  EXPECT_EQ(got.departures, want.departures);
  EXPECT_EQ(std::bit_cast<uint64_t>(got.max_queue),
            std::bit_cast<uint64_t>(want.max_queue));
  EXPECT_EQ(std::bit_cast<uint64_t>(got.drift), want.drift_bits);
  EXPECT_EQ(got.stationary, want.stationary);
  ASSERT_EQ(got.backlog_series.size(), want.backlog.size());
  for (size_t i = 0; i < want.backlog.size(); ++i) {
    EXPECT_EQ(std::bit_cast<uint64_t>(got.backlog_series[i]),
              std::bit_cast<uint64_t>(static_cast<double>(want.backlog[i])))
        << "sample " << i;
  }
}

TEST(TheoryGolden, PowerOfTwoRunIsPinned) {
  ExpectPinned(RunTwoLayer(128, 11.0, 0.9, 0.0, ChoicePolicy::kShortestQueue, 7, 40.0),
               {432, 403, 6.0, 0xbfb217de1f91217eULL, true,
                {4,  10, 12, 19, 19, 14, 12, 13, 19, 28, 30, 31, 24, 23,
                 23, 29, 22, 29, 31, 26, 26, 29, 30, 24, 28, 17, 21, 15,
                 13, 16, 17, 14, 20, 23, 23, 25, 27, 21, 22, 29}});
}

TEST(TheoryGolden, RandomOfTwoRunIsPinned) {
  ExpectPinned(RunTwoLayer(128, 13.0, 0.9, 0.0, ChoicePolicy::kRandom, 3, 40.0),
               {521, 402, 53.0, 0x40085ad9e38345aeULL, false,
                {7,  14, 8,  13, 14, 17, 23, 33,  35,  35,  39,  36,  41,  45,
                 42, 50, 47, 55, 57, 63, 64, 63,  61,  78,  82,  88,  89,  93,
                 94, 98, 100, 108, 109, 120, 116, 117, 106, 114, 114, 119}});
}

TEST(TheoryGolden, CappedPowerOfTwoRunIsPinned) {
  // The bench_lemma23 regime: capped zipf-0.99 at 85% of the 16-node aggregate.
  ExpectPinned(RunTwoLayer(64, 0.85 * 16.0, 0.99, 1.0 / (2.0 * 0.85 * 16.0),
                           ChoicePolicy::kShortestQueue, 2, 30.0),
               {387, 329, 11.0, 0x3f9999999999999aULL, true,
                {6,  10, 11, 14, 20, 14, 20, 28, 24, 19, 18, 22, 28, 29, 35,
                 47, 55, 53, 49, 54, 50, 46, 47, 43, 43, 47, 49, 49, 53, 58}});
}

// The candidate nodes {layer-0 node, layer-1 node} of objects 0..15 (global
// node ids: layer 0 is 0..7, layer 1 is 8..15).
std::vector<std::pair<size_t, size_t>> ChoiceSets(uint64_t seed) {
  CacheGraph g(16, {8, 8}, seed);
  std::vector<std::pair<size_t, size_t>> sets;
  for (uint64_t i = 0; i < 16; ++i) {
    sets.emplace_back(g.NodeOf(i, 0), g.NodeOf(i, 1));
  }
  return sets;
}

TEST(TheoryGolden, TwoHashChoiceSetsArePinned) {
  const std::vector<std::pair<size_t, size_t>> seed1 = {
      {4, 9},  {5, 11}, {2, 8},  {1, 8},  {7, 15}, {2, 15}, {1, 15}, {5, 12},
      {5, 15}, {0, 10}, {1, 8},  {1, 14}, {4, 13}, {7, 9},  {2, 13}, {2, 13}};
  const std::vector<std::pair<size_t, size_t>> seed5 = {
      {4, 9},  {5, 15}, {4, 14}, {1, 11}, {0, 13}, {6, 12}, {6, 12}, {2, 10},
      {6, 15}, {3, 12}, {4, 14}, {6, 14}, {5, 10}, {3, 12}, {6, 9},  {3, 9}};
  EXPECT_EQ(ChoiceSets(1), seed1);
  EXPECT_EQ(ChoiceSets(5), seed5);
}

TEST(TheoryGolden, MaxSupportedRateBitsArePinned) {
  const std::vector<double> capped = CappedZipfPmf(64, 0.99, 1.0 / 16.0);
  const std::vector<double> uniform(64, 1.0 / 64.0);
  // Per seed: capped zipf at the default and at 1% tolerance, uniform at 1%.
  const uint64_t want[3][3] = {
      {0x402c7c0000000000ULL, 0x402c400000000000ULL, 0x4030000000000000ULL},
      {0x402d400000000000ULL, 0x402d400000000000ULL, 0x402f400000000000ULL},
      {0x402cd00000000000ULL, 0x402cc00000000000ULL, 0x4030000000000000ULL}};
  for (uint64_t seed = 0; seed < 3; ++seed) {
    const CacheGraph g(64, {8, 8}, seed);
    EXPECT_EQ(std::bit_cast<uint64_t>(g.MaxSupportedRate(capped, 1.0)), want[seed][0]);
    EXPECT_EQ(std::bit_cast<uint64_t>(g.MaxSupportedRate(capped, 1.0, 0.01)),
              want[seed][1]);
    EXPECT_EQ(std::bit_cast<uint64_t>(g.MaxSupportedRate(uniform, 1.0, 0.01)),
              want[seed][2]);
  }
}

TEST(TheoryGolden, RhoMaxBitsArePinned) {
  const std::vector<double> capped = CappedZipfPmf(64, 0.99, 1.0 / 16.0);
  std::vector<double> rates(64);
  for (size_t i = 0; i < 64; ++i) {
    rates[i] = 12.0 * capped[i];
  }
  EXPECT_EQ(std::bit_cast<uint64_t>(CacheGraph(64, {8, 8}, 1).RhoMax(rates, 1.0)),
            0x3fea3e25605d82aaULL);
}

}  // namespace
}  // namespace distcache
