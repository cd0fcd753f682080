#include "metrics/distance.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <numeric>

#include "exec/thread_pool.hpp"
#include "graph/algorithms.hpp"
#include "graph/builders.hpp"
#include "metrics/summary.hpp"
#include "util/errors.hpp"
#include "util/stop_token.hpp"

namespace orbis::metrics {
namespace {

/// Per-source oracle: one plain BFS from every node.
DistanceDistribution oracle(const Graph& g) {
  DistanceDistribution dist;
  dist.num_nodes = g.num_nodes();
  for (NodeId source = 0; source < g.num_nodes(); ++source) {
    for (const auto d : bfs_distances(g, source)) {
      if (d < 0) {
        ++dist.unreachable_pairs;
        continue;
      }
      const auto x = static_cast<std::size_t>(d);
      if (x >= dist.counts.size()) dist.counts.resize(x + 1, 0);
      ++dist.counts[x];
    }
  }
  return dist;
}

void expect_matches_oracle(const Graph& g) {
  const auto expected = oracle(g);
  const auto got = distance_distribution(g);
  EXPECT_EQ(got.num_nodes, expected.num_nodes);
  EXPECT_EQ(got.counts, expected.counts);
  EXPECT_EQ(got.unreachable_pairs, expected.unreachable_pairs);
}

/// Sparse random graph: several components and isolated nodes.
Graph sparse_random(NodeId n, std::uint64_t seed) {
  util::Rng rng(seed);
  return builders::gnm(n, n / 2, rng);
}

TEST(DistanceDistribution, CompleteGraph) {
  const auto dist = distance_distribution(builders::complete(4));
  ASSERT_EQ(dist.counts.size(), 2u);
  EXPECT_EQ(dist.counts[0], 4u);    // self-pairs
  EXPECT_EQ(dist.counts[1], 12u);   // ordered pairs
  EXPECT_DOUBLE_EQ(dist.mean(), 1.0);
  EXPECT_DOUBLE_EQ(dist.stddev(), 0.0);
  EXPECT_EQ(dist.diameter(), 1u);
}

TEST(DistanceDistribution, PathOf3HandComputed) {
  const auto dist = distance_distribution(builders::path(3));
  ASSERT_EQ(dist.counts.size(), 3u);
  EXPECT_EQ(dist.counts[0], 3u);
  EXPECT_EQ(dist.counts[1], 4u);
  EXPECT_EQ(dist.counts[2], 2u);
  EXPECT_NEAR(dist.mean(), 8.0 / 6.0, 1e-12);
  EXPECT_EQ(dist.diameter(), 2u);
}

TEST(DistanceDistribution, PaperPdfNormalization) {
  // d(x) = counts/n^2 including self-pairs (paper §2): sums to 1 for a
  // connected graph.
  const auto dist = distance_distribution(builders::cycle(7));
  const auto pdf = dist.pdf();
  const double total = std::accumulate(pdf.begin(), pdf.end(), 0.0);
  EXPECT_NEAR(total, 1.0, 1e-12);
  EXPECT_NEAR(pdf[0], 1.0 / 7.0, 1e-12);
}

TEST(DistanceDistribution, StarMean) {
  // Star n=5: ordered pairs — 8 at distance 1, 12 at distance 2.
  const auto dist = distance_distribution(builders::star(5));
  EXPECT_EQ(dist.counts[1], 8u);
  EXPECT_EQ(dist.counts[2], 12u);
  EXPECT_NEAR(dist.mean(), (8.0 + 24.0) / 20.0, 1e-12);
}

TEST(DistanceDistribution, CycleEvenDiameter) {
  const auto dist = distance_distribution(builders::cycle(8));
  EXPECT_EQ(dist.diameter(), 4u);
  // Each node: 2 at distances 1..3, 1 at distance 4.
  EXPECT_EQ(dist.counts[1], 16u);
  EXPECT_EQ(dist.counts[4], 8u);
}

TEST(DistanceDistribution, DisconnectedCountsUnreachable) {
  Graph g(4);
  g.add_edge(0, 1);
  g.add_edge(2, 3);
  const auto dist = distance_distribution(g);
  EXPECT_EQ(dist.unreachable_pairs, 8u);  // each node misses 2 others
  EXPECT_DOUBLE_EQ(dist.mean(), 1.0);     // only the 4 adjacent pairs
}

TEST(DistanceDistribution, EmptyGraph) {
  const auto dist = distance_distribution(Graph(0));
  EXPECT_TRUE(dist.counts.empty());
  EXPECT_DOUBLE_EQ(dist.mean(), 0.0);
  EXPECT_DOUBLE_EQ(dist.stddev(), 0.0);
}

TEST(DistanceDistribution, StddevHandComputed) {
  // Path of 3 (pairs >= 1): four at 1, two at 2.
  // mean = 4/3; E[x^2] = (4 + 8)/6 = 2; var = 2 - 16/9 = 2/9.
  const auto dist = distance_distribution(builders::path(3));
  EXPECT_NEAR(dist.stddev(), std::sqrt(2.0 / 9.0), 1e-12);
}

TEST(DistanceDistribution, SampledConvergesToExact) {
  util::Rng rng(5);
  const auto g = builders::grid(8, 8);
  const auto exact = distance_distribution(g);
  util::Rng sample_rng(7);
  const auto sampled = sampled_distance_distribution(g, 32, sample_rng);
  EXPECT_NEAR(sampled.mean(), exact.mean(), 0.25);
  // num_sources >= n short-circuits to the exact computation.
  util::Rng rng2(9);
  const auto full = sampled_distance_distribution(g, 64, rng2);
  EXPECT_EQ(full.counts, exact.counts);
}

TEST(DistanceDistribution, MatchesOracleAroundBatchBoundaries) {
  // One batch holds 64 sources: sizes on both sides of one and two.
  for (const NodeId n : {0u, 1u, 63u, 64u, 65u, 129u}) {
    SCOPED_TRACE(n);
    expect_matches_oracle(sparse_random(n, n));
    expect_matches_oracle(builders::cycle(n < 3 ? 3 : n));
  }
}

TEST(DistanceDistribution, MatchesOracleWithIsolatedNodesAndComponents) {
  Graph g(150);
  for (NodeId v = 0; v + 1 < 40; ++v) g.add_edge(v, v + 1);  // a path
  for (NodeId v = 41; v < 100; ++v) g.add_edge(40, v);       // a star
  for (NodeId v = 100; v < 130; ++v) {                        // a clique
    for (NodeId w = v + 1; w < 130; ++w) g.add_edge(v, w);
  }
  // 130..149 stay isolated.
  expect_matches_oracle(g);
}

TEST(DistanceDistribution, MatchesOracleFarBeyond64Levels) {
  const auto g = builders::path(200);
  expect_matches_oracle(g);
  EXPECT_EQ(distance_distribution(g).diameter(), 199u);
}

TEST(DistanceDistribution, MatchesOracleOnStarGridAndRandomGraph) {
  expect_matches_oracle(builders::star(300));
  expect_matches_oracle(builders::grid(30, 40));
  util::Rng rng(2000);
  expect_matches_oracle(builders::gnm(2000, 6000, rng));
}

TEST(DistanceDistribution, IdenticalAtAnyPoolSize) {
  util::Rng rng(17);
  const auto g = builders::gnm(1000, 2500, rng);
  exec::ThreadPool one(1);
  exec::ThreadPool four(4);
  const auto serial = distance_distribution(g, util::StopToken{}, one);
  const auto sharded = distance_distribution(g, util::StopToken{}, four);
  EXPECT_EQ(serial.counts, sharded.counts);
  EXPECT_EQ(serial.unreachable_pairs, sharded.unreachable_pairs);
  const auto expected = oracle(g);
  EXPECT_EQ(sharded.counts, expected.counts);
  EXPECT_EQ(sharded.unreachable_pairs, expected.unreachable_pairs);
}

TEST(DistanceDistribution, ScalarMetricsEqualOracleBitForBit) {
  util::Rng rng(23);
  const auto g = builders::gnm(800, 1600, rng);
  SummaryOptions options;
  options.with_spectrum = false;
  options.with_s2 = false;
  const auto metrics = compute_scalar_metrics(g, options);
  const auto expected = oracle(largest_connected_component(g).graph);
  EXPECT_EQ(metrics.mean_distance, expected.mean());
  EXPECT_EQ(metrics.distance_stddev, expected.stddev());
}

TEST(DistanceDistribution, RequestedStopThrows) {
  util::StopSource source;
  source.request_stop();
  EXPECT_THROW(distance_distribution(builders::path(10), source.token()),
               InterruptedError);
  exec::ThreadPool four(4);
  EXPECT_THROW(
      distance_distribution(builders::path(500), source.token(), four),
      InterruptedError);
}

TEST(DistanceDistribution, SampledRescalesUnreachablePairs) {
  // Two disjoint 50-node paths: every source misses the other 50 nodes,
  // so half of the n^2 ordered pairs are unreachable.
  Graph g(100);
  for (NodeId v = 0; v + 1 < 50; ++v) g.add_edge(v, v + 1);
  for (NodeId v = 50; v + 1 < 100; ++v) g.add_edge(v, v + 1);
  util::Rng rng(3);
  const auto sampled = sampled_distance_distribution(g, 25, rng);
  EXPECT_EQ(sampled.unreachable_pairs, 5000u);
  const auto reached = std::accumulate(sampled.counts.begin(),
                                       sampled.counts.end(), std::uint64_t{0});
  EXPECT_EQ(reached + sampled.unreachable_pairs, 100u * 100u);
}

TEST(DistanceDistribution, AverageDistanceWrapper) {
  EXPECT_DOUBLE_EQ(average_distance(builders::complete(5)), 1.0);
}

}  // namespace
}  // namespace orbis::metrics
