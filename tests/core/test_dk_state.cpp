#include "core/dk_state.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <map>
#include <set>
#include <stdexcept>

#include "graph/builders.hpp"
#include "metrics/clustering.hpp"
#include "metrics/scalar.hpp"
#include "topo/hot.hpp"
#include "util/rng.hpp"

namespace orbis::dk {
namespace {

/// Applies `count` random degree-preserving double-edge swaps through the
/// state (the operation DkState is designed for).
void churn(DkState& state, std::size_t count, util::Rng& rng,
           bool require_jdd_preserving) {
  std::size_t done = 0;
  std::size_t guard = 0;
  while (done < count && guard++ < count * 200) {
    const auto& index = state.index();
    if (index.num_edges() < 2) break;
    const auto i = rng.uniform(index.num_edges());
    auto j = rng.uniform(index.num_edges() - 1);
    if (j >= i) ++j;
    Edge e1 = index.edge_at(static_cast<std::uint32_t>(i));
    Edge e2 = index.edge_at(static_cast<std::uint32_t>(j));
    if (rng.bernoulli(0.5)) std::swap(e2.u, e2.v);
    const NodeId a = e1.u, b = e1.v, c = e2.u, d = e2.v;
    if (a == c || a == d || b == c || b == d) continue;
    if (index.has_edge(a, d) || index.has_edge(c, b)) continue;
    if (require_jdd_preserving &&
        state.frozen_degree(b) != state.frozen_degree(d) &&
        state.frozen_degree(a) != state.frozen_degree(c)) {
      continue;
    }
    state.remove_edge(a, b);
    state.remove_edge(c, d);
    state.add_edge(a, d);
    state.add_edge(c, b);
    ++done;
  }
}

TEST(DkState, InitialStateMatchesExtraction) {
  util::Rng rng(5);
  const auto g = builders::gnm(30, 70, rng);
  DkState state(g, TrackLevel::full_three_k);
  EXPECT_EQ(state.jdd(), JointDegreeDistribution::from_graph(g));
  EXPECT_EQ(state.three_k(), ThreeKProfile::from_graph(g));
  EXPECT_NEAR(state.likelihood_s(), metrics::likelihood_s(g), 1e-9);
  EXPECT_NEAR(state.mean_clustering(), metrics::mean_clustering(g), 1e-12);
  EXPECT_TRUE(state.to_graph() == g);
}

TEST(DkState, SwapChurnStaysConsistentLevel3) {
  for (const std::uint64_t seed : {1ull, 2ull, 3ull}) {
    util::Rng rng(seed);
    const auto g = builders::gnm(25, 60, rng);
    DkState state(g, TrackLevel::full_three_k);
    churn(state, 200, rng, /*require_jdd_preserving=*/false);
    ASSERT_NO_THROW(state.verify_consistency()) << "seed " << seed;
    // Cross-check scalars against fresh metric computations.
    EXPECT_NEAR(state.mean_clustering(),
                metrics::mean_clustering(state.to_graph()), 1e-9);
    EXPECT_NEAR(state.likelihood_s(),
                metrics::likelihood_s(state.to_graph()), 1e-6);
  }
}

// Property sweep for the CSR-backed state: a LONG random swap sequence
// must keep the incrementally maintained histograms exactly equal to a
// from-scratch recount, across seeds and tracking levels.
TEST(DkState, LongChurnMatchesRecountAcrossSeedsAndLevels) {
  for (const TrackLevel level :
       {TrackLevel::jdd_only, TrackLevel::three_k_scalars,
        TrackLevel::full_three_k}) {
    for (const std::uint64_t seed : {11ull, 23ull, 47ull}) {
      util::Rng rng(seed);
      const auto g = builders::gnm(60, 180, rng);
      DkState state(g, level);
      churn(state, 1500, rng, /*require_jdd_preserving=*/false);
      ASSERT_NO_THROW(state.verify_consistency())
          << "seed " << seed << " level " << static_cast<int>(level);
      const Graph now = state.to_graph();
      EXPECT_EQ(state.jdd(), JointDegreeDistribution::from_graph(now));
      if (level == TrackLevel::full_three_k) {
        // The histograms must match an independent full extraction.
        EXPECT_EQ(state.three_k(), ThreeKProfile::from_graph(now));
      }
      if (level != TrackLevel::jdd_only) {
        const auto fresh = ThreeKProfile::from_graph(now);
        EXPECT_NEAR(state.second_order_likelihood(),
                    fresh.second_order_likelihood(),
                    1e-9 * (1.0 + fresh.second_order_likelihood()));
        EXPECT_NEAR(state.mean_clustering(), metrics::mean_clustering(now),
                    1e-9);
      }
    }
  }
}

// The shared-index constructor must mutate the caller's EdgeIndex in
// lockstep with the histograms: after churn, the index IS the graph.
TEST(DkState, SharedIndexStaysEquivalentToReplayedGraph) {
  util::Rng rng(31);
  const auto g = builders::gnm(40, 100, rng);
  EdgeIndex index(g);
  DkState state(index, TrackLevel::full_three_k);
  EXPECT_EQ(&state.index(), &index);

  // Replay the same swaps against a plain Graph and compare.
  Graph replay = g;
  std::size_t done = 0;
  std::size_t guard = 0;
  while (done < 400 && guard++ < 400 * 200) {
    const auto i = index.sample_edge(rng);
    const auto j = index.sample_edge(rng);
    Edge e1 = index.edge_at(i);
    Edge e2 = index.edge_at(j);
    if (rng.bernoulli(0.5)) std::swap(e2.u, e2.v);
    const NodeId a = e1.u, b = e1.v, c = e2.u, d = e2.v;
    if (a == c || a == d || b == c || b == d) continue;
    if (index.has_edge(a, d) || index.has_edge(c, b)) continue;
    state.remove_edge(a, b);
    state.remove_edge(c, d);
    state.add_edge(a, d);
    state.add_edge(c, b);
    ASSERT_TRUE(replay.remove_edge(a, b));
    ASSERT_TRUE(replay.remove_edge(c, d));
    ASSERT_TRUE(replay.add_edge(a, d));
    ASSERT_TRUE(replay.add_edge(c, b));
    ++done;
  }
  ASSERT_GT(done, 0u);
  EXPECT_TRUE(state.to_graph() == replay);
  for (NodeId v = 0; v < replay.num_nodes(); ++v) {
    EXPECT_EQ(index.current_degree(v), replay.degree(v));
  }
  ASSERT_NO_THROW(state.verify_consistency());
  EXPECT_EQ(state.three_k(), ThreeKProfile::from_graph(replay));
}

TEST(DkState, ScalarsLevelTracksWithoutHistograms) {
  util::Rng rng(15);
  const auto g = builders::gnm(25, 60, rng);
  DkState state(g, TrackLevel::three_k_scalars);
  EXPECT_NEAR(state.mean_clustering(), metrics::mean_clustering(g), 1e-12);
  churn(state, 200, rng, /*require_jdd_preserving=*/false);
  ASSERT_NO_THROW(state.verify_consistency());
  EXPECT_NEAR(state.mean_clustering(),
              metrics::mean_clustering(state.to_graph()), 1e-9);
  const double fresh_s2 =
      ThreeKProfile::from_graph(state.to_graph()).second_order_likelihood();
  EXPECT_NEAR(state.second_order_likelihood(), fresh_s2,
              1e-9 * (1.0 + fresh_s2));
  // Histograms intentionally not maintained at this level.
  EXPECT_TRUE(state.three_k().wedges().empty());
}

TEST(DkState, SwapChurnStaysConsistentLevel2) {
  util::Rng rng(9);
  const auto g = builders::gnm(40, 90, rng);
  DkState state(g, TrackLevel::jdd_only);
  churn(state, 300, rng, false);
  ASSERT_NO_THROW(state.verify_consistency());
}

TEST(DkState, JddPreservingChurnKeepsJddFixed) {
  util::Rng rng(11);
  const auto g = builders::gnm(30, 90, rng);
  const auto original_jdd = JointDegreeDistribution::from_graph(g);
  DkState state(g, TrackLevel::full_three_k);
  churn(state, 150, rng, /*require_jdd_preserving=*/true);
  EXPECT_EQ(state.jdd(), original_jdd);
  EXPECT_EQ(state.jdd(),
            JointDegreeDistribution::from_graph(state.to_graph()));
  // S is fully determined by the JDD, so it must be unchanged too.
  EXPECT_NEAR(state.likelihood_s(), metrics::likelihood_s(g), 1e-6);
}

TEST(DkState, TriangleCountsPerNodeTracked) {
  // Start from the complete graph on 5 nodes: every node sits in C(4,2)=6
  // triangles.
  DkState state(builders::complete(5), TrackLevel::full_three_k);
  for (NodeId v = 0; v < 5; ++v) EXPECT_EQ(state.triangles_at(v), 6);
  EXPECT_DOUBLE_EQ(state.mean_clustering(), 1.0);
}

TEST(DkState, RemoveAddRoundTripRestoresEverything) {
  util::Rng rng(13);
  const auto g = builders::gnp(20, 0.3, rng);
  DkState state(g, TrackLevel::full_three_k);
  const auto jdd_before = state.jdd();
  const auto three_k_before = state.three_k();
  const double s_before = state.likelihood_s();
  const double s2_before = state.second_order_likelihood();
  const double c_before = state.mean_clustering();

  const Edge e = state.index().edge_at(0);
  state.remove_edge(e.u, e.v);
  state.add_edge(e.u, e.v);

  EXPECT_EQ(state.jdd(), jdd_before);
  EXPECT_EQ(state.three_k(), three_k_before);
  EXPECT_NEAR(state.likelihood_s(), s_before, 1e-9);
  EXPECT_NEAR(state.second_order_likelihood(), s2_before, 1e-9);
  EXPECT_NEAR(state.mean_clustering(), c_before, 1e-12);
}

TEST(DkState, PreconditionViolationsThrow) {
  DkState state(builders::path(4), TrackLevel::jdd_only);
  EXPECT_THROW(state.remove_edge(0, 2), std::invalid_argument);  // absent
  EXPECT_THROW(state.add_edge(0, 1), std::invalid_argument);     // exists
  EXPECT_THROW(state.add_edge(2, 2), std::invalid_argument);     // loop
}

TEST(DkState, AddBeyondFrozenDegreeThrows) {
  // Degrees are frozen at construction: pushing a node past its frozen
  // degree would silently corrupt the histograms, so the CSR rejects it.
  DkState state(builders::path(4), TrackLevel::jdd_only);  // 0-1-2-3
  EXPECT_THROW(state.add_edge(0, 2), std::invalid_argument);  // deg(0) = 1
}

TEST(DkState, BinListenerSeesNetDeltas) {
  DkState state(builders::cycle(6), TrackLevel::full_three_k);
  std::int64_t net = 0;
  std::size_t calls = 0;
  state.set_bin_listener([&](BinKind, std::uint64_t, std::int64_t before,
                             std::int64_t after) {
    net += after - before;
    ++calls;
  });
  const Edge e = state.index().edge_at(0);
  state.remove_edge(e.u, e.v);
  EXPECT_GT(calls, 0u);
  state.add_edge(e.u, e.v);
  // Perfect round trip: all bin deltas cancel.
  EXPECT_EQ(net, 0);
  state.clear_bin_listener();
}

TEST(DkState, VerifyConsistencyPassesOnFreshState) {
  DkState state(builders::complete(4), TrackLevel::jdd_only);
  EXPECT_NO_THROW(state.verify_consistency());
}

// ---------------------------------------------------------------------
// evaluate_swap against an independent recount.

/// Barabási–Albert growth with triad formation (Holme & Kim, 2002): each
/// new node attaches `links` edges; every edge after the first closes a
/// triangle onto a neighbor of the previous target with probability
/// `p_triad`.  p_triad = 0 is plain preferential attachment.
Graph holme_kim(NodeId n, std::uint32_t links, double p_triad,
                util::Rng& rng) {
  Graph g(n);
  std::vector<NodeId> ends;  // one entry per edge endpoint
  for (NodeId v = 1; v <= links; ++v) {
    for (NodeId u = 0; u < v; ++u) {
      g.add_edge(u, v);
      ends.push_back(u);
      ends.push_back(v);
    }
  }
  for (NodeId v = links + 1; v < n; ++v) {
    NodeId previous = ends[rng.uniform(ends.size())];
    g.add_edge(previous, v);
    ends.push_back(previous);
    ends.push_back(v);
    for (std::uint32_t added = 1; added < links;) {
      NodeId u = ends[rng.uniform(ends.size())];
      if (rng.bernoulli(p_triad)) {
        const auto nbrs = g.neighbors(previous);
        u = nbrs[rng.uniform(nbrs.size())];
      }
      if (g.add_edge(u, v)) {
        ends.push_back(u);
        ends.push_back(v);
        previous = u;
        ++added;
      }
    }
  }
  return g;
}

/// Two adjacent hubs of equal degree 61.  Hub 0's other neighbors span
/// degrees 1..60 (spoke i carries i - 1 private leaves); hub 1's are 60
/// degree-2 spokes.  A swap between the hubs' rows changes the neighbor
/// class of ~60 degrees at once, past the journal's inline-coalesce limit,
/// and always has the a–c edge present.
Graph two_hub_graph() {
  std::vector<Edge> edges{{0, 1}};
  NodeId next = 2;
  for (std::uint32_t i = 1; i <= 60; ++i) {
    const NodeId spoke = next++;
    edges.push_back({0, spoke});
    for (std::uint32_t leaf = 1; leaf < i; ++leaf) {
      edges.push_back({spoke, next++});
    }
  }
  for (std::uint32_t i = 1; i <= 60; ++i) {
    const NodeId spoke = next++;
    edges.push_back({1, spoke});
    edges.push_back({spoke, next++});
  }
  Graph g(next);
  for (const Edge& e : edges) g.add_edge(e.u, e.v);
  return g;
}

struct Swap4 {
  NodeId a = 0, b = 0, c = 0, d = 0;
};

/// Draws a structurally valid JDD-preserving swap (a,b),(c,d) ->
/// (a,d),(c,b), alternating the two ways a swap can preserve the JDD:
/// deg b = deg d (d drawn from b's degree class) or deg a = deg c.
bool draw_jdd_swap(const DkState& state, util::Rng& rng, Swap4& out) {
  const EdgeIndex& index = state.index();
  Edge e = index.edge_at(index.sample_edge(rng));
  if (rng.bernoulli(0.5)) std::swap(e.u, e.v);
  const bool match_b = rng.bernoulli(0.5);
  // The class-matched endpoint: d for match_b, c otherwise.
  const auto& peers =
      index.nodes_in_class(index.node_class(match_b ? e.v : e.u));
  const NodeId peer = peers[rng.uniform(peers.size())];
  const auto peer_nbrs = index.neighbors(peer);
  if (peer_nbrs.empty()) return false;
  const NodeId other = peer_nbrs[rng.uniform(peer_nbrs.size())];
  const Swap4 s = match_b ? Swap4{e.u, e.v, other, peer}
                          : Swap4{e.u, e.v, peer, other};
  if (s.a == s.c || s.a == s.d || s.b == s.c || s.b == s.d) return false;
  if (index.has_edge(s.a, s.d) || index.has_edge(s.c, s.b)) return false;
  out = s;
  return true;
}

std::int64_t triangles_at(const Graph& g, NodeId v) {
  const auto nbrs = g.neighbors(v);
  std::int64_t count = 0;
  for (std::size_t i = 0; i < nbrs.size(); ++i) {
    for (std::size_t j = i + 1; j < nbrs.size(); ++j) {
      if (g.has_edge(nbrs[i], nbrs[j])) ++count;
    }
  }
  return count;
}

/// Net per-bin difference after - before, zero bins dropped.
std::map<std::uint64_t, std::int64_t> histogram_diff(
    const SparseHistogram& before, const SparseHistogram& after) {
  std::map<std::uint64_t, std::int64_t> diff;
  for (const auto& [key, count] : after) diff[key] += count;
  for (const auto& [key, count] : before) diff[key] -= count;
  std::erase_if(diff, [](const auto& entry) { return entry.second == 0; });
  return diff;
}

/// The journal as a map, asserting each key appears once and nonzero.
std::map<std::uint64_t, std::int64_t> journal_map(
    const DeltaJournal::Map& journal) {
  std::map<std::uint64_t, std::int64_t> out;
  for (const auto& [key, net] : journal) {
    EXPECT_NE(net, 0) << "zero-net journal entry";
    EXPECT_TRUE(out.emplace(key, net).second) << "duplicate journal key";
  }
  return out;
}

struct OracleCoverage {
  std::size_t swaps = 0;
  std::size_t b_eq_d_only = 0;
  std::size_t a_eq_c_only = 0;
  std::size_t both_equal = 0;
  std::size_t ac_edge = 0;
  std::size_t bd_edge = 0;
  std::size_t sort_merged = 0;  // journals past the inline-coalesce size
  std::size_t triangle_events = 0;
};

/// Evaluates one swap, checks every output against a from-scratch
/// recount of the graph before and after it, then commits it so the
/// next swap sees a changed graph.
void check_swap_against_recount(DkState& state, Graph& graph, const Swap4& s,
                                OracleCoverage& coverage) {
  SwapDelta delta;
  state.evaluate_swap(s.a, s.b, s.c, s.d, delta);

  Graph after = graph;
  ASSERT_TRUE(after.remove_edge(s.a, s.b));
  ASSERT_TRUE(after.remove_edge(s.c, s.d));
  ASSERT_TRUE(after.add_edge(s.a, s.d));
  ASSERT_TRUE(after.add_edge(s.c, s.b));
  const auto before_3k = ThreeKProfile::from_graph(graph);
  const auto after_3k = ThreeKProfile::from_graph(after);

  EXPECT_EQ(journal_map(delta.journal.wedge),
            histogram_diff(before_3k.wedges(), after_3k.wedges()));
  EXPECT_EQ(journal_map(delta.journal.triangle),
            histogram_diff(before_3k.triangles(), after_3k.triangles()));
  EXPECT_EQ(delta.s2_delta, after_3k.second_order_likelihood() -
                                before_3k.second_order_likelihood());

  // Triangle events: per-node net equals the recounted change of t_v;
  // only nodes within one hop of the swap can change.
  std::map<NodeId, std::int64_t> event_net;
  for (const auto& [node, net] : delta.triangle_nodes) event_net[node] += net;
  std::set<NodeId> local{s.a, s.b, s.c, s.d};
  for (const NodeId v : {s.a, s.b, s.c, s.d}) {
    for (const NodeId x : graph.neighbors(v)) local.insert(x);
  }
  double clustering_recount = 0.0;
  for (const NodeId v : local) {
    const std::int64_t change = triangles_at(after, v) - triangles_at(graph, v);
    EXPECT_EQ(event_net.count(v) > 0 ? event_net[v] : 0, change)
        << "node " << v;
    const double k = static_cast<double>(graph.degree(v));
    if (k >= 2) clustering_recount += static_cast<double>(change) * 2.0 /
                                      (k * (k - 1.0));
  }
  for (const auto& [node, net] : event_net) {
    EXPECT_TRUE(local.count(node) > 0 || net == 0) << "node " << node;
  }
  EXPECT_NEAR(delta.clustering_delta, clustering_recount, 1e-9);

  const auto ka = graph.degree(s.a), kb = graph.degree(s.b);
  const auto kc = graph.degree(s.c), kd = graph.degree(s.d);
  ++coverage.swaps;
  if (kb == kd && ka == kc) {
    ++coverage.both_equal;
  } else if (kb == kd) {
    ++coverage.b_eq_d_only;
  } else {
    ++coverage.a_eq_c_only;
  }
  if (graph.has_edge(s.a, s.c)) ++coverage.ac_edge;
  if (graph.has_edge(s.b, s.d)) ++coverage.bd_edge;
  if (delta.journal.wedge.size() + delta.journal.triangle.size() > 48) {
    ++coverage.sort_merged;
  }
  coverage.triangle_events += delta.triangle_nodes.size();

  state.commit_swap(delta);
  graph = std::move(after);
}

TEST(DkStateEvaluateSwap, MatchesRecountOnHotHolmeKimAndHubs) {
  util::Rng rng(2006);
  std::vector<Graph> graphs;
  graphs.push_back(topo::hot_topology(rng));
  graphs.push_back(holme_kim(1500, 3, 0.9, rng));  // triangle-rich
  graphs.push_back(holme_kim(1500, 3, 0.0, rng));  // plain PA
  graphs.push_back(two_hub_graph());

  OracleCoverage coverage;
  for (std::size_t g = 0; g < graphs.size(); ++g) {
    Graph graph = graphs[g];
    DkState state(graph, TrackLevel::full_three_k);
    std::size_t done = 0;
    for (std::size_t guard = 0; done < 150 && guard < 100000; ++guard) {
      Swap4 s;
      if (!draw_jdd_swap(state, rng, s)) continue;
      ASSERT_NO_FATAL_FAILURE(
          check_swap_against_recount(state, graph, s, coverage))
          << "graph " << g;
      ++done;
    }
    EXPECT_EQ(done, 150u) << "graph " << g;
    if (g + 1 == graphs.size()) {
      // Every pairing of the two hubs' rows: ~120 changed classes each.
      for (NodeId i = 0; i < 8; ++i) {
        const NodeId b = state.index().neighbors(0)[1 + i];
        const NodeId d = state.index().neighbors(1)[1 + i];
        if (b == 1 || d == 0 || b == d || graph.has_edge(0, d) ||
            graph.has_edge(1, b)) {
          continue;
        }
        ASSERT_NO_FATAL_FAILURE(check_swap_against_recount(
            state, graph, Swap4{0, b, 1, d}, coverage));
      }
    }
    ASSERT_NO_THROW(state.verify_consistency()) << "graph " << g;
  }
  EXPECT_GT(coverage.b_eq_d_only, 0u);
  EXPECT_GT(coverage.a_eq_c_only, 0u);
  EXPECT_GT(coverage.both_equal, 0u);
  EXPECT_GT(coverage.ac_edge, 0u);
  EXPECT_GT(coverage.bd_edge, 0u);
  EXPECT_GT(coverage.sort_merged, 0u);
  EXPECT_GT(coverage.triangle_events, 0u);
}

TEST(DkStateEvaluateSwap, ScalarsLevelMatchesFullLevel) {
  util::Rng rng(77);
  const Graph g = holme_kim(800, 3, 0.7, rng);
  DkState full(g, TrackLevel::full_three_k);
  DkState scalars(g, TrackLevel::three_k_scalars);
  SwapDelta expected;
  SwapDelta got;
  for (std::size_t done = 0; done < 2000;) {
    Swap4 s;
    if (!draw_jdd_swap(full, rng, s)) continue;
    full.evaluate_swap(s.a, s.b, s.c, s.d, expected);
    scalars.evaluate_swap(s.a, s.b, s.c, s.d, got);
    EXPECT_TRUE(got.journal.all_zero());
    EXPECT_EQ(got.triangle_nodes, expected.triangle_nodes);
    EXPECT_EQ(got.s2_delta, expected.s2_delta);
    EXPECT_EQ(got.clustering_delta, expected.clustering_delta);
    full.commit_swap(expected);
    scalars.commit_swap(got);
    ++done;
  }
  ASSERT_NO_THROW(scalars.verify_consistency());
}

// One external scratch reused across states of different shapes must
// give what each state's own scratch gives: nothing may leak between
// evaluations.
TEST(DkStateEvaluateSwap, ScratchSharedAcrossStatesLeaksNothing) {
  util::Rng rng(5);
  const Graph small = holme_kim(300, 2, 0.8, rng);
  const Graph hubs = two_hub_graph();
  DkState first(small, TrackLevel::full_three_k);
  DkState second(hubs, TrackLevel::full_three_k);
  DkState::EvalScratch shared;
  SwapDelta expected;
  SwapDelta got;
  const auto sorted = [](DeltaJournal::Map map) {
    std::sort(map.begin(), map.end());
    return map;
  };
  for (std::size_t round = 0; round < 4000; ++round) {
    DkState& state = round % 2 == 0 ? first : second;
    Swap4 s;
    if (!draw_jdd_swap(state, rng, s)) continue;
    state.evaluate_swap(s.a, s.b, s.c, s.d, expected);
    state.evaluate_swap(s.a, s.b, s.c, s.d, got, shared);
    ASSERT_EQ(sorted(got.journal.wedge), sorted(expected.journal.wedge));
    ASSERT_EQ(sorted(got.journal.triangle), sorted(expected.journal.triangle));
    ASSERT_EQ(got.triangle_nodes, expected.triangle_nodes);
    if (round % 3 == 0) state.commit_swap(got);
  }
}

TEST(DkStateEvaluateSwap, NonJddPreservingSwapThrows) {
  // 0-1 with deg 1 / 2, 3-2 with deg 3 / 1: deg b != deg d and
  // deg a != deg c, so the swap (0,1),(3,2) -> (0,2),(3,1) moves JDD mass.
  Graph g(7);
  for (const Edge& e : std::vector<Edge>{{0, 1}, {1, 6}, {3, 2}, {3, 4},
                                         {3, 5}}) {
    g.add_edge(e.u, e.v);
  }
  DkState state(g, TrackLevel::full_three_k);
  SwapDelta delta;
  EXPECT_THROW(state.evaluate_swap(0, 1, 3, 2, delta), std::invalid_argument);
}

/// FNV-1a over the bytes of one 64-bit word.
void fnv_mix(std::uint64_t& hash, std::uint64_t word) {
  for (int byte = 0; byte < 8; ++byte) {
    hash ^= (word >> (8 * byte)) & 0xffu;
    hash *= 0x100000001b3ull;
  }
}

// Pins the exact outputs of 100k evaluate+commit steps: the sorted
// journal, the ordered triangle events and the bits of both scalar
// deltas.  The constant was computed with the earlier four-scan kernel
// (one single-edge pass per mutation), so it asserts that the net
// kernel reproduces it bit for bit — in particular clustering_delta,
// a double that dK-space exploration compares against zero.
TEST(DkStateEvaluateSwap, PinnedDigestOfHundredThousandSteps) {
  util::Rng rng(20061019);
  topo::HotOptions hot;
  std::vector<Graph> graphs;
  graphs.push_back(topo::hot_topology(hot, rng));
  graphs.push_back(holme_kim(2000, 3, 0.7, rng));
  std::uint64_t hash = 0xcbf29ce484222325ull;
  std::size_t steps = 0;
  SwapDelta delta;
  for (const Graph& graph : graphs) {
    DkState state(graph, TrackLevel::full_three_k);
    for (std::size_t done = 0; done < 50000;) {
      Swap4 s;
      if (!draw_jdd_swap(state, rng, s)) continue;
      state.evaluate_swap(s.a, s.b, s.c, s.d, delta);
      for (auto* map : {&delta.journal.wedge, &delta.journal.triangle}) {
        std::sort(map->begin(), map->end());
        fnv_mix(hash, map->size());
        for (const auto& [key, net] : *map) {
          fnv_mix(hash, key);
          fnv_mix(hash, static_cast<std::uint64_t>(net));
        }
      }
      fnv_mix(hash, delta.triangle_nodes.size());
      for (const auto& [node, net] : delta.triangle_nodes) {
        fnv_mix(hash, node);
        fnv_mix(hash, static_cast<std::uint64_t>(net));
      }
      fnv_mix(hash, std::bit_cast<std::uint64_t>(delta.s2_delta));
      fnv_mix(hash, std::bit_cast<std::uint64_t>(delta.clustering_delta));
      state.commit_swap(delta);
      ++done;
      ++steps;
    }
    ASSERT_NO_THROW(state.verify_consistency());
  }
  EXPECT_EQ(steps, 100000u);
  EXPECT_EQ(hash, 0x2fe665e8ba9cece1ull) << std::hex << hash;
}

}  // namespace
}  // namespace orbis::dk
