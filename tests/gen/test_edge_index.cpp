#include "graph/edge_index.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "graph/builders.hpp"
#include "util/keys.hpp"
#include "util/rng.hpp"

namespace orbis::gen {
namespace {

Graph test_graph(std::uint64_t seed, NodeId n = 50, std::size_t m = 120) {
  util::Rng rng(seed);
  return builders::gnm(n, m, rng);
}

std::multiset<std::uint64_t> edge_keys(const std::vector<Edge>& edges) {
  std::multiset<std::uint64_t> keys;
  for (const auto& e : edges) keys.insert(util::pair_key(e.u, e.v));
  return keys;
}

/// Full structural audit: hash, CSR adjacency, degree classes and the
/// half-edge buckets must all describe the same edge set.
void expect_consistent(const EdgeIndex& index, const Graph& reference) {
  ASSERT_EQ(index.num_nodes(), reference.num_nodes());
  ASSERT_EQ(index.num_edges(), reference.num_edges());
  EXPECT_EQ(edge_keys(index.edges()), edge_keys(reference.edges()));

  for (NodeId v = 0; v < reference.num_nodes(); ++v) {
    EXPECT_EQ(index.current_degree(v), reference.degree(v));
    EXPECT_EQ(index.class_degree(index.node_class(v)), index.degree(v));
    const auto nbrs = index.neighbors(v);
    std::multiset<NodeId> mine(nbrs.begin(), nbrs.end());
    const auto ref_nbrs = reference.neighbors(v);
    std::multiset<NodeId> expected(ref_nbrs.begin(), ref_nbrs.end());
    EXPECT_EQ(mine, expected) << "adjacency row of node " << v;
  }
  for (const auto& e : reference.edges()) {
    EXPECT_TRUE(index.has_edge(e.u, e.v));
    EXPECT_TRUE(index.has_edge(e.v, e.u));
  }
  EXPECT_FALSE(index.has_edge(0, 0));
  // Bucket sizes must add up to one handle per live half-edge of each
  // class (mutations swap-pop bucket entries, so drift would show here).
  std::size_t handles = 0;
  for (std::uint32_t c = 0; c < index.num_classes(); ++c) {
    std::size_t expected_handles = 0;
    for (const NodeId v : index.nodes_in_class(c)) {
      expected_handles += index.current_degree(v);
    }
    EXPECT_EQ(index.bucket_size(c), expected_handles) << "class " << c;
    handles += index.bucket_size(c);
  }
  EXPECT_EQ(handles, 2 * index.num_edges());
}

TEST(FlatEdgeHash, InsertFindEraseUnderCollisions) {
  FlatEdgeHash hash(8);  // small capacity forces probe chains
  std::vector<std::uint64_t> keys;
  for (std::uint32_t i = 0; i < 8; ++i) {
    keys.push_back(util::pair_key(i, i + 1));
    hash.insert(keys.back(), i);
  }
  for (std::uint32_t i = 0; i < 8; ++i) EXPECT_EQ(hash.find(keys[i]), i);
  // Erase every other key; survivors must stay findable (backward shift
  // must not break probe chains).
  for (std::uint32_t i = 0; i < 8; i += 2) hash.erase(keys[i]);
  for (std::uint32_t i = 0; i < 8; ++i) {
    EXPECT_EQ(hash.find(keys[i]), i % 2 == 0 ? FlatEdgeHash::npos : i);
  }
  hash.reassign(keys[1], 99);
  EXPECT_EQ(hash.find(keys[1]), 99u);
}

TEST(EdgeIndex, MirrorsSourceGraph) {
  const auto g = test_graph(5);
  const EdgeIndex index(g);
  expect_consistent(index, g);
  EXPECT_TRUE(index.to_graph() == g);
}

TEST(EdgeIndex, FromEdgeListEqualsFromGraphSlotForSlot) {
  // The leg driver rebuilds chains from (n, edges) alone; a rebuild must
  // be the index a Graph of the same edges would give, down to the CSR
  // row order and the bucket order that proposal sampling reads.  Swaps
  // first, so the edge list is in a non-trivial slot order.
  const Graph g = test_graph(7);
  EdgeIndex walked(g);
  util::Rng rng(8);
  for (int i = 0; i < 200; ++i) {
    const Edge e1 = walked.edge_at(walked.sample_edge(rng));
    const Edge e2 = walked.edge_at(walked.sample_edge(rng));
    const std::set<NodeId> ends{e1.u, e1.v, e2.u, e2.v};
    if (ends.size() == 4 && !walked.has_edge(e1.u, e2.v) &&
        !walked.has_edge(e2.u, e1.v)) {
      walked.apply_swap(e1.u, e1.v, e2.u, e2.v);
    }
  }
  const EdgeIndex from_list(walked.num_nodes(), walked.edges());
  const EdgeIndex from_graph(walked.to_graph());
  EXPECT_EQ(from_list.edges(), from_graph.edges());
  ASSERT_EQ(from_list.num_classes(), from_graph.num_classes());
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    const auto a = from_list.neighbors(v);
    const auto b = from_graph.neighbors(v);
    EXPECT_TRUE(std::equal(a.begin(), a.end(), b.begin(), b.end())) << v;
    EXPECT_EQ(from_list.node_class(v), from_graph.node_class(v));
  }
  util::Rng rng_a(9);
  util::Rng rng_b(9);
  for (std::uint32_t c = 0; c < from_list.num_classes(); ++c) {
    EXPECT_EQ(from_list.bucket_size(c), from_graph.bucket_size(c));
    EdgeIndex::HalfEdge ha;
    EdgeIndex::HalfEdge hb;
    EXPECT_EQ(from_list.sample_half_edge(c, rng_a, ha),
              from_graph.sample_half_edge(c, rng_b, hb));
    EXPECT_EQ(ha.slot, hb.slot);
    EXPECT_EQ(ha.anchor_is_u, hb.anchor_is_u);
  }
}

TEST(EdgeIndex, DegreeClassesAreSortedAndComplete) {
  const auto g = test_graph(6);
  const EdgeIndex index(g);
  for (std::uint32_t c = 1; c < index.num_classes(); ++c) {
    EXPECT_LT(index.class_degree(c - 1), index.class_degree(c));
  }
  std::size_t nodes_in_classes = 0;
  for (std::uint32_t c = 0; c < index.num_classes(); ++c) {
    nodes_in_classes += index.nodes_in_class(c).size();
    for (const NodeId v : index.nodes_in_class(c)) {
      EXPECT_EQ(index.node_class(v), c);
    }
    EXPECT_EQ(index.class_of_degree(index.class_degree(c)), c);
  }
  EXPECT_EQ(nodes_in_classes, g.num_nodes());
  EXPECT_EQ(index.class_of_degree(1u << 20), EdgeIndex::npos);
}

TEST(EdgeIndex, HalfEdgeBucketsAnchorTheRightClass) {
  const auto g = test_graph(7);
  const EdgeIndex index(g);
  util::Rng rng(8);
  for (std::uint32_t c = 0; c < index.num_classes(); ++c) {
    if (index.class_degree(c) == 0) continue;
    EdgeIndex::HalfEdge half;
    for (int i = 0; i < 50; ++i) {
      ASSERT_TRUE(index.sample_half_edge(c, rng, half));
      const Edge& e = index.edge_at(half.slot);
      const NodeId anchor = half.anchor_is_u ? e.u : e.v;
      EXPECT_EQ(index.node_class(anchor), c);
    }
  }
}

TEST(EdgeIndex, ApplySwapKeepsEveryStructureConsistent) {
  const auto g = test_graph(9);
  EdgeIndex index(g);
  Graph reference = g;
  util::Rng rng(10);

  std::size_t performed = 0;
  while (performed < 300) {
    const Edge e1 = index.edge_at(index.sample_edge(rng));
    Edge e2 = index.edge_at(index.sample_edge(rng));
    if (rng.bernoulli(0.5)) std::swap(e2.u, e2.v);
    const NodeId a = e1.u, b = e1.v, c = e2.u, d = e2.v;
    if (a == c || a == d || b == c || b == d) continue;
    if (index.has_edge(a, d) || index.has_edge(c, b)) continue;
    index.apply_swap(a, b, c, d);
    reference.remove_edge(a, b);
    reference.remove_edge(c, d);
    reference.add_edge(a, d);
    reference.add_edge(c, b);
    ++performed;
    if (performed % 50 == 0) expect_consistent(index, reference);
  }
  expect_consistent(index, reference);
  EXPECT_TRUE(index.to_graph() == reference);
}

// Single-edge mutations (the DkState path): swaps decomposed into
// remove/remove/add/add must leave every structure — rows, hash, dense
// edge array, buckets — identical to a Graph replaying the same ops.
TEST(EdgeIndex, RemoveAddMutationsKeepEveryStructureConsistent) {
  for (const std::uint64_t seed : {3ull, 21ull}) {
    const auto g = test_graph(seed);
    EdgeIndex index(g);
    Graph reference = g;
    util::Rng rng(seed + 100);

    std::size_t performed = 0;
    std::size_t guard = 0;
    while (performed < 300 && guard++ < 300 * 100) {
      const Edge e1 = index.edge_at(index.sample_edge(rng));
      Edge e2 = index.edge_at(index.sample_edge(rng));
      if (rng.bernoulli(0.5)) std::swap(e2.u, e2.v);
      const NodeId a = e1.u, b = e1.v, c = e2.u, d = e2.v;
      if (a == c || a == d || b == c || b == d) continue;
      if (index.has_edge(a, d) || index.has_edge(c, b)) continue;
      index.remove_edge(a, b);
      index.remove_edge(c, d);
      EXPECT_FALSE(index.has_edge(a, b));
      EXPECT_EQ(index.current_degree(a), index.degree(a) - 1);
      index.add_edge(a, d);
      index.add_edge(c, b);
      reference.remove_edge(a, b);
      reference.remove_edge(c, d);
      reference.add_edge(a, d);
      reference.add_edge(c, b);
      ++performed;
      if (performed % 50 == 0) expect_consistent(index, reference);
    }
    ASSERT_GT(performed, 0u);
    expect_consistent(index, reference);
    EXPECT_TRUE(index.to_graph() == reference);
  }
}

// Interleaving the O(1) whole-swap commit with decomposed remove/add
// sequences must not disturb either path's bookkeeping.
TEST(EdgeIndex, ApplySwapAndMutationsInterleave) {
  const auto g = test_graph(13);
  EdgeIndex index(g);
  Graph reference = g;
  util::Rng rng(14);

  std::size_t performed = 0;
  while (performed < 200) {
    const Edge e1 = index.edge_at(index.sample_edge(rng));
    Edge e2 = index.edge_at(index.sample_edge(rng));
    if (rng.bernoulli(0.5)) std::swap(e2.u, e2.v);
    const NodeId a = e1.u, b = e1.v, c = e2.u, d = e2.v;
    if (a == c || a == d || b == c || b == d) continue;
    if (index.has_edge(a, d) || index.has_edge(c, b)) continue;
    if (performed % 2 == 0) {
      index.apply_swap(a, b, c, d);
    } else {
      index.remove_edge(a, b);
      index.remove_edge(c, d);
      index.add_edge(a, d);
      index.add_edge(c, b);
    }
    reference.remove_edge(a, b);
    reference.remove_edge(c, d);
    reference.add_edge(a, d);
    reference.add_edge(c, b);
    ++performed;
  }
  expect_consistent(index, reference);
}

TEST(EdgeIndex, MutationPreconditionsThrow) {
  const auto g = test_graph(17);
  EdgeIndex index(g);
  const Edge e = index.edge_at(0);
  EXPECT_THROW(index.add_edge(e.u, e.v), std::invalid_argument);  // exists
  EXPECT_THROW(index.add_edge(e.u, e.u), std::invalid_argument);  // loop
  index.remove_edge(e.u, e.v);
  EXPECT_THROW(index.remove_edge(e.u, e.v), std::invalid_argument);
  index.add_edge(e.u, e.v);  // restore: rows back at frozen capacity
  EXPECT_TRUE(index.has_edge(e.u, e.v));
}

}  // namespace
}  // namespace orbis::gen
