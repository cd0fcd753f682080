// Distance (hop-count) distribution d(x) — paper §2: the number of node
// pairs at distance x divided by n^2, self-pairs included.  Also supplies
// the scalar summaries d̄ (mean) and σd (standard deviation) used in
// Tables 3, 4, 6, 7, 8, computed over connected ordered pairs with x >= 1.
#pragma once

#include <cstdint>
#include <vector>

#include "graph/graph.hpp"
#include "util/rng.hpp"
#include "util/stop_token.hpp"

namespace orbis::exec {
class ThreadPool;
}  // namespace orbis::exec

namespace orbis::metrics {

struct DistanceDistribution {
  /// counts[x] = number of ordered node pairs (self-pairs at x=0) at
  /// hop distance x; unreachable pairs are not counted.
  std::vector<std::uint64_t> counts;
  std::uint64_t num_nodes = 0;
  std::uint64_t unreachable_pairs = 0;

  /// d(x) = counts[x] / n^2 (the paper's normalization).
  std::vector<double> pdf() const;

  /// Mean hop distance over ordered pairs with x >= 1.
  double mean() const;

  /// Population standard deviation over ordered pairs with x >= 1.
  double stddev() const;

  std::size_t diameter() const {
    return counts.empty() ? 0 : counts.size() - 1;
  }
};

/// Exact distribution by bit-parallel multi-source BFS (docs/parallel.md,
/// "Distance kernel"): 64 sources share one machine word per node, and
/// each BFS level is one sweep over a CSR snapshot of g.  That is
/// O(⌈n/64⌉ · levels · (n + m)) word operations, where levels is the
/// largest source eccentricity in a batch plus one.  Batches are sharded
/// on exec::shared_pool(); the histogram is exact at any pool size.
DistanceDistribution distance_distribution(const Graph& g);

/// Same, polling `stop` before each 64-source batch; a requested stop
/// throws orbis::InterruptedError.
DistanceDistribution distance_distribution(const Graph& g,
                                           util::StopToken stop);

/// Same, sharded on `pool` instead of the shared pool (tests pin the
/// pool size through it).  Must not be called from inside a task of
/// `pool`: the caller blocks until the pool has run every shard.
DistanceDistribution distance_distribution(const Graph& g,
                                           util::StopToken stop,
                                           exec::ThreadPool& pool);

/// Estimated distribution via BFS from `num_sources` uniformly sampled
/// sources (ordered pairs source->target), with counts and
/// unreachable_pairs both rescaled by n / num_sources so pdf() keeps
/// the n^2 normalization; exact when num_sources >= n.
DistanceDistribution sampled_distance_distribution(const Graph& g,
                                                   std::size_t num_sources,
                                                   util::Rng& rng);

/// Average distance d̄ (convenience wrapper).
double average_distance(const Graph& g);

}  // namespace orbis::metrics
