#include "metrics/distance.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <functional>
#include <numeric>
#include <span>

#include "exec/thread_pool.hpp"
#include "util/errors.hpp"

namespace orbis::metrics {

namespace {

/// Sources per batch: one bit of a machine word each.
constexpr std::size_t kBatchWidth = 64;

/// Read-only compressed-sparse-row copy of the adjacency, so the level
/// sweep reads one contiguous neighbor array.
struct Csr {
  std::vector<std::size_t> offsets;  // row v is [offsets[v], offsets[v+1])
  std::vector<NodeId> targets;

  explicit Csr(const Graph& g) : offsets(g.num_nodes() + 1, 0) {
    targets.reserve(2 * g.num_edges());
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      const auto row = g.neighbors(v);
      targets.insert(targets.end(), row.begin(), row.end());
      offsets[v + 1] = targets.size();
    }
  }

  std::size_t num_nodes() const noexcept { return offsets.size() - 1; }
};

/// One task's scratch words and integer histogram.  Bit i of a node's
/// word stands for source i of the current batch.
struct Shard {
  std::vector<std::uint64_t> seen;   // sources that have reached the node
  std::vector<std::uint64_t> visit;  // sources whose frontier holds it
  std::vector<std::uint64_t> next;   // the next level's frontier
  std::vector<std::uint64_t> counts;
  std::uint64_t found = 0;  // (source, target) pairs reached, self included

  explicit Shard(std::size_t n) : seen(n), visit(n), next(n) {}

  void add(std::size_t depth, std::uint64_t pairs) {
    if (depth >= counts.size()) counts.resize(depth + 1, 0);
    counts[depth] += pairs;
    found += pairs;
  }
};

/// BFS from up to 64 distinct sources at once.  Each level is one sweep:
/// next[v] = (OR of visit[w] over neighbors w) & ~seen[v]; the batch
/// ends at the first level that reaches no new (source, node) pair.
void run_batch(const Csr& csr, std::span<const NodeId> batch, Shard& shard) {
  std::fill(shard.seen.begin(), shard.seen.end(), 0);
  std::fill(shard.visit.begin(), shard.visit.end(), 0);
  for (std::size_t i = 0; i < batch.size(); ++i) {
    shard.seen[batch[i]] |= std::uint64_t{1} << i;
    shard.visit[batch[i]] |= std::uint64_t{1} << i;
  }
  shard.add(0, batch.size());
  // Nodes every source of the batch has reached are skipped.
  const std::uint64_t all = batch.size() == kBatchWidth
                                ? ~std::uint64_t{0}
                                : (std::uint64_t{1} << batch.size()) - 1;
  const std::size_t n = csr.num_nodes();
  const std::size_t* offsets = csr.offsets.data();
  const NodeId* targets = csr.targets.data();
  for (std::size_t depth = 1;; ++depth) {
    const std::uint64_t* visit = shard.visit.data();
    std::uint64_t* seen = shard.seen.data();
    std::uint64_t* next = shard.next.data();
    std::uint64_t reached = 0;
    for (std::size_t v = 0; v < n; ++v) {
      std::uint64_t fresh = 0;
      if (seen[v] != all) {
        for (std::size_t e = offsets[v]; e < offsets[v + 1]; ++e) {
          fresh |= visit[targets[e]];
        }
        fresh &= ~seen[v];
        seen[v] |= fresh;
        reached += static_cast<std::uint64_t>(std::popcount(fresh));
      }
      next[v] = fresh;
    }
    if (reached == 0) return;
    shard.add(depth, reached);
    std::swap(shard.visit, shard.next);
  }
}

/// Raw (unscaled) histogram of BFS from every node of `sources`.  Tasks
/// claim 64-source batches from a shared counter; each keeps its own
/// shard, and the shards are merged in task-index order.  The merge is
/// integer addition, so the result does not depend on which task ran
/// which batch.
DistanceDistribution multi_source_bfs(const Graph& g,
                                      std::span<const NodeId> sources,
                                      util::StopToken stop,
                                      exec::ThreadPool& pool) {
  DistanceDistribution dist;
  dist.num_nodes = g.num_nodes();
  if (sources.empty()) return dist;

  const Csr csr(g);
  const std::size_t batches =
      (sources.size() + kBatchWidth - 1) / kBatchWidth;
  const std::size_t num_tasks = std::min(pool.size(), batches);
  std::vector<Shard> shards(num_tasks, Shard(csr.num_nodes()));
  std::atomic<std::size_t> next_batch{0};
  const auto work = [&](Shard& shard) {
    for (;;) {
      if (stop.stop_requested()) {
        throw InterruptedError("distance_distribution: cancelled");
      }
      const std::size_t b = next_batch.fetch_add(1);
      if (b >= batches) return;
      const std::size_t begin = b * kBatchWidth;
      run_batch(csr,
                sources.subspan(begin, std::min(kBatchWidth,
                                                sources.size() - begin)),
                shard);
    }
  };
  if (num_tasks == 1) {
    work(shards.front());
  } else {
    std::vector<std::function<void()>> tasks;
    tasks.reserve(num_tasks);
    for (Shard& shard : shards) {
      tasks.emplace_back([&work, &shard]() { work(shard); });
    }
    pool.run_tasks(tasks);
  }

  std::uint64_t found = 0;
  for (const Shard& shard : shards) {
    if (shard.counts.size() > dist.counts.size()) {
      dist.counts.resize(shard.counts.size(), 0);
    }
    for (std::size_t x = 0; x < shard.counts.size(); ++x) {
      dist.counts[x] += shard.counts[x];
    }
    found += shard.found;
  }
  dist.unreachable_pairs =
      static_cast<std::uint64_t>(sources.size()) * dist.num_nodes - found;
  return dist;
}

/// Every node of g, in id order: the exact distribution's sources.
std::vector<NodeId> all_nodes(const Graph& g) {
  std::vector<NodeId> nodes(g.num_nodes());
  std::iota(nodes.begin(), nodes.end(), NodeId{0});
  return nodes;
}

}  // namespace

std::vector<double> DistanceDistribution::pdf() const {
  std::vector<double> result(counts.size(), 0.0);
  if (num_nodes == 0) return result;
  const double n2 =
      static_cast<double>(num_nodes) * static_cast<double>(num_nodes);
  for (std::size_t x = 0; x < counts.size(); ++x) {
    result[x] = static_cast<double>(counts[x]) / n2;
  }
  return result;
}

double DistanceDistribution::mean() const {
  std::uint64_t pairs = 0;
  double sum = 0.0;
  for (std::size_t x = 1; x < counts.size(); ++x) {
    pairs += counts[x];
    sum += static_cast<double>(x) * static_cast<double>(counts[x]);
  }
  return pairs > 0 ? sum / static_cast<double>(pairs) : 0.0;
}

double DistanceDistribution::stddev() const {
  std::uint64_t pairs = 0;
  double sum = 0.0;
  double sum_sq = 0.0;
  for (std::size_t x = 1; x < counts.size(); ++x) {
    const auto c = static_cast<double>(counts[x]);
    pairs += counts[x];
    sum += static_cast<double>(x) * c;
    sum_sq += static_cast<double>(x) * static_cast<double>(x) * c;
  }
  if (pairs == 0) return 0.0;
  const double mean = sum / static_cast<double>(pairs);
  const double variance = sum_sq / static_cast<double>(pairs) - mean * mean;
  return variance > 0.0 ? std::sqrt(variance) : 0.0;
}

DistanceDistribution distance_distribution(const Graph& g) {
  return distance_distribution(g, util::StopToken{});
}

DistanceDistribution distance_distribution(const Graph& g,
                                           util::StopToken stop) {
  return distance_distribution(g, stop, exec::shared_pool());
}

DistanceDistribution distance_distribution(const Graph& g,
                                           util::StopToken stop,
                                           exec::ThreadPool& pool) {
  return multi_source_bfs(g, all_nodes(g), stop, pool);
}

DistanceDistribution sampled_distance_distribution(const Graph& g,
                                                   std::size_t num_sources,
                                                   util::Rng& rng) {
  if (num_sources >= g.num_nodes()) return distance_distribution(g);
  std::vector<NodeId> sources = all_nodes(g);
  rng.shuffle(sources);
  sources.resize(num_sources);
  DistanceDistribution dist =
      multi_source_bfs(g, sources, util::StopToken{}, exec::shared_pool());
  if (num_sources == 0) return dist;
  // Rescale both fields so pdf() keeps the n^2 normalization semantics
  // and counts + unreachable_pairs still total about n^2.
  const double scale = static_cast<double>(g.num_nodes()) /
                       static_cast<double>(num_sources);
  const auto rescale = [scale](std::uint64_t& c) {
    c = static_cast<std::uint64_t>(
        std::llround(static_cast<double>(c) * scale));
  };
  for (auto& c : dist.counts) rescale(c);
  rescale(dist.unreachable_pairs);
  return dist;
}

double average_distance(const Graph& g) {
  return distance_distribution(g).mean();
}

}  // namespace orbis::metrics
