#include "metrics/spectrum.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <utility>
#include <vector>

#include "graph/algorithms.hpp"
#include "graph/builders.hpp"
#include "metrics/dense_eigen.hpp"
#include "util/errors.hpp"
#include "util/rng.hpp"
#include "util/stop_token.hpp"

namespace orbis::metrics {
namespace {

constexpr double pi = 3.14159265358979323846;

TEST(TridiagonalExtremes, TwoByTwo) {
  // [[2,1],[1,2]] -> {1,3}.
  const auto extremes = tridiagonal_extremes(std::vector<double>{2.0, 2.0},
                                             std::vector<double>{1.0});
  EXPECT_NEAR(extremes.smallest, 1.0, 1e-12);
  EXPECT_NEAR(extremes.largest, 3.0, 1e-12);
}

TEST(TridiagonalExtremes, DiagonalOnly) {
  const auto extremes = tridiagonal_extremes(
      std::vector<double>{3.0, 1.0, 2.0}, std::vector<double>{0.0, 0.0});
  EXPECT_NEAR(extremes.smallest, 1.0, 1e-12);
  EXPECT_NEAR(extremes.largest, 3.0, 1e-12);
}

TEST(TridiagonalExtremes, DiscreteLaplacianChain) {
  // Tridiag(-1, 2, -1) of size n has eigenvalues 2 - 2cos(k pi/(n+1)).
  for (const std::size_t n : {1u, 2u, 12u, 200u}) {
    const auto extremes = tridiagonal_extremes(
        std::vector<double>(n, 2.0), std::vector<double>(n - 1, -1.0));
    const double step = pi / static_cast<double>(n + 1);
    EXPECT_NEAR(extremes.smallest, 2.0 - 2.0 * std::cos(step), 1e-12)
        << "n=" << n;
    EXPECT_NEAR(extremes.largest,
                2.0 - 2.0 * std::cos(static_cast<double>(n) * step), 1e-12)
        << "n=" << n;
  }
}

TEST(TridiagonalExtremes, SizeMismatchThrows) {
  EXPECT_THROW(tridiagonal_extremes(std::vector<double>{1.0, 2.0},
                                    std::vector<double>{0.5, 0.5}),
               std::invalid_argument);
  EXPECT_THROW(tridiagonal_extremes({}, {}), std::invalid_argument);
}

TEST(DenseEigen, KnownSymmetricMatrix) {
  const auto values =
      dense_symmetric_eigenvalues({{2.0, 1.0}, {1.0, 2.0}});
  ASSERT_EQ(values.size(), 2u);
  EXPECT_NEAR(values[0], 1.0, 1e-9);
  EXPECT_NEAR(values[1], 3.0, 1e-9);
}

TEST(DenseEigen, NonSquareThrows) {
  EXPECT_THROW(dense_symmetric_eigenvalues({{1.0, 2.0}}),
               std::invalid_argument);
}

TEST(FullSpectrum, CompleteGraph) {
  // K_n normalized Laplacian: 0 once, n/(n-1) with multiplicity n-1.
  const auto values = full_laplacian_spectrum(builders::complete(5));
  EXPECT_NEAR(values[0], 0.0, 1e-9);
  for (std::size_t i = 1; i < 5; ++i) {
    EXPECT_NEAR(values[i], 5.0 / 4.0, 1e-9);
  }
}

TEST(FullSpectrum, StarGraph) {
  // Star: eigenvalues {0, 1 (n-2 times), 2}.
  const auto values = full_laplacian_spectrum(builders::star(6));
  EXPECT_NEAR(values.front(), 0.0, 1e-9);
  EXPECT_NEAR(values.back(), 2.0, 1e-9);
  for (std::size_t i = 1; i + 1 < values.size(); ++i) {
    EXPECT_NEAR(values[i], 1.0, 1e-9);
  }
}

TEST(LaplacianExtremes, CompleteGraph) {
  const auto result = laplacian_extremes(builders::complete(6));
  EXPECT_NEAR(result.lambda1, 6.0 / 5.0, 1e-7);
  EXPECT_NEAR(result.lambda_max, 6.0 / 5.0, 1e-7);
}

TEST(LaplacianExtremes, CycleClosedForm) {
  // C_n: eigenvalues 1 - cos(2 pi k / n).
  const auto result = laplacian_extremes(builders::cycle(10));
  EXPECT_NEAR(result.lambda1, 1.0 - std::cos(2.0 * pi / 10.0), 1e-7);
  EXPECT_NEAR(result.lambda_max, 2.0, 1e-7);  // even cycle is bipartite
}

TEST(LaplacianExtremes, BipartiteHasLambdaMaxTwo) {
  EXPECT_NEAR(laplacian_extremes(builders::star(9)).lambda_max, 2.0, 1e-7);
  EXPECT_NEAR(laplacian_extremes(builders::grid(3, 4)).lambda_max, 2.0,
              1e-7);
  EXPECT_NEAR(
      laplacian_extremes(builders::complete_bipartite(3, 5)).lambda_max,
      2.0, 1e-7);
}

TEST(LaplacianExtremes, SingleEdge) {
  const auto result = laplacian_extremes(builders::path(2));
  EXPECT_NEAR(result.lambda1, 2.0, 1e-12);
  EXPECT_NEAR(result.lambda_max, 2.0, 1e-12);
}

TEST(LaplacianExtremes, EmptyAndEdgeless) {
  EXPECT_DOUBLE_EQ(laplacian_extremes(Graph(0)).lambda_max, 0.0);
  EXPECT_DOUBLE_EQ(laplacian_extremes(Graph(5)).lambda_max, 0.0);
}

TEST(LaplacianExtremes, UsesGiantComponent) {
  // A triangle plus an isolated edge: spectrum of the GCC (triangle).
  Graph g(5);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.add_edge(2, 0);
  g.add_edge(3, 4);
  const auto result = laplacian_extremes(g);
  EXPECT_NEAR(result.lambda1, 1.5, 1e-7);   // K3: n/(n-1)
  EXPECT_NEAR(result.lambda_max, 1.5, 1e-7);
}

TEST(LaplacianExtremes, MatchesDenseSolverOnRandomGraphs) {
  for (const std::uint64_t seed : {2ull, 3ull, 4ull, 5ull}) {
    util::Rng rng(seed);
    const auto g = builders::gnm(40, 90, rng);
    const auto gcc_full = full_laplacian_spectrum(g);
    const auto lanczos = laplacian_extremes(g);
    // Dense spectrum is over the whole graph; pick the smallest non-zero
    // and the largest.  The random graphs here are connected w.h.p., and
    // isolated nodes contribute extra zeros only.
    double smallest_nonzero = 2.0;
    for (const double v : gcc_full) {
      if (v > 1e-8) {
        smallest_nonzero = v;
        break;
      }
    }
    EXPECT_NEAR(lanczos.lambda1, smallest_nonzero, 1e-6) << "seed " << seed;
    EXPECT_NEAR(lanczos.lambda_max, gcc_full.back(), 1e-6)
        << "seed " << seed;
  }
}

/// Barabási–Albert preferential attachment, two edges per new node,
/// grown from a triangle.
Graph preferential_attachment(NodeId n, util::Rng& rng) {
  Graph g(n);
  std::vector<NodeId> ends;  // one entry per edge endpoint
  for (NodeId v = 1; v <= 2; ++v) {
    for (NodeId u = 0; u < v; ++u) {
      g.add_edge(u, v);
      ends.insert(ends.end(), {u, v});
    }
  }
  for (NodeId v = 3; v < n; ++v) {
    for (int added = 0; added < 2;) {
      const NodeId u = ends[rng.uniform(ends.size())];
      if (g.add_edge(u, v)) {
        ends.insert(ends.end(), {u, v});
        ++added;
      }
    }
  }
  return g;
}

/// Smallest non-zero and largest eigenvalue from the dense oracle (the
/// graphs passed here are connected, so exactly one eigenvalue is 0).
std::pair<double, double> dense_extremes(const Graph& g) {
  const auto values = full_laplacian_spectrum(g);
  return {values[1], values.back()};
}

TEST(LaplacianExtremes, PathClosedFormAtIterationCap) {
  // P_n: eigenvalues 1 - cos(pi k / (n - 1)).  Both solves run to the
  // 300-step cap, so a kernel leaking back into the deflated solve would
  // pull λ1 towards 0 here.
  const auto result = laplacian_extremes(builders::path(300));
  EXPECT_NEAR(result.lambda1, 1.0 - std::cos(pi / 299.0), 1e-9);
  EXPECT_NEAR(result.lambda_max, 2.0, 1e-9);
}

TEST(LaplacianExtremes, OddCycleClosedForm) {
  // C_101 is not bipartite: λ_max = 1 - cos(2 pi 50 / 101) < 2.
  const auto result = laplacian_extremes(builders::cycle(101));
  EXPECT_NEAR(result.lambda1, 1.0 - std::cos(2.0 * pi / 101.0), 1e-9);
  EXPECT_NEAR(result.lambda_max, 1.0 - std::cos(100.0 * pi / 101.0), 1e-9);
}

TEST(LaplacianExtremes, MatchesDenseSolverOnLargerGraphs) {
  for (const std::uint64_t seed : {2ull, 3ull, 4ull, 5ull}) {
    util::Rng rng(seed);
    const auto pa = preferential_attachment(300, rng);
    const auto [pa_low, pa_high] = dense_extremes(pa);
    const auto pa_result = laplacian_extremes(pa);
    EXPECT_NEAR(pa_result.lambda1, pa_low, 1e-8) << "PA seed " << seed;
    EXPECT_NEAR(pa_result.lambda_max, pa_high, 1e-8) << "PA seed " << seed;

    const auto gnm = largest_connected_component(
                         builders::gnm(300, 600, rng)).graph;
    const auto [gnm_low, gnm_high] = dense_extremes(gnm);
    const auto gnm_result = laplacian_extremes(gnm);
    EXPECT_NEAR(gnm_result.lambda1, gnm_low, 1e-8) << "gnm seed " << seed;
    EXPECT_NEAR(gnm_result.lambda_max, gnm_high, 1e-8)
        << "gnm seed " << seed;
  }
}

TEST(LaplacianExtremes, RequestedStopThrows) {
  util::StopSource source;
  source.request_stop();
  SpectrumOptions options;
  options.stop = source.token();
  EXPECT_THROW(laplacian_extremes(builders::cycle(50), options),
               InterruptedError);
}

TEST(LaplacianExtremes, AllEigenvaluesWithinBounds) {
  util::Rng rng(11);
  const auto g = builders::gnp(60, 0.1, rng);
  const auto result = laplacian_extremes(g);
  EXPECT_GT(result.lambda1, 0.0);
  EXPECT_LE(result.lambda1, result.lambda_max + 1e-12);
  EXPECT_LE(result.lambda_max, 2.0 + 1e-9);
}

}  // namespace
}  // namespace orbis::metrics
