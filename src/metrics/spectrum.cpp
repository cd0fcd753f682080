#include "metrics/spectrum.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "graph/algorithms.hpp"
#include "util/check.hpp"
#include "util/errors.hpp"
#include "util/rng.hpp"

namespace orbis::metrics {

namespace {

using Vector = std::vector<double>;

double dot(const Vector& a, const Vector& b) {
  double sum = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) sum += a[i] * b[i];
  return sum;
}

double norm(const Vector& a) { return std::sqrt(dot(a, a)); }

void axpy(double alpha, const Vector& x, Vector& y) {
  for (std::size_t i = 0; i < y.size(); ++i) y[i] += alpha * x[i];
}

void scale(Vector& x, double alpha) {
  for (auto& value : x) value *= alpha;
}

/// y = L x for the normalized Laplacian of g (all degrees must be >= 1).
class LaplacianOperator {
 public:
  explicit LaplacianOperator(const Graph& g) : graph_(g) {
    inv_sqrt_degree_.resize(g.num_nodes());
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      const auto d = g.degree(v);
      util::expects(d > 0, "LaplacianOperator: isolated node");
      inv_sqrt_degree_[v] = 1.0 / std::sqrt(static_cast<double>(d));
    }
  }

  std::size_t dimension() const { return graph_.num_nodes(); }

  void apply(const Vector& x, Vector& y) const {
    for (NodeId v = 0; v < graph_.num_nodes(); ++v) {
      double acc = 0.0;
      for (const NodeId w : graph_.neighbors(v)) {
        acc += x[w] * inv_sqrt_degree_[w];
      }
      y[v] = x[v] - inv_sqrt_degree_[v] * acc;
    }
  }

  /// Normalized kernel vector v0 ∝ D^{1/2} 1.
  Vector kernel_vector() const {
    Vector v0(graph_.num_nodes());
    for (NodeId v = 0; v < graph_.num_nodes(); ++v) {
      v0[v] = std::sqrt(static_cast<double>(graph_.degree(v)));
    }
    const double v0_norm = norm(v0);
    scale(v0, 1.0 / v0_norm);
    return v0;
  }

 private:
  const Graph& graph_;
  Vector inv_sqrt_degree_;
};

struct LanczosResult {
  TridiagonalExtremes extremes;
  std::size_t iterations = 0;
};

/// Three-term Lanczos on L, restricted to the complement of `deflate`
/// when it is non-null.  Holds three n-vectors whatever the step count;
/// only T_k's coefficients grow.
LanczosResult lanczos(const LaplacianOperator& op, const Vector* deflate,
                      const SpectrumOptions& options) {
  util::expects(options.max_iterations > 0,
                "laplacian_extremes: max_iterations must be positive");
  const std::size_t n = op.dimension();
  const std::size_t max_iter = std::min(options.max_iterations, n);
  util::Rng rng(options.seed);

  std::vector<double> alpha;
  std::vector<double> beta;  // beta[j] couples q_j and q_{j+1}

  const auto project = [&](Vector& w) {
    if (deflate != nullptr) axpy(-dot(*deflate, w), *deflate, w);
  };

  // Random start vector, projected off the deflation vector.
  Vector q(n);
  for (auto& value : q) value = rng.uniform_real() - 0.5;
  project(q);
  const double q_norm = norm(q);
  util::ensures(q_norm > 1e-12, "lanczos: degenerate start vector");
  scale(q, 1.0 / q_norm);

  Vector q_prev(n, 0.0);
  Vector w(n);
  double previous_extreme_low = 1e300;
  double previous_extreme_high = -1e300;

  for (std::size_t j = 0;; ++j) {
    if (options.stop.stop_requested()) {
      throw InterruptedError("laplacian_extremes: cancelled");
    }
    op.apply(q, w);
    const double a_j = dot(q, w);
    alpha.push_back(a_j);

    axpy(-a_j, q, w);
    if (j > 0) axpy(-beta[j - 1], q_prev, w);
    project(w);  // two passes: rounding in L q re-seeds the kernel
    project(w);

    const double b_j = norm(w);

    // Krylov space exhausted (invariant subspace found) or budget spent:
    // the current tridiagonal matrix is final.
    if (b_j < 1e-10 || j + 1 == max_iter) {
      return {tridiagonal_extremes(alpha, beta), j + 1};
    }

    // Convergence probe on the extreme Ritz values every few steps.
    if (j >= 2 && j % 5 == 0) {
      const auto extremes = tridiagonal_extremes(alpha, beta);
      const bool converged =
          std::fabs(extremes.smallest - previous_extreme_low) <
              options.tolerance &&
          std::fabs(extremes.largest - previous_extreme_high) <
              options.tolerance;
      previous_extreme_low = extremes.smallest;
      previous_extreme_high = extremes.largest;
      if (converged) return {extremes, j + 1};
    }

    beta.push_back(b_j);
    // q_{j+1} = w / b_j; q_j becomes q_prev; w is overwritten next step.
    std::swap(q_prev, q);
    std::swap(q, w);
    scale(q, 1.0 / b_j);
  }
}

}  // namespace

TridiagonalExtremes tridiagonal_extremes(std::span<const double> diagonal,
                                         std::span<const double> off_diagonal) {
  const std::size_t n = diagonal.size();
  util::expects(n > 0 && off_diagonal.size() + 1 == n,
                "tridiagonal_extremes: need n >= 1 and n-1 off-diagonals");

  // Gershgorin interval; the largest squared coupling scales the pivot
  // floor so that e^2 / pivot cannot overflow.
  double lo = std::numeric_limits<double>::infinity();
  double hi = -lo;
  double max_coupling_sq = 1.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double left = i > 0 ? std::fabs(off_diagonal[i - 1]) : 0.0;
    const double right = i + 1 < n ? std::fabs(off_diagonal[i]) : 0.0;
    lo = std::min(lo, diagonal[i] - left - right);
    hi = std::max(hi, diagonal[i] + left + right);
    max_coupling_sq = std::max(max_coupling_sq, right * right);
  }
  const double pivot_floor =
      std::numeric_limits<double>::min() * max_coupling_sq;

  // Sturm count: the number of eigenvalues below x is the number of
  // negative pivots of the LDL^T factorization of T - xI.
  const auto count_below = [&](double x) {
    std::size_t count = 0;
    double pivot = 1.0;
    for (std::size_t i = 0; i < n; ++i) {
      pivot = diagonal[i] - x -
              (i > 0 ? off_diagonal[i - 1] * off_diagonal[i - 1] / pivot : 0.0);
      if (std::fabs(pivot) < pivot_floor) pivot = -pivot_floor;
      if (pivot < 0.0) ++count;
    }
    return count;
  };

  // Bisect for the eigenvalue of rank k (0-based, ascending) down to a
  // few ulps of the interval's magnitude.
  const auto bisect = [&](std::size_t k) {
    double low = lo;
    double high = hi;
    const double tolerance =
        4.0 * std::numeric_limits<double>::epsilon() *
        std::max({1.0, std::fabs(lo), std::fabs(hi)});
    while (high - low > tolerance) {
      const double mid = 0.5 * (low + high);
      if (count_below(mid) > k) {
        high = mid;
      } else {
        low = mid;
      }
    }
    return 0.5 * (low + high);
  };

  return {bisect(0), bisect(n - 1)};
}

SpectrumResult laplacian_extremes(const Graph& g,
                                  const SpectrumOptions& options) {
  if (g.num_nodes() == 0 || g.num_edges() == 0) return {};
  // Metrics are defined on the GCC; a connected input is used in place.
  if (!is_connected(g)) {
    return laplacian_extremes(largest_connected_component(g).graph, options);
  }
  if (g.num_nodes() == 2) return {2.0, 2.0, 1};

  const LaplacianOperator op(g);

  // λ_{n-1}: plain Lanczos — the top Ritz value.
  const auto top = lanczos(op, nullptr, options);

  // λ1: deflate the exact kernel vector; the bottom Ritz value remains.
  const Vector v0 = op.kernel_vector();
  auto opts1 = options;
  opts1.seed = options.seed + 1;
  const auto bottom = lanczos(op, &v0, opts1);
  return {std::max(0.0, bottom.extremes.smallest), top.extremes.largest,
          top.iterations + bottom.iterations};
}

}  // namespace orbis::metrics
