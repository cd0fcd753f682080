// Spectrum of the normalized Laplacian (paper §2).
//
// L = I - D^{-1/2} A D^{-1/2}; all eigenvalues lie in [0, 2].  The paper
// tracks the extremes: λ1, the smallest NON-ZERO eigenvalue (connectivity
// / resilience bound), and λ_{n-1}, the largest (bipartiteness bound).
//
// Implementation: matrix-free, three-term Lanczos recurrence
//
//   β_j q_{j+1} = L q_j − α_j q_j − β_{j−1} q_{j−1},
//
// holding q_{j−1}, q_j and w = L q_j only, so memory is O(n) whatever
// the iteration count (no Krylov basis is stored).  λ_{n-1} is the top
// Ritz value of plain Lanczos; λ1 the bottom Ritz value of Lanczos with
// the known null vector v0 ∝ D^{1/2} 1 deflated out (v0 spans L's kernel
// exactly when the graph is connected).
//
// Why no reorthogonalization against the basis is safe here: in finite
// precision, loss of orthogonality only adds copies ("ghosts") of Ritz
// values that have already converged; it never produces a Ritz value
// outside [λ_min, λ_max] (Paige 1980; Cullum & Willoughby 1985), and the
// extreme Ritz values are monotone in k because T_k is a leading
// principal submatrix of T_{k+1}.  So the extremes still converge; lost
// orthogonality can only cost a few extra steps.  v0 is still projected
// out of every w (two passes): it is an exact eigenvector, rounding in
// L q re-seeds it, and once re-seeded the kernel's 0 would become the
// bottom Ritz value and λ1 would read 0.
//
// Every fifth step the extremes of T_k are found by Sturm-count
// bisection (tridiagonal_extremes); the solve stops when both moved by
// less than `tolerance`, when β_j < 1e-10 (invariant subspace), or at
// `max_iterations`.  Metrics are defined on the GCC; a disconnected
// input is reduced to its largest component first (a connected one is
// used in place).
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

#include "graph/graph.hpp"
#include "util/stop_token.hpp"

namespace orbis::metrics {

struct SpectrumResult {
  double lambda1 = 0.0;      // smallest non-zero eigenvalue
  double lambda_max = 0.0;   // largest eigenvalue (λ_{n-1})
  std::size_t iterations = 0;
};

struct SpectrumOptions {
  std::size_t max_iterations = 300;  // Lanczos steps per solve
  double tolerance = 1e-9;           // Ritz value convergence threshold
  std::uint64_t seed = 1;            // start-vector randomization
  /// Cooperative cancellation, polled once per Lanczos step; a requested
  /// stop throws orbis::InterruptedError.
  util::StopToken stop{};
};

/// Extreme normalized-Laplacian eigenvalues of g's largest component.
SpectrumResult laplacian_extremes(const Graph& g,
                                  const SpectrumOptions& options = {});

struct TridiagonalExtremes {
  double smallest = 0.0;
  double largest = 0.0;
};

/// Smallest and largest eigenvalue of a symmetric tridiagonal matrix
/// (n >= 1 diagonal entries, n - 1 off-diagonal ones), by Sturm-count
/// bisection inside its Gershgorin interval to a few ulps.  Exposed for
/// testing.
TridiagonalExtremes tridiagonal_extremes(std::span<const double> diagonal,
                                         std::span<const double> off_diagonal);

}  // namespace orbis::metrics
