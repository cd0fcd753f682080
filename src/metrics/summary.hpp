// ScalarMetrics: the paper's Table-2 bundle, computed in one call.
//
//   k̄    average degree            r     assortativity coefficient
//   C̄    mean clustering           d̄     average hop distance
//   σd   distance std deviation    S2    second-order likelihood
//   λ1   smallest non-zero         λn-1  largest normalized-Laplacian
//        eigenvalue                      eigenvalue
//
// Following §5, all values are computed on the giant connected component.
#pragma once

#include <string>

#include "graph/graph.hpp"
#include "obs/progress.hpp"
#include "svc/run_context.hpp"
#include "util/stop_token.hpp"

namespace orbis::metrics {

struct ScalarMetrics {
  double average_degree = 0.0;   // k̄
  double assortativity = 0.0;    // r
  double mean_clustering = 0.0;  // C̄
  double mean_distance = 0.0;    // d̄
  double distance_stddev = 0.0;  // σd
  double likelihood_s = 0.0;     // S  (Σ_edges k_u k_v)
  double s2 = 0.0;               // S2 (Σ_wedges k1 k3)
  double lambda1 = 0.0;          // λ1
  double lambda_max = 0.0;       // λ_{n-1}
  std::uint64_t gcc_nodes = 0;
  std::uint64_t gcc_edges = 0;
};

struct SummaryOptions {
  /// λ1 and λ_{n-1} by two O(n)-memory Lanczos solves (spectrum.hpp);
  /// off skips them and leaves both at 0.
  bool with_spectrum = true;
  bool with_distance = true;   // exact distance histogram (batched BFS)
  bool with_s2 = true;         // 3K extraction for S2
  /// Cooperative cancellation, polled between metric phases, inside the
  /// distance phase before each 64-source BFS batch, and inside the
  /// spectrum before each Lanczos step (3K extraction for S2 runs to
  /// completion; it is a small fraction of the total).  A requested stop
  /// throws orbis::InterruptedError.
  util::StopToken stop{};
  /// Live progress: one sample per completed phase, attempts = phases
  /// done, budget = phases enabled.  Null = silent.
  obs::ProgressSink* progress = nullptr;
  std::uint32_t progress_lane = 0;

  /// Adopts the shared execution context (svc/run_context.hpp).
  /// Throws std::invalid_argument unless ctx.workers == 1.
  void apply(const svc::RunContext& ctx) {
    ctx.expect_serial();
    stop = ctx.stop;
    progress = ctx.progress;
  }
};

/// Compute the scalar bundle on g's giant connected component.
ScalarMetrics compute_scalar_metrics(const Graph& g,
                                     const SummaryOptions& options = {});

/// Context form — the unified entry-point contract (docs/service.md):
/// applies ctx's stop/progress over `options` and delegates.
ScalarMetrics compute_scalar_metrics(const Graph& g, SummaryOptions options,
                                     const svc::RunContext& ctx);

/// One-line rendering for logs.
std::string to_string(const ScalarMetrics& metrics);

}  // namespace orbis::metrics
