// gen::Pipeline — THE paper-§5.1 construction, as one resumable stage
// machine: matching_1k bootstrap -> 2K-targeting 1K-preserving rewiring
// -> (d = 3) 3K-targeting 2K-preserving rewiring, every targeting stage
// on the leg driver of gen/checkpoint.hpp.
//
// Every front end drives this one pipeline, so a fixed (seed, target,
// options, chains) gives the same bytes from each of them:
//
//   * gen::generate_dk_random runs it to the end (run());
//   * orbis_tool --checkpoint/--resume steps it (step()) and writes the
//     checkpoint after every step — the file is a sink, not a different
//     walk;
//   * svc::Server advances it by one step per batch slice.
//
// Run identity.  Seeding: the caller's Rng draws matching_1k, then one
// master per stage (rng.next()), and chain i of a stage walks
// master.stream(i).  Legs: every stage cuts its budget into legs of
// leg_attempts(budget, m) attempts, rebuilding each chain from its
// canonical edge list at every boundary; barriers at a boundary never
// change a byte, so run() lets each chain run all its legs without
// waiting for the others (unless a ladder needs the epoch barrier).
// Winner: lowest distance, ties to the lowest chain id; the next stage's
// chains all start from the previous stage's winner.
//
// Checkpoints (io/checkpoint_io.hpp, format v3) record the stage, the
// pipeline's level and master Rng, so a d = 3 run resumes during its 2K
// stage as well as its 3K stage.
#pragma once

#include <cstdint>
#include <vector>

#include "core/series.hpp"
#include "gen/anneal.hpp"
#include "gen/checkpoint.hpp"
#include "gen/rewiring.hpp"
#include "graph/graph.hpp"
#include "util/rng.hpp"

namespace orbis::exec {
class ThreadPool;
}

namespace orbis::gen {

/// Leg length per edge: each boundary costs O(m) (an EdgeIndex rebuild,
/// plus a DkState extraction at 3K), so the cadence scales with m
/// rather than with the budget.  At the default 400 attempts/edge a
/// stage has 8 legs.
inline constexpr std::uint64_t kLegAttemptsPerEdge = 50;

/// The leg cadence of a stage with `budget` attempts per chain on a
/// graph of `m` edges: min(budget, kLegAttemptsPerEdge * m), at least 1.
std::uint64_t leg_attempts(std::uint64_t budget, std::size_t m) noexcept;

/// What a completed stage reports (orbis_tool's `target.2k` /
/// `target.3k` stage records).
struct StageResult {
  int d = 2;
  std::size_t chains = 0;
  std::size_t best_chain = 0;
  double final_distance = 0.0;  // the winner's exact D_d
  RewiringStats stats;          // summed over chains, whole stage
  double seconds = 0.0;         // wall time this process spent on it
};

class Pipeline {
 public:
  /// Fresh run at level d (2 | 3): bootstraps the 1K start graph from
  /// `target` (its degree distribution, else the JDD's projection) and
  /// builds the 2K stage.  `rng` is advanced by matching_1k and one draw
  /// per stage.  `chains`: 0 = default_chain_count().  `ladder` (may be
  /// null) turns every stage into a replica-exchange ladder of `chains`
  /// replicas; the 3K stage continues from the 2K stage's temperatures.
  /// `target` must outlive the pipeline.
  Pipeline(const dk::DkDistributions& target, int d,
           const TargetingOptions& options, std::size_t chains,
           util::Rng& rng, const LadderOptions* ladder = nullptr);

  /// Resume from a checkpoint: no bootstrap, the state is authoritative
  /// (budget, cadence, chains, move, ladder).  `options` must carry the
  /// run's chain parameters (temperature, guided_fraction, ...); its
  /// stop/progress apply to this process.
  Pipeline(const dk::DkDistributions& target, RunCheckpoint resumed,
           const TargetingOptions& options);

  /// Runs every remaining stage to the end.  Returns false when
  /// options.stop interrupted it: each chain then discards its partial
  /// leg and stands at its last boundary — possibly a different one per
  /// chain — and only graph() is meaningful.
  bool run(exec::ThreadPool* pool = nullptr);

  /// Runs to the next checkpoint boundary (one leg of every chain, a
  /// barrier at its end); when that ends a stage, builds the next one.
  /// Returns false when options.stop interrupted the leg, which is then
  /// discarded: checkpoint() stays at the previous boundary.
  bool step(exec::ThreadPool* pool = nullptr);

  bool finished() const noexcept {
    return state_.d == state_.target_d && state_.finished();
  }

  /// The canonical state at the last boundary — what a checkpoint sink
  /// writes.
  const RunCheckpoint& checkpoint() const noexcept { return state_; }

  /// Stages this process completed, in order.
  const std::vector<StageResult>& stages() const noexcept { return stages_; }

  /// The best chain's graph at the last boundary.
  Graph graph() const { return state_.graph(state_.best_chain()); }

 private:
  /// Runs the current stage (max_legs as in CheckpointOptions); on
  /// completion records it and moves on to the next stage.
  bool advance(std::uint64_t max_legs, exec::ThreadPool* pool);
  void finish_stage();

  const dk::DkDistributions& target_;
  TargetingOptions options_;
  RunCheckpoint state_;
  std::vector<StageResult> stages_;
  double stage_seconds_ = 0.0;
};

}  // namespace orbis::gen
