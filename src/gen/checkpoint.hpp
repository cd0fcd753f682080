// Checkpoint/resume and the leg driver for long targeting runs
// (docs/robustness.md).  gen::Pipeline (gen/pipeline.hpp) runs every
// targeting stage through this driver; the library, the CLI, the
// checkpointed CLI and the job server differ only in where they ask it
// to pause.
//
// A stage is structured as LEGS of `checkpoint_every` attempts.  At every
// leg boundary each chain's state is reduced to its canonical form — the
// edge list (slot order), the Rng's four state words, the cumulative
// RewiringStats and the attempt count — and the engine is rebuilt from
// scratch for the next leg.  That canonicalize-at-every-boundary
// discipline is what makes resume exact:
//
//   kill at ANY boundary + resume  ==  the uninterrupted run,
//   bit-identical final graph, distance and stats,
//
// because resuming IS what the uninterrupted run does at that boundary
// anyway (rebuild from the canonical form).  Nothing history-dependent
// (EdgeIndex bucket order, hash layout, objective deviating-list order)
// is ever serialized, so there is nothing to drift.
//
// The flip side: `checkpoint_every` is part of the run's identity, like
// the seed.  gen::Pipeline derives it from the graph (kLegAttemptsPerEdge
// attempts per edge), and a resume takes it from the checkpoint, so
// files written with any other cadence still resume exactly.
//
// Barriers: a boundary is the same rebuild whether or not the chains
// wait for each other there, so barriers never change a byte.  The
// driver only synchronizes chains at a boundary when something needs
// it — a checkpoint sink (on_checkpoint), a step of max_legs legs, or a
// ladder epoch.  Otherwise each chain runs all its legs inside one pool
// task.
//
// Cancellation: the driver polls CheckpointOptions::stop between legs
// and passes it into the leg bodies.  A stop mid-leg discards that
// leg's partial work — each chain snaps back to its last completed
// boundary — so an interrupt can never publish mid-leg state that a
// resume could not reproduce.
//
// File format and I/O live in io/checkpoint_io.hpp; this header is the
// in-memory model and the driver.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <limits>
#include <vector>

#include "core/series.hpp"
#include "gen/rewiring.hpp"
#include "graph/graph.hpp"
#include "util/rng.hpp"
#include "util/stop_token.hpp"

namespace orbis::exec {
class ThreadPool;
}

namespace orbis::gen {

/// Canonical state of one chain at a leg boundary.
struct ChainCheckpoint {
  std::uint64_t attempts_done = 0;
  std::array<std::uint64_t, 4> rng_state{};  // util::Rng::state_words
  RewiringStats stats;                       // cumulative over all legs
  /// Exact integer D_d after the last completed leg; the max sentinel
  /// marks a chain that has not run yet (the objective rebuild computes
  /// the true distance on first contact).
  std::int64_t distance = std::numeric_limits<std::int64_t>::max();
  /// Laddered (replica-exchange) runs only: this replica's CURRENT
  /// Metropolis temperature — run state, because the adaptive controller
  /// moves it between epochs (docs/annealing.md).  Non-laddered runs
  /// keep using TargetingOptions::temperature and ignore this field.
  double temperature = 0.0;
  /// The chain's graph on RunCheckpoint::nodes nodes, as its edges in
  /// EdgeIndex slot order — what a leg rebuilds its engine from
  /// (EdgeIndex(n, edges)).  A Graph is only built for the winner.
  std::vector<Edge> edges;
};

/// Everything a resume needs, minus the target distribution (which the
/// caller re-reads from its own file — targets are inputs, not state).
struct RunCheckpoint {
  static constexpr std::uint32_t kVersion = 3;

  int d = 2;          // level of the stage being run: 2 | 3
  /// Level the whole pipeline targets (gen/pipeline.hpp): a d = 3
  /// pipeline runs a 2K stage, then a 3K stage.  Equal to `d` in the
  /// last stage and in every v1/v2 file.
  int target_d = 2;
  /// The pipeline's master Rng after the current stage's draw; the next
  /// stage's chains derive from Rng(from_state_words(pipeline_rng)
  /// .next()).  Only meaningful while d < target_d.
  std::array<std::uint64_t, 4> pipeline_rng{};
  NodeId nodes = 0;                   // node count of every chain's graph
  std::uint64_t budget = 0;           // total attempts per chain
  std::uint64_t checkpoint_every = 0; // leg length; 0 = one single leg
  /// 2K only: the ΔD2 backend, resolved ONCE at run start and pinned so
  /// every leg (and every resume) prices swaps through the same storage.
  /// Dense and sparse walk bit-identical chains regardless — pinning is
  /// a perf-consistency guarantee, not a correctness one.
  ObjectiveBackend backend = ObjectiveBackend::automatic;
  /// Proposal move mix, pinned at run start like the backend: the move
  /// stream is part of the chains' identity, so a resume must replay it.
  MoveKind move = MoveKind::swap;
  /// Replica-exchange ladder (gen/anneal.hpp): epoch length in attempts
  /// between exchange passes; 0 = independent chains (no ladder).  When
  /// set, `checkpoint_every` is a multiple of it, so checkpoint
  /// boundaries always land on epoch boundaries and a resume never
  /// needs mid-epoch controller state.
  std::uint64_t exchange_every = 0;
  bool adaptive = false;  ///< acceptance-band temperature controller on?
  /// Dedicated exchange-decision Rng (stream kExchangeStreamId of chain
  /// 0's seed state): advanced ONLY by exchange passes, so replica
  /// streams are untouched by ladder size or exchange cadence.
  std::array<std::uint64_t, 4> exchange_rng{};
  std::uint64_t exchange_attempted = 0;  // cumulative, all epochs
  std::uint64_t exchange_accepted = 0;
  std::vector<ChainCheckpoint> chains;

  bool laddered() const noexcept { return exchange_every > 0; }

  /// True once every chain has consumed the full budget.
  bool finished() const noexcept {
    for (const auto& chain : chains) {
      if (chain.attempts_done < budget) return false;
    }
    return !chains.empty();
  }

  /// Lowest distance, ties to the lowest id — so the winner never
  /// depends on scheduling.
  std::size_t best_chain() const noexcept {
    std::size_t best = 0;
    for (std::size_t i = 1; i < chains.size(); ++i) {
      if (chains[i].distance < chains[best].distance) best = i;
    }
    return best;
  }

  /// Chain `chain`'s graph (edges in slot order).
  Graph graph(std::size_t chain) const {
    return Graph::from_edges_unchecked(nodes, chains[chain].edges);
  }
};

struct CheckpointOptions {
  /// Invoked with the updated RunCheckpoint after every completed leg
  /// (typically: write it to disk via io::write_checkpoint_file).  Setting
  /// it makes every leg boundary a barrier.
  std::function<void(const RunCheckpoint&)> on_checkpoint;
  /// Polled between legs and passed into the leg bodies; a requested
  /// stop discards the current leg's partial work and returns with
  /// `interrupted` set, each chain at its last boundary.  Without a
  /// barrier the chains may then stand at different boundaries.
  util::StopToken stop{};
  /// Pool the chain legs run on; null = exec::shared_pool().  A test
  /// seam: results are a pure function of the RunCheckpoint, so any
  /// pool (any size) must produce bit-identical runs.
  exec::ThreadPool* pool = nullptr;
  /// Return after this many checkpoint boundaries (a barrier at each);
  /// 0 = run until the budget is spent.  gen::Pipeline::step uses 1.
  std::uint64_t max_legs = 0;
};

struct CheckpointedResult {
  std::size_t best_chain = 0;
  double best_distance = 0.0;
  RewiringStats total_stats;  // summed over chains
  bool interrupted = false;   // stopped before the budget ran out
  std::uint64_t attempts_done = 0;  // per chain, at the returned state
};

/// Builds the leg-0 RunCheckpoint of a single d-stage (2 | 3) targeting
/// run: resolves the chain count (default_chain_count) and the budget
/// (TargetingOptions), seeds chain i with master.stream(i), pins the
/// move kind and (2K) the objective backend.  Every chain starts from
/// `start` on `n` nodes, which must already have the target's degree
/// sequence (2K) or JDD (3K).
RunCheckpoint make_run(int d, NodeId n, const std::vector<Edge>& start,
                       const TargetingOptions& options, std::size_t chains,
                       std::uint64_t checkpoint_every,
                       const util::Rng& master);

/// Same from a Graph, with the master drawn as Rng(rng.next()).
RunCheckpoint make_run(int d, const Graph& start,
                       const TargetingOptions& options, std::size_t chains,
                       std::uint64_t checkpoint_every, util::Rng& rng);

/// Runs the stage `state` describes (state.d: 2 targets target.joint, 3
/// targets target.three_k) leg by leg, chains in parallel on the pool,
/// until the budget is spent, `max_legs` boundaries pass or a stop
/// arrives.  `state` is updated in place and always left at a leg
/// boundary.  Fresh runs and resumes call the SAME function — a resume
/// is indistinguishable from the uninterrupted run reaching that
/// boundary.  `options` must carry the same chain parameters
/// (temperature, guided_fraction, stop_distance, ...) the run was
/// started with; attempts/attempts_per_edge, objective and move are
/// taken from `state`, which is authoritative.
CheckpointedResult run_checkpointed(RunCheckpoint& state,
                                    const dk::DkDistributions& target,
                                    const TargetingOptions& options,
                                    const CheckpointOptions& checkpointing);

}  // namespace orbis::gen
