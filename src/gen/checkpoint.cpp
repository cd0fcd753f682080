#include "gen/checkpoint.hpp"

#include <algorithm>
#include <utility>

#include "exec/thread_pool.hpp"
#include "gen/anneal.hpp"
#include "gen/rewiring_engine.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/check.hpp"

namespace orbis::gen {

namespace {

std::size_t budget_of(const TargetingOptions& options, std::size_t m) {
  return options.attempts > 0 ? options.attempts
                              : options.attempts_per_edge * m;
}

/// Distinct degree values of the graph (n, edges) — the class count the
/// dense-vs-sparse heuristic prices.  (EdgeIndex computes the same
/// thing; this avoids building a full index just to pin the backend.)
std::uint32_t distinct_degree_count(NodeId n, const std::vector<Edge>& edges) {
  std::vector<std::uint32_t> degree(n, 0);
  for (const auto& [u, v] : edges) {
    ++degree[u];
    ++degree[v];
  }
  std::sort(degree.begin(), degree.end());
  return static_cast<std::uint32_t>(
      std::unique(degree.begin(), degree.end()) - degree.begin());
}

/// Cumulative stats over all chains — the between-leg snapshot the
/// metrics publication diffs against.
RewiringStats sum_chain_stats(const RunCheckpoint& state) {
  RewiringStats total;
  for (const auto& chain : state.chains) total += chain.stats;
  return total;
}

/// Attempts from `done` to the next pause point: the checkpoint grid,
/// cut further by the exchange-epoch grid on laddered runs (the
/// checkpoint cadence is a multiple of the epoch, so every pause point
/// is an epoch boundary).
std::uint64_t next_leg(const RunCheckpoint& state, std::uint64_t done) {
  const std::uint64_t every =
      state.checkpoint_every > 0 ? state.checkpoint_every : state.budget;
  std::uint64_t leg = std::min(every - done % every, state.budget - done);
  if (state.exchange_every > 0) {
    leg = std::min(leg, state.exchange_every - done % state.exchange_every);
  }
  return leg;
}

/// Advances one chain by `leg` attempts from its canonical state and
/// re-canonicalizes it.  The engine is rebuilt from the edge list — the
/// same rebuild a resume performs, which is the whole determinism
/// argument.
class LegRunner {
 public:
  LegRunner(const RunCheckpoint& state, const dk::DkDistributions& target,
            const TargetingOptions& options, util::StopToken stop)
      : state_(state), target_(target), options_(options) {
    options_.objective = state.backend;  // pinned at run start
    options_.move = state.move;          // pinned: part of run identity
    options_.stop = stop;                // mid-leg bail; leg is discarded
  }

  void operator()(ChainCheckpoint& chain, std::uint64_t leg,
                  std::size_t chain_index) const {
    util::Rng rng = util::Rng::from_state_words(chain.rng_state);
    TargetingOptions chain_options = options_;
    chain_options.progress_lane = static_cast<std::uint32_t>(chain_index);
    // Replicas run at their OWN ladder temperature (run state, moved by
    // the controller); independent chains keep the caller's.
    if (state_.laddered()) chain_options.temperature = chain.temperature;
    if (state_.d == 2) {
      RewiringEngine engine(state_.nodes, std::move(chain.edges));
      chain.distance = engine.target_2k(target_.joint, chain_options, leg,
                                        rng, &chain.stats);
      chain.edges = engine.index().edges();
    } else {
      ThreeKRewirer rewirer(state_.nodes, std::move(chain.edges));
      chain.distance = rewirer.target(target_.three_k, chain_options, leg,
                                      rng, &chain.stats);
      chain.edges = rewirer.index().edges();
    }
    chain.rng_state = rng.state_words();
  }

 private:
  const RunCheckpoint& state_;
  const dk::DkDistributions& target_;
  TargetingOptions options_;
};

/// Advances every chain leg by leg up to `until` attempts, each chain in
/// its own pool task.  A stop ends a chain at its last boundary: the leg
/// it cut short is discarded.  A converged chain idles through its
/// remaining legs without touching its Rng.
void run_chains(RunCheckpoint& state, std::uint64_t until,
                const LegRunner& run_leg, util::StopToken stop,
                double stop_distance, exec::ThreadPool& pool) {
  std::vector<std::function<void()>> tasks;
  tasks.reserve(state.chains.size());
  for (std::size_t i = 0; i < state.chains.size(); ++i) {
    tasks.emplace_back([&state, &run_leg, until, stop, stop_distance, i]() {
      ChainCheckpoint& chain = state.chains[i];
      while (chain.attempts_done < until && !stop.stop_requested()) {
        const std::uint64_t leg = next_leg(state, chain.attempts_done);
        if (static_cast<double>(chain.distance) > stop_distance) {
          ChainCheckpoint boundary;
          if (stop.stop_possible()) boundary = chain;
          run_leg(chain, leg, i);
          if (stop.stop_requested()) {
            chain = std::move(boundary);
            return;
          }
        }
        chain.attempts_done += leg;
      }
    });
  }
  pool.run_tasks(tasks);
}

}  // namespace

RunCheckpoint make_run(int d, NodeId n, const std::vector<Edge>& start,
                       const TargetingOptions& options, std::size_t chains,
                       std::uint64_t checkpoint_every,
                       const util::Rng& master) {
  util::expects(d == 2 || d == 3, "make_run: d must be 2 or 3");
  RunCheckpoint state;
  state.d = d;
  state.target_d = d;
  state.nodes = n;
  state.budget = budget_of(options, start.size());
  state.checkpoint_every = checkpoint_every;
  state.move = options.move;  // pinned: the move stream is run identity
  state.backend = d == 2 ? resolve_objective_backend(
                               options.objective,
                               distinct_degree_count(n, start),
                               options.memory_budget_mb)
                         : options.objective;
  // Chain i gets master.stream(i): a pure function of (master, i),
  // independent of scheduling and of how many chains run concurrently.
  state.chains.resize(default_chain_count(chains));
  for (std::size_t chain = 0; chain < state.chains.size(); ++chain) {
    state.chains[chain].rng_state = master.stream(chain).state_words();
    state.chains[chain].edges = start;
  }
  return state;
}

RunCheckpoint make_run(int d, const Graph& start,
                       const TargetingOptions& options, std::size_t chains,
                       std::uint64_t checkpoint_every, util::Rng& rng) {
  const util::Rng master(rng.next());
  return make_run(d, start.num_nodes(), start.edges(), options, chains,
                  checkpoint_every, master);
}

CheckpointedResult run_checkpointed(RunCheckpoint& state,
                                    const dk::DkDistributions& target,
                                    const TargetingOptions& options,
                                    const CheckpointOptions& checkpointing) {
  util::expects(state.d == 2 || state.d == 3,
                "run_checkpointed: stage must be 2 or 3");
  util::expects(!state.chains.empty(),
                "run_checkpointed: checkpoint has no chains");
  for (const auto& chain : state.chains) {
    util::expects(chain.attempts_done == state.chains[0].attempts_done,
                  "run_checkpointed: chains out of step (corrupt state?)");
  }
  util::expects(state.exchange_every == 0 || state.checkpoint_every == 0 ||
                    state.checkpoint_every % state.exchange_every == 0,
                "run_checkpointed: exchange cadence must divide the "
                "checkpoint cadence");

  static obs::Counter& legs_completed =
      obs::Registry::global().counter("checkpoint.legs_completed");
  static obs::Counter& flushes =
      obs::Registry::global().counter("checkpoint.flushes");
  static obs::Counter& exchange_attempts_metric =
      obs::Registry::global().counter("anneal.exchange_attempts");
  static obs::Counter& exchange_accepts_metric =
      obs::Registry::global().counter("anneal.exchange_accepts");

  CheckpointedResult result;
  const util::StopToken stop = checkpointing.stop;
  exec::ThreadPool& pool = checkpointing.pool != nullptr
                               ? *checkpointing.pool
                               : exec::shared_pool();
  const LegRunner run_leg(state, target, options, stop);

  // Metrics publish per-leg DELTAS against these baselines, so a
  // resumed run never re-counts work a previous process already ran.
  RewiringStats published = sum_chain_stats(state);
  std::uint64_t published_attempted = state.exchange_attempted;
  std::uint64_t published_accepted = state.exchange_accepted;

  // No barrier unless something needs one: each chain then runs all its
  // legs inside one pool task.
  const bool barrier = checkpointing.on_checkpoint ||
                       checkpointing.max_legs > 0 || state.laddered();
  if (!barrier) {
    run_chains(state, state.budget, run_leg, stop, options.stop_distance,
               pool);
    publish_rewiring_metrics(sum_chain_stats(state).delta_since(published));
    result.interrupted = !state.finished();
  }

  // Per-chain stats at the current epoch's start: the adaptive
  // controller reads each replica's acceptance rate over exactly one
  // epoch.  Never serialized — every pause point is an epoch boundary,
  // so a resume re-captures it before the next epoch runs.
  std::vector<RewiringStats> epoch_start;
  const std::uint64_t epoch = state.exchange_every;
  const std::uint64_t every =
      state.checkpoint_every > 0 ? state.checkpoint_every : state.budget;
  std::uint64_t boundaries = 0;
  while (barrier && state.chains[0].attempts_done < state.budget) {
    if (checkpointing.max_legs > 0 && boundaries >= checkpointing.max_legs) {
      break;
    }
    if (stop.stop_requested()) {
      result.interrupted = true;
      break;
    }
    const std::uint64_t done = state.chains[0].attempts_done;
    if (epoch > 0) {
      epoch_start.resize(state.chains.size());
      for (std::size_t i = 0; i < state.chains.size(); ++i) {
        epoch_start[i] = state.chains[i].stats;
      }
    }

    // A stop discards the whole leg, so every chain snaps back to the
    // same boundary.  Without a stop token no interrupt can happen, so
    // skip the copies.
    std::vector<ChainCheckpoint> boundary;
    if (stop.stop_possible()) boundary = state.chains;
    {
      const obs::Span leg_span("checkpoint.leg");
      run_chains(state, done + next_leg(state, done), run_leg, stop,
                 options.stop_distance, pool);
    }
    if (stop.stop_requested()) {
      // The caller's last on_checkpoint write is still the truth on disk.
      if (!boundary.empty()) state.chains = std::move(boundary);
      result.interrupted = true;
      break;
    }
    const std::uint64_t now_done = state.chains[0].attempts_done;
    if (epoch > 0 && now_done % epoch == 0 && now_done < state.budget) {
      // Serial by design: exchange decisions come from the dedicated
      // exchange Rng stream, so the pass is a pure function of the
      // RunCheckpoint regardless of pool size or scheduling.
      run_ladder_epoch_pass(state, now_done / epoch - 1, epoch_start);
    }
    if (now_done % every == 0 || now_done >= state.budget) {
      ++boundaries;
      const RewiringStats now = sum_chain_stats(state);
      publish_rewiring_metrics(now.delta_since(published));
      published = now;
      exchange_attempts_metric.add(state.exchange_attempted -
                                   published_attempted);
      exchange_accepts_metric.add(state.exchange_accepted -
                                  published_accepted);
      published_attempted = state.exchange_attempted;
      published_accepted = state.exchange_accepted;
      legs_completed.add(1);
      if (checkpointing.on_checkpoint) {
        const obs::Span flush_span("checkpoint.flush");
        checkpointing.on_checkpoint(state);
        flushes.add(1);
      }
    }
  }

  result.best_chain = state.best_chain();
  result.best_distance =
      static_cast<double>(state.chains[result.best_chain].distance);
  result.attempts_done = state.chains[0].attempts_done;
  result.total_stats = sum_chain_stats(state);
  return result;
}

}  // namespace orbis::gen
