#include "gen/pipeline.hpp"

#include <algorithm>
#include <chrono>
#include <optional>
#include <utility>

#include "gen/matching.hpp"
#include "obs/trace.hpp"
#include "util/check.hpp"

namespace orbis::gen {

namespace {

/// A stage's leg-0 state: make_run at the pipeline's leg cadence, laddered
/// when `ladder` is set.
RunCheckpoint make_stage(int d, NodeId n, const std::vector<Edge>& start,
                         const TargetingOptions& options, std::size_t chains,
                         const util::Rng& master, const LadderOptions* ladder) {
  RunCheckpoint stage = make_run(d, n, start, options, chains,
                                 /*checkpoint_every=*/0, master);
  stage.checkpoint_every = leg_attempts(stage.budget, start.size());
  if (ladder != nullptr) apply_ladder(stage, options, *ladder);
  return stage;
}

}  // namespace

std::uint64_t leg_attempts(std::uint64_t budget, std::size_t m) noexcept {
  return std::max<std::uint64_t>(
      std::min<std::uint64_t>(budget, kLegAttemptsPerEdge * m), 1);
}

Pipeline::Pipeline(const dk::DkDistributions& target, int d,
                   const TargetingOptions& options, std::size_t chains,
                   util::Rng& rng, const LadderOptions* ladder)
    : target_(target), options_(options) {
  util::expects(d == 2 || d == 3, "Pipeline: d must be 2 or 3");
  // Prefer the explicit 1K (it still knows about degree-0 nodes, which
  // the JDD projection cannot see).
  const auto& one_k = target.degree.num_nodes() > 0
                          ? target.degree
                          : target.joint.project_to_1k();
  Graph start;
  {
    const obs::Span span("generate.seed_1k");
    start = matching_1k(one_k, rng);
  }
  const util::Rng master(rng.next());
  state_ = make_stage(2, start.num_nodes(), start.edges(), options_, chains,
                      master, ladder);
  state_.target_d = d;
  if (d == 3) {
    // The 3K stage's master is the caller's next draw; take it now so
    // the caller's Rng ends one draw per stage past matching_1k.
    state_.pipeline_rng = rng.state_words();
    (void)rng.next();
  }
}

Pipeline::Pipeline(const dk::DkDistributions& target, RunCheckpoint resumed,
                   const TargetingOptions& options)
    : target_(target), options_(options), state_(std::move(resumed)) {
  util::expects(state_.d <= state_.target_d,
                "Pipeline: checkpoint stage exceeds its target level");
}

bool Pipeline::run(exec::ThreadPool* pool) {
  while (!finished()) {
    if (!advance(0, pool)) return false;
  }
  return true;
}

bool Pipeline::step(exec::ThreadPool* pool) {
  return finished() || advance(1, pool);
}

bool Pipeline::advance(std::uint64_t max_legs, exec::ThreadPool* pool) {
  if (!state_.finished()) {
    CheckpointOptions checkpointing;
    checkpointing.stop = options_.stop;
    checkpointing.pool = pool;
    checkpointing.max_legs = max_legs;
    const auto start = std::chrono::steady_clock::now();
    CheckpointedResult result;
    {
      // A step's legs carry their own checkpoint.leg spans; a whole-stage
      // run is one span with no span nested inside it.
      std::optional<obs::Span> span;
      if (max_legs == 0) {
        span.emplace(state_.d == 2 ? "generate.target_2k"
                                   : "generate.target_3k");
      }
      result = run_checkpointed(state_, target_, options_, checkpointing);
    }
    stage_seconds_ += std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - start)
                          .count();
    if (result.interrupted) return false;
  }
  if (state_.finished()) finish_stage();
  return true;
}

void Pipeline::finish_stage() {
  const std::size_t best = state_.best_chain();
  StageResult stage;
  stage.d = state_.d;
  stage.chains = state_.chains.size();
  stage.best_chain = best;
  stage.final_distance = static_cast<double>(state_.chains[best].distance);
  for (const auto& chain : state_.chains) stage.stats += chain.stats;
  stage.seconds = stage_seconds_;
  stages_.push_back(stage);
  stage_seconds_ = 0.0;
  if (state_.d == state_.target_d) return;

  // Next stage: every chain starts from this stage's winner, seeded from
  // the pipeline's next master draw.  Budget, move kind and ladder are
  // run identity and carry over from the state (a resumed process may
  // hold other options).
  util::Rng pipeline_rng = util::Rng::from_state_words(state_.pipeline_rng);
  const util::Rng master(pipeline_rng.next());
  TargetingOptions options = options_;
  options.attempts = state_.budget;
  options.move = state_.move;
  const LadderOptions ladder{.exchange_every = state_.exchange_every,
                             .adaptive = state_.adaptive};
  RunCheckpoint next = make_stage(
      state_.d + 1, state_.nodes, state_.chains[best].edges, options,
      state_.chains.size(), master, state_.laddered() ? &ladder : nullptr);
  next.target_d = state_.target_d;
  next.pipeline_rng = pipeline_rng.state_words();
  if (state_.laddered()) {
    for (std::size_t i = 0; i < next.chains.size(); ++i) {
      next.chains[i].temperature = state_.chains[i].temperature;
    }
  }
  state_ = std::move(next);
}

}  // namespace orbis::gen
