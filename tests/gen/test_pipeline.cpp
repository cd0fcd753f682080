// gen::Pipeline — the one §5.1 stage machine every front end drives.
// Its contract: the bytes are a pure function of (target, seed, options,
// chains); barriers, steps, pool size and scheduling are unobservable.
#include "gen/pipeline.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "core/series.hpp"
#include "exec/thread_pool.hpp"
#include "gen/matching.hpp"
#include "graph/builders.hpp"
#include "obs/progress.hpp"
#include "util/rng.hpp"

namespace orbis::gen {
namespace {

void expect_same_state(const RunCheckpoint& a, const RunCheckpoint& b) {
  EXPECT_EQ(a.d, b.d);
  ASSERT_EQ(a.chains.size(), b.chains.size());
  for (std::size_t i = 0; i < a.chains.size(); ++i) {
    EXPECT_EQ(a.chains[i].edges, b.chains[i].edges) << "chain " << i;
    EXPECT_EQ(a.chains[i].rng_state, b.chains[i].rng_state) << "chain " << i;
    EXPECT_EQ(a.chains[i].stats, b.chains[i].stats) << "chain " << i;
    EXPECT_EQ(a.chains[i].distance, b.chains[i].distance) << "chain " << i;
    EXPECT_EQ(a.chains[i].attempts_done, b.chains[i].attempts_done);
  }
}

class PipelineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    util::Rng rng(91);
    target_ = dk::extract(builders::gnm(40, 90, rng), 3);
    options_.attempts_per_edge = 200;  // 4 legs of 50 attempts per edge
  }
  dk::DkDistributions target_;
  TargetingOptions options_;
};

TEST(LegCadence, FiftyAttemptsPerEdgeCappedByTheBudget) {
  EXPECT_EQ(leg_attempts(400 * 1000, 1000), 50'000u);  // budget / 8
  EXPECT_EQ(leg_attempts(10 * 1000, 1000), 10'000u);   // a single leg
  EXPECT_EQ(leg_attempts(0, 0), 1u);
}

TEST_F(PipelineTest, BitIdenticalAcrossPoolSizes) {
  const auto run_on = [&](std::size_t threads) {
    exec::ThreadPool pool(threads);
    util::Rng rng(1234);
    Pipeline pipeline(target_, 3, options_, /*chains=*/3, rng);
    EXPECT_TRUE(pipeline.run(&pool));
    return pipeline;
  };
  const Pipeline serial = run_on(1);
  const Pipeline parallel = run_on(4);
  expect_same_state(serial.checkpoint(), parallel.checkpoint());
  EXPECT_EQ(serial.graph().edges(), parallel.graph().edges());
  ASSERT_EQ(serial.stages().size(), 2u);
  ASSERT_EQ(parallel.stages().size(), 2u);
  EXPECT_EQ(serial.stages()[1].best_chain, parallel.stages()[1].best_chain);
  EXPECT_EQ(serial.stages()[1].stats, parallel.stages()[1].stats);
}

TEST_F(PipelineTest, ChainsWalkDistinctStreams) {
  util::Rng rng(5);
  const Pipeline pipeline(target_, 2, options_, /*chains=*/4, rng);
  const auto& chains = pipeline.checkpoint().chains;
  ASSERT_EQ(chains.size(), 4u);
  for (std::size_t i = 1; i < chains.size(); ++i) {
    EXPECT_NE(chains[0].rng_state, chains[i].rng_state) << "chain " << i;
  }
  // A single chain is no special case: it walks stream 0 too.
  util::Rng single_rng(5);
  const Pipeline single(target_, 2, options_, /*chains=*/1, single_rng);
  EXPECT_EQ(single.checkpoint().chains[0].rng_state, chains[0].rng_state);
}

TEST_F(PipelineTest, AdvancesCallerRngOncePerStage) {
  for (const int d : {2, 3}) {
    util::Rng rng(77);
    const Pipeline pipeline(target_, d, options_, /*chains=*/2, rng);
    util::Rng reference(77);
    (void)matching_1k(target_.degree, reference);
    for (int stage = 2; stage <= d; ++stage) (void)reference.next();
    for (int i = 0; i < 16; ++i) EXPECT_EQ(rng.next(), reference.next());
  }
}

TEST_F(PipelineTest, MoreChainsThanThreadsAllRun) {
  exec::ThreadPool pool(2);
  TargetingOptions options = options_;
  options.stop_distance = -1.0;  // no chain may stop early
  util::Rng rng(5);
  Pipeline pipeline(target_, 2, options, /*chains=*/8, rng);
  ASSERT_TRUE(pipeline.run(&pool));
  const RunCheckpoint& state = pipeline.checkpoint();
  ASSERT_EQ(state.chains.size(), 8u);
  for (const auto& chain : state.chains) {
    EXPECT_EQ(chain.attempts_done, state.budget);
    EXPECT_EQ(chain.stats.attempts, state.budget);
  }
}

/// Throws from inside chain `lane`'s leg at its first progress report.
class ThrowingSink : public obs::ProgressSink {
 public:
  explicit ThrowingSink(std::uint32_t lane) : lane_(lane) {}
  void report(std::uint32_t lane, const obs::ProgressSample&) override {
    if (lane == lane_) throw std::runtime_error("chain died");
  }

 private:
  std::uint32_t lane_;
};

TEST_F(PipelineTest, PropagatesChainExceptions) {
  ThrowingSink sink(2);
  TargetingOptions options = options_;
  options.progress = &sink;
  for (const bool stepped : {false, true}) {
    util::Rng rng(6);
    Pipeline pipeline(target_, 2, options, /*chains=*/4, rng);
    EXPECT_THROW(stepped ? pipeline.step() : pipeline.run(),
                 std::runtime_error);
  }
}

TEST_F(PipelineTest, ResultIndependentOfScheduling) {
  // Chains race on real threads; the selected result must still be a
  // deterministic function of the seed (best distance, ties to the
  // lowest chain id).
  const auto run = [&]() {
    util::Rng rng(59);
    Pipeline pipeline(target_, 2, options_, /*chains=*/4, rng);
    EXPECT_TRUE(pipeline.run());
    return pipeline;
  };
  const Pipeline a = run();
  const Pipeline b = run();
  EXPECT_EQ(a.graph().edges(), b.graph().edges());
  ASSERT_EQ(a.stages().size(), 1u);
  const StageResult& stage = a.stages()[0];
  EXPECT_EQ(stage.best_chain, b.stages()[0].best_chain);
  EXPECT_EQ(stage.final_distance, b.stages()[0].final_distance);
  EXPECT_EQ(stage.stats, b.stages()[0].stats);
  EXPECT_EQ(stage.stats.attempts,
            stage.stats.accepted + stage.stats.rejected_structural +
                stage.stats.rejected_constraint +
                stage.stats.rejected_objective);

  // The reported distance matches a recount of the returned graph.
  const Graph g = a.graph();
  EXPECT_DOUBLE_EQ(stage.final_distance,
                   dk::distance_2k(dk::JointDegreeDistribution::from_graph(g),
                                   target_.joint));
  // 1K is preserved by every chain.
  EXPECT_EQ(dk::DegreeDistribution::from_graph(g), target_.degree);
}

TEST_F(PipelineTest, ThreeKStageConvergesAndPreservesJdd) {
  util::Rng rng(63);
  Pipeline pipeline(target_, 3, options_, /*chains=*/3, rng);
  ASSERT_TRUE(pipeline.run());
  ASSERT_EQ(pipeline.stages().size(), 2u);
  EXPECT_EQ(pipeline.stages()[0].d, 2);
  EXPECT_EQ(pipeline.stages()[0].final_distance, 0.0);
  const StageResult& three_k = pipeline.stages()[1];
  EXPECT_EQ(three_k.d, 3);
  EXPECT_LT(three_k.best_chain, 3u);
  const Graph best = pipeline.graph();
  EXPECT_EQ(dk::JointDegreeDistribution::from_graph(best), target_.joint);
  EXPECT_NEAR(three_k.final_distance,
              dk::distance_3k(dk::ThreeKProfile::from_graph(best),
                              target_.three_k),
              1e-6);
}

TEST_F(PipelineTest, StepsAndRunWalkTheSameChains) {
  // Barriers at every leg (a checkpoint sink, a server slice) against
  // free-running chains: the same rebuilds, so the same bytes.
  for (const int d : {2, 3}) {
    util::Rng run_rng(8);
    Pipeline whole(target_, d, options_, /*chains=*/2, run_rng);
    ASSERT_TRUE(whole.run());

    util::Rng step_rng(8);
    Pipeline stepped(target_, d, options_, /*chains=*/2, step_rng);
    std::size_t steps = 0;
    while (!stepped.finished()) {
      ASSERT_TRUE(stepped.step());
      ++steps;
    }
    EXPECT_EQ(steps, 4u * static_cast<std::size_t>(d - 1)) << "d " << d;
    expect_same_state(whole.checkpoint(), stepped.checkpoint());
    EXPECT_EQ(whole.graph().edges(), stepped.graph().edges());
    ASSERT_EQ(whole.stages().size(), stepped.stages().size());
    for (std::size_t i = 0; i < whole.stages().size(); ++i) {
      EXPECT_EQ(whole.stages()[i].final_distance,
                stepped.stages()[i].final_distance);
      EXPECT_EQ(whole.stages()[i].stats, stepped.stages()[i].stats);
    }
  }
}

TEST_F(PipelineTest, SingleChainThreeKStageIsStepAndPoolInvariant) {
  // One chain runs its legs as one pool task, or inline on a 1-thread
  // pool; either way, and with or without a barrier per leg, the 3K
  // stage walks the same serial chain.  Trades included: the serial
  // chain prices them exactly.
  for (const MoveKind move : {MoveKind::swap, MoveKind::trade}) {
    TargetingOptions options = options_;
    options.move = move;
    const auto run_on = [&](std::size_t threads, bool stepped) {
      exec::ThreadPool pool(threads);
      util::Rng rng(12);
      Pipeline pipeline(target_, 3, options, /*chains=*/1, rng);
      while (!pipeline.finished()) {
        EXPECT_TRUE(stepped ? pipeline.step(&pool) : pipeline.run(&pool));
      }
      return pipeline.graph().edges();
    };
    const auto whole = run_on(4, false);
    EXPECT_EQ(run_on(4, true), whole) << to_string(move);
    EXPECT_EQ(run_on(1, false), whole) << to_string(move);
  }
}

TEST_F(PipelineTest, PreRequestedStopReturnsTheSeed) {
  util::StopSource stop;
  stop.request_stop();
  TargetingOptions options = options_;
  options.stop = stop.token();
  util::Rng rng(4);
  Pipeline pipeline(target_, 3, options, /*chains=*/2, rng);
  EXPECT_FALSE(pipeline.run());
  EXPECT_FALSE(pipeline.step());
  // No leg completed: the best graph is the 1K seed, untouched.
  util::Rng seed_rng(4);
  EXPECT_EQ(pipeline.graph().edges(),
            matching_1k(target_.degree, seed_rng).edges());
  EXPECT_EQ(pipeline.checkpoint().d, 2);
  EXPECT_EQ(pipeline.checkpoint().chains[0].attempts_done, 0u);
}

}  // namespace
}  // namespace orbis::gen
