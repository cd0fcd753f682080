// The unified entry-point contract (src/svc/run_context.hpp): the
// context-taking overloads are bit-identical to the hand-plumbed calls,
// cancellation flows through ctx.stop, progress flows through
// ctx.progress with the caller's lane, and workers != 1 is rejected.
#include <gtest/gtest.h>

#include <mutex>
#include <stdexcept>
#include <vector>

#include "core/series.hpp"
#include "gen/generate.hpp"
#include "graph/builders.hpp"
#include "metrics/summary.hpp"
#include "obs/progress.hpp"
#include "svc/run_context.hpp"
#include "util/errors.hpp"
#include "util/rng.hpp"
#include "util/stop_token.hpp"

namespace orbis::svc {
namespace {

Graph sample_graph(std::uint64_t seed) {
  util::Rng rng(seed);
  return builders::gnm(60, 150, rng);
}

TEST(RunContext, MakeRngIsAPureFunctionOfTheSeed) {
  RunContext a;
  a.seed = 42;
  RunContext b;
  b.seed = 42;
  util::Rng rng_a = a.make_rng();
  util::Rng rng_b = b.make_rng();
  for (int i = 0; i < 16; ++i) {
    EXPECT_EQ(rng_a.next(), rng_b.next());
  }
}

TEST(RunContext, GenerateContextOverloadMatchesLegacyCall) {
  const Graph original = sample_graph(3);
  const dk::DkDistributions target = dk::extract(original, 2);

  RunContext ctx;
  ctx.seed = 17;
  ctx.chains = 0;  // the Rng form always autotunes the chain count
  gen::GenerateOptions options;
  options.method = gen::Method::targeting;
  options.targeting.attempts = 2000;
  const Graph from_ctx = gen::generate_dk_random(target, 2, options, ctx);

  // The legacy path, hand-plumbed the way pre-context callers did it.
  gen::GenerateOptions legacy = options;
  legacy.targeting.apply(ctx);
  util::Rng rng = ctx.make_rng();
  const Graph from_legacy = gen::generate_dk_random(target, 2, legacy, rng);

  EXPECT_EQ(from_ctx.edges(), from_legacy.edges());
}

TEST(RunContext, DkRandomLikeContextOverloadMatchesDirectRandomize) {
  const Graph original = sample_graph(5);
  RunContext ctx;
  ctx.seed = 23;
  const Graph from_ctx = gen::dk_random_like(original, 1, ctx);

  gen::RandomizeOptions options;
  options.d = 1;
  util::Rng rng = ctx.make_rng();
  const Graph direct = gen::randomize(original, options, rng);

  EXPECT_EQ(from_ctx.edges(), direct.edges());
  EXPECT_EQ(from_ctx.num_edges(), original.num_edges());
}

TEST(RunContext, EntryPointsRejectWorkersOtherThanOne) {
  // The speculative 3K engine is gone; a context that still asks for
  // workers must not be silently run serially.
  const Graph original = sample_graph(9);
  const dk::DkDistributions target = dk::extract(original, 3);
  RunContext ctx;
  ctx.workers = 2;
  gen::GenerateOptions options;
  options.method = gen::Method::targeting;
  for (const int d : {2, 3}) {
    EXPECT_THROW(gen::generate_dk_random(target, d, options, ctx),
                 std::invalid_argument)
        << "d " << d;
    EXPECT_THROW(gen::dk_random_like(original, d, ctx),
                 std::invalid_argument)
        << "d " << d;
  }
  EXPECT_THROW(
      metrics::compute_scalar_metrics(original, metrics::SummaryOptions{},
                                      ctx),
      std::invalid_argument);
  ctx.workers = 0;
  EXPECT_THROW(gen::dk_random_like(original, 3, ctx), std::invalid_argument);
}

TEST(RunContext, DkRandomLikeReportsProgressOnTheCallersLane) {
  struct RecordingSink : obs::ProgressSink {
    std::mutex mutex;
    std::vector<std::uint32_t> lanes;
    void report(std::uint32_t lane, const obs::ProgressSample&) override {
      std::lock_guard<std::mutex> guard(mutex);
      lanes.push_back(lane);
    }
  } sink;

  const Graph original = sample_graph(7);
  RunContext ctx;
  ctx.seed = 29;
  ctx.progress = &sink;
  gen::RandomizeOptions options;
  const Graph rewired = gen::dk_random_like(original, 2, options, ctx);
  EXPECT_EQ(rewired.num_edges(), original.num_edges());
  EXPECT_FALSE(sink.lanes.empty());
}

TEST(RunContext, MetricsHonorStopThroughTheContext) {
  const Graph g = sample_graph(11);
  util::StopSource stop;
  stop.request_stop();
  RunContext ctx;
  ctx.stop = stop.token();
  EXPECT_THROW(
      metrics::compute_scalar_metrics(g, metrics::SummaryOptions{}, ctx),
      InterruptedError);
}

TEST(RunContext, MetricsContextOverloadMatchesDirectCall) {
  const Graph g = sample_graph(13);
  const metrics::ScalarMetrics direct = metrics::compute_scalar_metrics(g);
  const metrics::ScalarMetrics via_ctx =
      metrics::compute_scalar_metrics(g, metrics::SummaryOptions{},
                                      RunContext{});
  EXPECT_DOUBLE_EQ(via_ctx.assortativity, direct.assortativity);
  EXPECT_DOUBLE_EQ(via_ctx.mean_clustering, direct.mean_clustering);
  EXPECT_DOUBLE_EQ(via_ctx.mean_distance, direct.mean_distance);
  EXPECT_EQ(via_ctx.gcc_nodes, direct.gcc_nodes);
}

TEST(RunContext, GenerateReturnsBestSoFarOnPreRequestedStop) {
  const Graph original = sample_graph(17);
  const dk::DkDistributions target = dk::extract(original, 2);
  util::StopSource stop;
  stop.request_stop();
  RunContext ctx;
  ctx.seed = 31;
  ctx.chains = 1;
  ctx.stop = stop.token();
  gen::GenerateOptions options;
  options.method = gen::Method::targeting;
  options.targeting.attempts = 100000;
  // A pre-stopped context must come back promptly with a valid graph,
  // not run the full budget and not throw.
  const Graph g = gen::generate_dk_random(target, 2, options, ctx);
  EXPECT_GT(g.num_nodes(), 0u);
}

}  // namespace
}  // namespace orbis::svc
