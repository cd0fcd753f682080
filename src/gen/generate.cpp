#include "gen/generate.hpp"

#include <stdexcept>

#include "gen/errors.hpp"
#include "gen/matching.hpp"
#include "gen/pipeline.hpp"
#include "gen/pseudograph.hpp"
#include "gen/stochastic.hpp"
#include "graph/builders.hpp"
#include "util/check.hpp"

namespace orbis::gen {

namespace {

/// Method::targeting at d = 2 and every d = 3 call: the §5.1 pipeline,
/// run to the end.  On a stop it hands back the best graph at the last
/// leg boundaries.
Graph run_pipeline(const dk::DkDistributions& target, int d,
                   const TargetingOptions& options, std::size_t chains,
                   util::Rng& rng) {
  Pipeline pipeline(target, d, options, chains, rng);
  pipeline.run();
  return pipeline.graph();
}

Graph generate_0k(const dk::DkDistributions& target, Method method,
                  util::Rng& rng) {
  const auto n = static_cast<NodeId>(target.num_nodes);
  if (method == Method::stochastic) {
    return stochastic_0k(n, target.average_degree, rng);
  }
  // Exact edge-count variant for every non-stochastic method.
  return builders::gnm(n, static_cast<std::size_t>(target.num_edges), rng);
}

Graph generate_1k(const dk::DkDistributions& target, Method method,
                  util::Rng& rng) {
  switch (method) {
    case Method::stochastic:
      return stochastic_1k(target.degree, rng);
    case Method::pseudograph:
      return pseudograph_1k(target.degree, rng).to_simple();
    case Method::matching:
    case Method::targeting:  // 1K needs no targeting pass
      return matching_1k(target.degree, rng);
  }
  throw std::invalid_argument("generate_1k: unknown method");
}

/// The non-targeting 2K constructions (targeting runs the pipeline).
Graph generate_2k(const dk::DkDistributions& target, Method method,
                  util::Rng& rng) {
  switch (method) {
    case Method::stochastic:
      return stochastic_2k(target.joint, rng);
    case Method::pseudograph:
      return pseudograph_2k(target.joint, rng).to_simple();
    default:
      return matching_2k(target.joint, rng);
  }
}

Graph generate(const dk::DkDistributions& target, int d,
               const GenerateOptions& options, std::size_t chains,
               util::Rng& rng) {
  util::expects(d >= 0 && d <= 3, "generate_dk_random: d must be in [0,3]");
  if (d >= 2 && options.method == Method::targeting) {
    return run_pipeline(target, d, options.targeting, chains, rng);
  }
  switch (d) {
    case 0:
      return generate_0k(target, options.method, rng);
    case 1:
      return generate_1k(target, options.method, rng);
    case 2:
      return generate_2k(target, options.method, rng);
    default:
      throw std::invalid_argument(
          "generate_3k: only Method::targeting can construct 3K-random "
          "graphs from distributions (paper §4.1.2: pseudograph/matching "
          "do not generalize beyond d = 2)");
  }
}

}  // namespace

Graph generate_dk_random(const dk::DkDistributions& target, int d,
                         const GenerateOptions& options, util::Rng& rng) {
  return generate(target, d, options, /*chains=*/0, rng);
}

Graph generate_dk_random(const dk::DkDistributions& target, int d,
                         GenerateOptions options, const svc::RunContext& ctx) {
  options.targeting.apply(ctx);
  util::Rng rng = ctx.make_rng();
  return generate(target, d, options, ctx.chains, rng);
}

Graph dk_random_like(const Graph& original, int d,
                     const svc::RunContext& ctx) {
  return dk_random_like(original, d, RandomizeOptions{}, ctx);
}

Graph dk_random_like(const Graph& original, int d, RandomizeOptions options,
                     const svc::RunContext& ctx, RewiringStats* stats) {
  options.d = d;
  options.apply(ctx);
  util::Rng rng = ctx.make_rng();
  return randomize(original, options, rng, stats);
}

}  // namespace orbis::gen
