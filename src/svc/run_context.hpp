// The unified entry-point contract (docs/service.md, "RunContext").
//
// Before this header existed, every long-running entry point grew its
// own copies of the same cross-cutting knobs: GenerateOptions carried a
// chain count, TargetingOptions and RandomizeOptions each carried
// workers/stop/progress, the CLI threaded a seed by hand, and anything
// new (the topology service, batch drivers) had to re-plumb all of
// them.  RunContext is the one struct that carries a run's execution
// context:
//
//   seed              — the run's RNG seed; make_rng() is the ONLY
//                       place a context turns into a generator, so two
//                       calls with equal contexts draw identical streams
//   chains            — gen::Pipeline's chain count (0 = autotune, one
//                       per core); the only place the count lives
//   workers           — speculative evaluation workers (1 = serial)
//   memory_budget_mb  — objective-backend budget (docs/scaling.md)
//   stop              — cooperative cancellation (util/stop_token.hpp);
//                       polled at the same batch boundaries as always
//   progress          — live progress sink (obs/progress.hpp)
//   metrics           — metrics registry; null = obs::Registry::global()
//
// Entry points accept a RunContext alongside their algorithm-specific
// options (gen::GenerateOptions keeps method/temperature/budget — those
// describe WHAT to compute; the context describes HOW this particular
// run executes).  TargetingOptions and RandomizeOptions keep their
// historical fields as back-compat shims: `options.apply(ctx)` copies the
// context over them, and the context-taking overloads do exactly that,
// so a context-driven call and a hand-filled legacy call are
// bit-identical.
//
// Deprecation policy: the pre-RunContext entry points and direct writes
// to the duplicated fields keep compiling this release.  Building with
// -DORBIS_WARN_DEPRECATED surfaces [[deprecated]] at the old signatures
// so downstreams can find every call site before the shims go away.
#pragma once

#include <cstddef>
#include <cstdint>

#include "obs/metrics.hpp"
#include "obs/progress.hpp"
#include "util/rng.hpp"
#include "util/stop_token.hpp"

#if defined(ORBIS_WARN_DEPRECATED)
#define ORBIS_DEPRECATED(msg) [[deprecated(msg)]]
#else
#define ORBIS_DEPRECATED(msg)
#endif

namespace orbis::svc {

struct RunContext {
  /// RNG seed; the context form of the CLI's --seed.  Entry points that
  /// take a RunContext derive their generator via make_rng(), never
  /// from an ambient source, so results are a pure function of the
  /// context plus the algorithm options.
  std::uint64_t seed = 1;

  /// Chains of every targeting stage (gen::Pipeline); 0 = autotune (one
  /// chain per available core, gen::default_chain_count).
  std::size_t chains = 0;

  /// Speculative evaluation workers for the 3K paths; 1 = serial,
  /// 0 = all cores (docs/parallel.md).
  std::size_t workers = 1;

  /// 2K objective-backend budget in MB (docs/scaling.md).
  std::size_t memory_budget_mb = 512;

  /// Cooperative cancellation; default token never stops.
  util::StopToken stop{};

  /// Live progress observer; null = silent.  Sinks only read samples,
  /// so chains are bit-identical with or without one.
  obs::ProgressSink* progress = nullptr;

  /// Metrics registry for run-scoped instruments; null = the process
  /// registry.  Library counters publish to the global registry either
  /// way (they are process totals); service front ends use this to give
  /// each job its own scrape.
  obs::Registry* metrics = nullptr;

  /// The run's generator.  Deliberately a value: every caller that
  /// needs continuation state (multi-stage pipelines) holds the Rng it
  /// made and passes it down, exactly as the legacy API did.
  util::Rng make_rng() const noexcept { return util::Rng(seed); }

  /// Resolved registry (never null).
  obs::Registry& registry() const noexcept {
    return metrics != nullptr ? *metrics : obs::Registry::global();
  }
};

}  // namespace orbis::svc
