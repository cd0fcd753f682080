// The unified entry-point contract (docs/service.md, "RunContext").
//
// Before this header existed, every long-running entry point grew its
// own copies of the same cross-cutting knobs: GenerateOptions carried a
// chain count, TargetingOptions and RandomizeOptions each carried
// stop/progress, the CLI threaded a seed by hand, and anything new (the
// topology service, batch drivers) had to re-plumb all of them.
// RunContext is the one struct that carries a run's execution context:
//
//   seed              — the run's RNG seed; make_rng() is the ONLY
//                       place a context turns into a generator, so two
//                       calls with equal contexts draw identical streams
//   chains            — gen::Pipeline's chain count (0 = autotune, one
//                       per core); the only place the count lives
//   workers           — must be 1 (see the field)
//   memory_budget_mb  — objective-backend budget (docs/scaling.md)
//   stop              — cooperative cancellation (util/stop_token.hpp);
//                       polled at the same batch boundaries as always
//   progress          — live progress sink (obs/progress.hpp)
//
// Entry points accept a RunContext alongside their algorithm-specific
// options (gen::GenerateOptions keeps method/temperature/budget — those
// describe WHAT to compute; the context describes HOW this particular
// run executes).  TargetingOptions, RandomizeOptions, SummaryOptions and
// the streaming extractor's options still carry copies of
// stop/progress (and the memory budget): `options.apply(ctx)` copies the
// context over them, and the context-taking overloads do exactly that,
// so a context-driven call and a hand-filled call are bit-identical.
#pragma once

#include <cstddef>
#include <cstdint>
#include <stdexcept>

#include "obs/progress.hpp"
#include "util/rng.hpp"
#include "util/stop_token.hpp"

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

  /// Must be 1.  It selected the speculative 3K engine, which is gone;
  /// every 3K chain is serial.  The field stays only because the
  /// end-to-end benchmark (bench_e2e/src/pipeline.cpp, service.cpp)
  /// assigns it; it goes with the next change to that benchmark.  Every
  /// context entry point rejects another value (expect_serial()).
  std::size_t workers = 1;

  /// 2K objective-backend budget in MB (docs/scaling.md).
  std::size_t memory_budget_mb = 512;

  /// Cooperative cancellation; default token never stops.
  util::StopToken stop{};

  /// Live progress observer; null = silent.  Sinks only read samples,
  /// so chains are bit-identical with or without one.
  obs::ProgressSink* progress = nullptr;

  /// The run's generator.  Deliberately a value: every caller that
  /// needs continuation state (multi-stage pipelines) holds the Rng it
  /// made and passes it down, exactly as the legacy API did.
  util::Rng make_rng() const noexcept { return util::Rng(seed); }

  /// Throws std::invalid_argument unless workers == 1, so a caller that
  /// still asks for speculative workers learns they are gone.
  void expect_serial() const {
    if (workers != 1) {
      throw std::invalid_argument(
          "RunContext::workers must be 1: the speculative 3K engine was "
          "removed and every chain is serial");
    }
  }
};

}  // namespace orbis::svc
