// The user's pipeline through the library's public entry points:
// io::extract_dk_streaming -> gen::generate_dk_random ->
// io::write_edge_list_file -> metrics::compute_scalar_metrics.
#include <filesystem>

#include "core/series.hpp"
#include "e2e.hpp"
#include "gen/generate.hpp"
#include "io/chunked_edge_reader.hpp"
#include "io/edge_list.hpp"
#include "metrics/summary.hpp"
#include "svc/run_context.hpp"
#include "util/rng.hpp"

namespace e2e {

namespace {

/// Stamps the time of every SummaryOptions::progress sample; the library
/// emits one per completed metric phase.
class PhaseClock : public orbis::obs::ProgressSink {
 public:
  void report(std::uint32_t, const orbis::obs::ProgressSample&) override {
    const std::lock_guard<std::mutex> lock(mutex_);
    marks_.push_back(Clock::now());
  }
  std::vector<Clock::time_point> marks() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return marks_;
  }

 private:
  mutable std::mutex mutex_;
  std::vector<Clock::time_point> marks_;
};

/// Metric phases in the order compute_scalar_metrics runs them.
std::vector<const char*> phase_names(const PipelineSpec& spec) {
  std::vector<const char*> names{"metrics.scalar"};
  if (spec.with_distance) names.push_back("metrics.distance");
  names.push_back("metrics.s2");
  if (spec.with_spectrum) names.push_back("metrics.spectrum");
  return names;
}

double span_total(const std::map<std::string, SpanLog::NameTotals>& t,
                  const std::string& name, bool self) {
  const auto it = t.find(name);
  if (it == t.end()) return 0.0;
  return self ? it->second.self_s : it->second.total_s;
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

}  // namespace

Iteration run_pipeline_iteration(const Workload& w, const RunOptions& run,
                                 std::uint64_t index, SpanLog* log) {
  const PipelineSpec& spec = w.pipeline;
  const std::string input = pipeline_input_path(run.dir);
  const std::string out_dir = (std::filesystem::path(run.dir) / "out").string();
  std::filesystem::create_directories(out_dir);
  const std::string output = out_dir + "/generated.edges";
  const std::uint64_t id = index + 1;  // pipeline id on every span

  Iteration it;
  it.attempted = 1;

  orbis::svc::RunContext ctx;
  ctx.seed = orbis::util::Rng(run.seed).stream(7).next();
  ctx.chains = kChains;
  ctx.workers = 1;
  orbis::gen::GenerateOptions options;
  options.method = orbis::gen::Method::targeting;
  options.targeting.attempts_per_edge = spec.attempts_per_edge;
  options.targeting.stop_distance = spec.stop_distance;
  orbis::metrics::SummaryOptions summary;
  summary.with_distance = spec.with_distance;
  summary.with_spectrum = spec.with_spectrum;
  PhaseClock phases;
  orbis::svc::RunContext metrics_ctx = ctx;
  if (log != nullptr) metrics_ctx.progress = &phases;

  const bool traced = log != nullptr;
  if (traced) log->start();
  const std::uint64_t main = traced ? log->main_thread() : 0;
  orbis::io::StreamingExtractResult extracted;
  orbis::metrics::ScalarMetrics scalar;
  Clock::time_point gen_start;
  Clock::time_point gen_end;
  Clock::time_point metrics_start;
  double gen_cpu = 0.0;
  orbis::Graph generated;  // freed after the timed interval

  reset_peak_rss();
  const auto counters0 = read_counters();
  const double cpu0 = cpu_seconds();
  const Clock::time_point t0 = Clock::now();
  try {
    {
      const BenchSpan span(log, "io.extract", id, main);
      extracted = orbis::io::extract_dk_streaming(input, spec.d);
    }
    {
      const BenchSpan span(log, "gen.generate", id, main);
      const double cpu = cpu_seconds();
      gen_start = Clock::now();
      generated = orbis::gen::generate_dk_random(extracted.distributions,
                                                 spec.d, options, ctx);
      gen_end = Clock::now();
      gen_cpu = cpu_seconds() - cpu;
    }
    {
      const BenchSpan span(log, "io.write", id, main);
      orbis::io::write_edge_list_file(output, generated);
    }
    {
      const BenchSpan span(log, "metrics.compute", id, main);
      metrics_start = Clock::now();
      scalar = orbis::metrics::compute_scalar_metrics(generated, summary,
                                                      metrics_ctx);
    }
  } catch (const std::exception& error) {
    if (traced) log->stop();
    it.fail(std::string("pipeline threw: ") + error.what());
    return it;
  }
  const Clock::time_point t1 = Clock::now();
  it.wall_s = seconds_between(t0, t1);
  it.cpu_s = cpu_seconds() - cpu0;
  it.peak_rss_mb = peak_rss_mb();
  const auto counters1 = read_counters();
  if (traced) {
    // Metric phases from the progress timestamps: phase i ends at mark i.
    const auto names = phase_names(spec);
    const auto marks = phases.marks();
    Clock::time_point begin = metrics_start;
    for (std::size_t i = 0; i < marks.size() && i < names.size(); ++i) {
      log->add(names[i], id, main, begin, marks[i]);
      begin = marks[i];
    }
    log->stop();
  }

  // Correctness: re-read the written output and re-extract it.
  const orbis::dk::DkDistributions& target = extracted.distributions;
  double final_distance = 0.0;
  try {
    const orbis::io::EdgeListReadResult back =
        orbis::io::read_edge_list_file(output);
    if (back.skipped_self_loops != 0 || back.skipped_duplicates != 0) {
      it.fail("output is not simple");
    }
    if (back.graph.num_nodes() != target.num_nodes ||
        back.graph.num_edges() != target.num_edges) {
      it.fail("output size differs from the target");
    }
    const orbis::dk::DkDistributions got = orbis::dk::extract(back.graph, spec.d);
    if (orbis::dk::distance_1k(got.degree, target.degree) != 0.0) {
      it.fail("output D1 != 0");
    }
    final_distance = spec.d >= 3
                         ? orbis::dk::distance_3k(got.three_k, target.three_k)
                         : orbis::dk::distance_2k(got.joint, target.joint);
    it.output_hash = file_hash(output);
  } catch (const std::exception& error) {
    it.fail(std::string("output check threw: ") + error.what());
  }

  const auto d = [&](const char* name) {
    return static_cast<double>(delta(counters0, counters1, name));
  };
  const double traversals =
      spec.with_distance ? static_cast<double>(scalar.gcc_nodes) * 2.0 *
                               static_cast<double>(scalar.gcc_edges)
                         : 0.0;
  it.counts = {
      {"gen.final_distance", final_distance},
      {"gen.rewire_attempts", d("rewire.attempts")},
      {"gen.rewire_accepted", d("rewire.accepted")},
      {"gen.rejected_structural", d("rewire.rejected_structural")},
      {"gen.rejected_constraint", d("rewire.rejected_constraint")},
      {"gen.rejected_objective", d("rewire.rejected_objective")},
      {"exec.tasks_run", d("exec.tasks_run")},
      {"io.bytes_read", d("io.bytes_read")},
      {"io.bytes_written", d("io.bytes_written")},
      {"metrics.distance_edge_traversals", traversals},
  };
  if (!traced) return it;

  const auto totals = log->totals();
  it.self_times = totals;
  const double extract_s = span_total(totals, "io.extract", false);
  const double target_2k = span_total(totals, "generate.target_2k", true);
  const double target_3k = span_total(totals, "generate.target_3k", true);
  const double distance_s = span_total(totals, "metrics.distance", false);
  it.layers = it.counts;
  it.layers.insert({
      {"io.extract_s", extract_s},
      {"io.extract_mb_per_s", ratio(d("io.bytes_read") / 1048576.0, extract_s)},
      {"core.extract_peak_accumulator_mb",
       static_cast<double>(extracted.peak_accumulator_bytes) / 1048576.0},
      {"io.write_s", span_total(totals, "io.write", false)},
      {"gen.seed_1k_s", span_total(totals, "generate.seed_1k", true)},
      {"gen.target_2k_s", target_2k},
      {"gen.target_3k_s", target_3k},
      {"gen.attempts_per_s", ratio(d("rewire.attempts"), target_2k + target_3k)},
      {"gen.accept_ratio", ratio(d("rewire.accepted"), d("rewire.attempts"))},
      {"gen.cpu_per_wall", ratio(gen_cpu, seconds_between(gen_start, gen_end))},
      {"metrics.scalar_s", span_total(totals, "metrics.scalar", false)},
      {"metrics.distance_s", distance_s},
      {"metrics.distance_edges_per_s", ratio(traversals, distance_s)},
      {"metrics.s2_s", span_total(totals, "metrics.s2", false)},
      {"metrics.spectrum_s", span_total(totals, "metrics.spectrum", false)},
      {"trace.coverage", ratio(log->top_level_covered_s(), it.wall_s)},
  });
  return it;
}

}  // namespace e2e
