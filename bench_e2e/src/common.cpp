#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "e2e.hpp"
#include "graph/graph.hpp"
#include "io/edge_list.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "topo/hot.hpp"
#include "util/rng.hpp"

namespace e2e {

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// ---------------------------------------------------------------------------
// Workloads.  Sizes are chosen so that one iteration takes a few seconds
// on a 4-core host and a run repeats it several times (README.md).
// ---------------------------------------------------------------------------

namespace {

/// Seed of every input graph's structure; the run's --seed only relabels.
constexpr std::uint64_t kStructureSeed = 20060911;

std::vector<Workload> make_workloads() {
  std::vector<Workload> all;

  Workload hot3k;
  hot3k.name = "hot3k";
  hot3k.pipeline = PipelineSpec{.input = InputKind::hot,
                                .hot_scale = 4.0,
                                .d = 3};
  all.push_back(hot3k);

  Workload pa_metrics;
  pa_metrics.name = "pa_metrics";
  pa_metrics.pipeline = PipelineSpec{.input = InputKind::pa,
                                     .nodes = 10000,
                                     .d = 2,
                                     .with_spectrum = false};
  all.push_back(pa_metrics);

  Workload pa_large;
  pa_large.name = "pa_large";
  pa_large.pipeline = PipelineSpec{.input = InputKind::pa,
                                   .nodes = 100000,
                                   .d = 2,
                                   .attempts_per_edge = 10,
                                   .stop_distance = -1.0,
                                   .with_distance = false,
                                   .with_spectrum = false};
  all.push_back(pa_large);

  Workload service;
  service.name = "service_mix";
  service.service = true;
  all.push_back(service);
  return all;
}

/// Barabási–Albert preferential attachment, two edges per new node,
/// grown from a triangle.
orbis::Graph preferential_attachment(std::uint32_t n, orbis::util::Rng& rng) {
  constexpr std::uint32_t kLinks = 2;
  orbis::Graph g(n);
  g.reserve_edges(static_cast<std::size_t>(n) * kLinks);
  std::vector<orbis::NodeId> ends;  // one entry per edge endpoint
  ends.reserve(static_cast<std::size_t>(n) * kLinks * 2);
  for (orbis::NodeId v = 1; v <= kLinks; ++v) {
    for (orbis::NodeId u = 0; u < v; ++u) {
      g.add_edge(u, v);
      ends.push_back(u);
      ends.push_back(v);
    }
  }
  for (orbis::NodeId v = kLinks + 1; v < n; ++v) {
    std::uint32_t added = 0;
    while (added < kLinks) {
      const orbis::NodeId u = ends[rng.uniform(ends.size())];
      if (g.add_edge(u, v)) {
        ends.push_back(u);
        ends.push_back(v);
        ++added;
      }
    }
  }
  return g;
}

orbis::Graph hot(double scale, orbis::util::Rng& rng) {
  orbis::topo::HotOptions options;  // paper scale at 1.0: 939 / 988
  const double root = std::sqrt(scale);
  options.num_core = static_cast<orbis::NodeId>(std::lround(12 * root));
  options.core_chords = static_cast<orbis::NodeId>(std::lround(3 * root));
  options.num_nodes = static_cast<orbis::NodeId>(std::lround(939 * scale));
  options.num_edges = static_cast<std::size_t>(std::lround(988 * scale));
  return orbis::topo::hot_topology(options, rng);
}

/// The same edges in random line order, each with random endpoint order.
orbis::Graph shuffle_lines(const orbis::Graph& g, orbis::util::Rng& rng) {
  std::vector<orbis::Edge> edges;
  edges.reserve(g.num_edges());
  for (const orbis::Edge& e : g.edges()) {
    edges.push_back(rng.bernoulli(0.5) ? orbis::Edge{e.v, e.u} : e);
  }
  rng.shuffle(edges);
  return orbis::Graph::from_edges_unchecked(g.num_nodes(), edges);
}

/// `g` under a random node relabelling, lines shuffled: an isomorphic
/// copy whose file bytes differ.
orbis::Graph relabel(const orbis::Graph& g, orbis::util::Rng& rng) {
  std::vector<orbis::NodeId> label(g.num_nodes());
  for (orbis::NodeId v = 0; v < g.num_nodes(); ++v) label[v] = v;
  rng.shuffle(label);
  std::vector<orbis::Edge> edges;
  edges.reserve(g.num_edges());
  for (const orbis::Edge& e : g.edges()) edges.push_back({label[e.u], label[e.v]});
  return shuffle_lines(orbis::Graph::from_edges_unchecked(g.num_nodes(), edges), rng);
}

/// Inputs are scratch files: plain writes, without the library's
/// fsync-and-rename protocol, whose disk latency would dominate set-up.
void write_graph(const std::string& path, const orbis::Graph& g) {
  std::ofstream out(path, std::ios::trunc);
  orbis::io::write_edge_list(out, g);
  if (!out.flush()) throw std::runtime_error("cannot write " + path);
}

std::string join(const std::string& dir, const std::string& file) {
  return (std::filesystem::path(dir) / file).string();
}

}  // namespace

const Workload& find_workload(const std::string& name) {
  static const std::vector<Workload> all = make_workloads();
  for (const Workload& w : all) {
    if (w.name == name) return w;
  }
  throw std::invalid_argument("unknown workload '" + name + "'");
}

// ---------------------------------------------------------------------------
// Inputs.
// ---------------------------------------------------------------------------

std::string pipeline_input_path(const std::string& dir) {
  return join(dir, "input.edges");
}

ServiceInputs service_input_paths(const ServiceSpec& spec,
                                  const std::string& dir) {
  ServiceInputs in;
  in.batch = join(dir, "batch.edges");
  for (std::size_t i = 0; i < spec.renamed_copies; ++i) {
    in.copies.push_back(join(dir, "copy_r" + std::to_string(i) + ".edges"));
  }
  for (std::size_t i = 0; i < spec.shuffled_copies; ++i) {
    in.copies.push_back(join(dir, "copy_s" + std::to_string(i) + ".edges"));
  }
  // One fresh graph per cache-miss job (every fourth job of a client).
  const std::size_t fresh = spec.clients * ((spec.jobs_per_client + 3) / 4);
  for (std::size_t i = 0; i < fresh; ++i) {
    in.fresh.push_back(join(dir, "fresh" + std::to_string(i) + ".edges"));
  }
  for (std::size_t i = 0; i < spec.metrics_inputs; ++i) {
    in.metrics.push_back(join(dir, "metrics" + std::to_string(i) + ".edges"));
  }
  return in;
}

void write_inputs(const Workload& w, std::uint64_t seed,
                  const std::string& dir) {
  std::filesystem::create_directories(dir);
  // Structure from a fixed seed, labels and line order from the run's
  // seed (README.md, "Seeds").
  const orbis::util::Rng structure(kStructureSeed);
  const orbis::util::Rng labels(seed);
  const auto write = [&](const std::string& path, const orbis::Graph& g,
                         std::uint64_t stream) {
    orbis::util::Rng rng = labels.stream(stream);
    write_graph(path, relabel(g, rng));
  };
  if (!w.service) {
    orbis::util::Rng rng = structure.stream(1);
    write(pipeline_input_path(dir),
          w.pipeline.input == InputKind::hot
              ? hot(w.pipeline.hot_scale, rng)
              : preferential_attachment(w.pipeline.nodes, rng),
          1);
    return;
  }

  const ServiceSpec& spec = w.svc;
  const ServiceInputs in = service_input_paths(spec, dir);
  orbis::util::Rng batch_rng = structure.stream(2);
  write(in.batch, hot(spec.batch_hot_scale, batch_rng), 2);

  // Every copy holds the same labelled edges, so all of them share one
  // content key: renamed copies are byte-identical, shuffled copies list
  // the edges in another order.
  orbis::util::Rng copy_rng = structure.stream(3);
  orbis::util::Rng copy_labels = labels.stream(3);
  const orbis::Graph base =
      relabel(preferential_attachment(spec.copy_nodes, copy_rng), copy_labels);
  for (std::size_t i = 0; i < spec.renamed_copies; ++i) {
    write_graph(in.copies[i], base);
  }
  for (std::size_t i = spec.renamed_copies; i < in.copies.size(); ++i) {
    write_graph(in.copies[i], shuffle_lines(base, copy_labels));
  }
  for (std::size_t i = 0; i < in.fresh.size(); ++i) {
    orbis::util::Rng rng = structure.stream(1000 + i);
    write(in.fresh[i], preferential_attachment(spec.fresh_nodes, rng), 1000 + i);
  }
  for (std::size_t i = 0; i < in.metrics.size(); ++i) {
    orbis::util::Rng rng = structure.stream(100 + i);
    write(in.metrics[i], preferential_attachment(spec.metrics_nodes, rng), 100 + i);
  }
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::ostringstream bytes;
  bytes << in.rdbuf();
  return bytes.str();
}

std::string file_hash(const std::string& path) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const char c : read_file(path)) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ull;
  }
  char hex[17];
  std::snprintf(hex, sizeof hex, "%016llx", static_cast<unsigned long long>(h));
  return hex;
}

// ---------------------------------------------------------------------------
// Spans.
// ---------------------------------------------------------------------------

namespace {
constexpr const char* kMainMarker = "e2e.main_thread";
}

void SpanLog::start() {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    spans_.clear();
  }
  auto& tracer = orbis::obs::Tracer::global();
  tracer.enable();
  tracer.instant(kMainMarker);
  for (const orbis::obs::TraceEvent& event : tracer.snapshot()) {
    if (event.name == kMainMarker) main_thread_ = event.tid;
  }
  active_ = true;
}

void SpanLog::stop() {
  auto& tracer = orbis::obs::Tracer::global();
  tracer.disable();
  active_ = false;
  const std::lock_guard<std::mutex> lock(mutex_);
  for (const orbis::obs::TraceEvent& event : tracer.snapshot()) {
    if (event.duration_us < 0) continue;  // instants
    spans_.push_back(SpanRecord{.name = event.name,
                                .thread = event.tid,
                                .start_us = event.start_us,
                                .end_us = event.start_us + event.duration_us});
  }
}

void SpanLog::add(const std::string& name, std::uint64_t id,
                  std::uint64_t thread, Clock::time_point start,
                  Clock::time_point end) {
  if (!active_) return;
  const std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(
      SpanRecord{.name = name,
                 .id = id,
                 .thread = thread,
                 .start_us = orbis::obs::Tracer::to_epoch_us(start),
                 .end_us = orbis::obs::Tracer::to_epoch_us(end),
                 .bench = true});
}

std::map<std::string, SpanLog::NameTotals> SpanLog::totals() const {
  std::vector<SpanRecord> spans;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    spans = spans_;
  }
  // Parents first: earlier start, then longer, then the bench span that
  // wraps a library span with the same clock readings.
  std::sort(spans.begin(), spans.end(),
            [](const SpanRecord& a, const SpanRecord& b) {
              if (a.thread != b.thread) return a.thread < b.thread;
              if (a.start_us != b.start_us) return a.start_us < b.start_us;
              if (a.end_us != b.end_us) return a.end_us > b.end_us;
              return a.bench && !b.bench;
            });
  std::vector<double> self(spans.size());
  std::vector<std::size_t> stack;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& s = spans[i];
    const double dur = static_cast<double>(s.end_us - s.start_us) * 1e-6;
    self[i] = dur;
    while (!stack.empty()) {
      const SpanRecord& top = spans[stack.back()];
      if (top.thread == s.thread && top.start_us <= s.start_us &&
          s.end_us <= top.end_us) {
        break;
      }
      stack.pop_back();
    }
    if (!stack.empty()) self[stack.back()] -= dur;
    stack.push_back(i);
  }
  std::map<std::string, NameTotals> out;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    NameTotals& t = out[spans[i].name];
    t.layer = layer_of(spans[i].name);
    t.total_s += static_cast<double>(spans[i].end_us - spans[i].start_us) * 1e-6;
    t.self_s += self[i];
    ++t.count;
  }
  return out;
}

double SpanLog::top_level_covered_s() const {
  std::vector<std::pair<std::int64_t, std::int64_t>> intervals;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    for (const SpanRecord& s : spans_) {
      if (s.bench) intervals.emplace_back(s.start_us, s.end_us);
    }
  }
  std::sort(intervals.begin(), intervals.end());
  std::int64_t covered = 0;
  std::int64_t cur_start = 0;
  std::int64_t cur_end = -1;
  for (const auto& [start, end] : intervals) {
    if (start > cur_end) {
      if (cur_end >= cur_start) covered += cur_end - cur_start;
      cur_start = start;
      cur_end = end;
    } else {
      cur_end = std::max(cur_end, end);
    }
  }
  if (cur_end >= cur_start) covered += cur_end - cur_start;
  return static_cast<double>(covered) * 1e-6;
}

BenchSpan::BenchSpan(SpanLog* log, const char* name, std::uint64_t id,
                     std::uint64_t thread)
    : log_(log != nullptr && log->active() ? log : nullptr),
      name_(name),
      id_(id),
      thread_(thread) {
  if (log_ != nullptr) start_ = Clock::now();
}

BenchSpan::~BenchSpan() {
  if (log_ != nullptr) log_->add(name_, id_, thread_, start_, Clock::now());
}

std::string layer_of(const std::string& name) {
  const auto starts = [&](const char* prefix) { return name.rfind(prefix, 0) == 0; };
  if (starts("extract.")) return "core";  // parse + accumulate passes
  if (starts("io.")) return "io";
  if (starts("gen.") || starts("generate.") || starts("checkpoint.") ||
      starts("3k.") || starts("svc.generate.")) {
    return "gen";
  }
  if (starts("metrics.")) return "metrics";
  if (starts("svc.")) return "svc";
  if (starts("client.")) return "client";
  return "other";
}

// ---------------------------------------------------------------------------
// Process measurements.
// ---------------------------------------------------------------------------

double cpu_seconds() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  const auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return secs(usage.ru_utime) + secs(usage.ru_stime);
}

void reset_peak_rss() {
  malloc_trim(0);  // hand freed heap back, so the reset starts from live data
  std::ofstream clear("/proc/self/clear_refs");
  clear << "5";
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;
    }
  }
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

std::map<std::string, std::uint64_t> read_counters() {
  static const char* const kNames[] = {
      "rewire.attempts",           "rewire.accepted",
      "rewire.rejected_structural", "rewire.rejected_constraint",
      "rewire.rejected_objective", "exec.tasks_run",
      "io.bytes_read",             "io.bytes_written",
      "svc.cache.hits",            "svc.cache.misses"};
  auto& registry = orbis::obs::Registry::global();
  std::map<std::string, std::uint64_t> values;
  for (const char* name : kNames) values[name] = registry.counter(name).value();
  return values;
}

std::uint64_t delta(const std::map<std::string, std::uint64_t>& before,
                    const std::map<std::string, std::uint64_t>& after,
                    const std::string& name) {
  return after.at(name) - before.at(name);
}

// ---------------------------------------------------------------------------
// Statistics.
// ---------------------------------------------------------------------------

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const std::size_t index =
      rank < 1.0 ? 0 : std::min(values.size() - 1, static_cast<std::size_t>(rank) - 1);
  return values[index];
}

}  // namespace e2e
