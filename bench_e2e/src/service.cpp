// service_mix: an in-process svc::Server with a cold cache directory per
// iteration.  One batch d = 3 generate job runs in checkpoint legs while
// closed-loop clients submit, wait for and resubmit a fixed list of
// interactive jobs: extracts of renamed or shuffled copies of one graph
// (cache hits after the first), extracts of fresh graphs (misses that
// write entries) and metrics jobs.
#include <filesystem>
#include <thread>

#include "core/series.hpp"
#include "e2e.hpp"
#include "io/chunked_edge_reader.hpp"
#include "io/dk_serialization.hpp"
#include "io/edge_list.hpp"
#include "metrics/summary.hpp"
#include "svc/server.hpp"
#include "util/rng.hpp"

namespace e2e {

namespace {

namespace svc = orbis::svc;

constexpr std::uint64_t kClientThread = 1'000'000;  // bench-private ids
constexpr std::uint64_t kMainThread = 2'000'000;
constexpr int kInteractiveD = 2;

enum class JobType { cache_copy, cache_fresh, metrics };

struct PlannedJob {
  JobType type = JobType::cache_copy;
  std::string input;
  std::string output;
};

struct Finished {
  PlannedJob plan;
  svc::JobInfo info;
  double latency_ms = 0.0;
};

/// The fixed job list of one client: per four jobs, two extracts of a
/// copy, one extract of a fresh graph and one metrics job.
std::vector<PlannedJob> plan_client(const ServiceSpec& spec,
                                    const ServiceInputs& in, std::size_t c,
                                    const std::string& out_dir) {
  std::vector<PlannedJob> jobs;
  const std::size_t fresh_per_client = (spec.jobs_per_client + 3) / 4;
  for (std::size_t i = 0; i < spec.jobs_per_client; ++i) {
    PlannedJob job;
    switch (i % 4) {
      case 1:
        job.type = JobType::cache_fresh;
        job.input = in.fresh[c * fresh_per_client + i / 4];
        break;
      case 3:
        job.type = JobType::metrics;
        job.input = in.metrics[(c + i / 4) % in.metrics.size()];
        break;
      default:
        job.type = JobType::cache_copy;
        job.input = in.copies[(c * 3 + i / 2) % in.copies.size()];
        break;
    }
    job.output = out_dir + "/c" + std::to_string(c) + "_j" + std::to_string(i);
    jobs.push_back(job);
  }
  return jobs;
}

svc::JobRequest request_for(const PlannedJob& job) {
  svc::JobRequest request;
  request.input_path = job.input;
  if (job.type == JobType::metrics) {
    request.kind = svc::JobKind::metrics;
  } else {
    request.kind = svc::JobKind::extract;
    request.output = job.output;
    request.d = kInteractiveD;
  }
  return request;
}

/// Per-job event timestamps from ServerOptions::on_event.
class EventLog {
 public:
  struct Times {
    Clock::time_point accepted{};
    Clock::time_point started{};
    Clock::time_point done{};
    std::uint64_t legs = 0;
  };

  void record(const svc::JobEvent& event) {
    const Clock::time_point now = Clock::now();
    const std::lock_guard<std::mutex> lock(mutex_);
    Times& t = jobs_[event.job];
    switch (event.kind) {
      case svc::JobEvent::Kind::accepted:
        t.accepted = now;
        break;
      case svc::JobEvent::Kind::started:
        t.started = now;
        break;
      case svc::JobEvent::Kind::leg:
        ++t.legs;
        break;
      case svc::JobEvent::Kind::done:
        t.done = now;
        break;
      case svc::JobEvent::Kind::progress:
        break;
    }
  }

  Times get(std::uint64_t job) const {
    const std::lock_guard<std::mutex> lock(mutex_);
    const auto it = jobs_.find(job);
    return it == jobs_.end() ? Times{} : it->second;
  }

 private:
  mutable std::mutex mutex_;
  std::map<std::uint64_t, Times> jobs_;
};

/// Direct (non-service) results the service's outputs must equal.
/// Computed once per input and kept for the whole run.
class References {
 public:
  explicit References(std::string dir) : dir_(std::move(dir)) {
    std::filesystem::create_directories(dir_);
  }

  /// Bytes of io::write_*k_file after io::extract_dk_streaming, in d order.
  const std::vector<std::string>& extract(const std::string& input, int d) {
    const std::string key = input + "#" + std::to_string(d);
    auto it = extracts_.find(key);
    if (it != extracts_.end()) return it->second;
    const auto result = orbis::io::extract_dk_streaming(input, d);
    const std::string prefix =
        dir_ + "/ref" + std::to_string(extracts_.size());
    orbis::io::write_1k_file(prefix + ".1k", result.distributions.degree);
    std::vector<std::string> bytes{read_file(prefix + ".1k")};
    if (d >= 2) {
      orbis::io::write_2k_file(prefix + ".2k", result.distributions.joint);
      bytes.push_back(read_file(prefix + ".2k"));
    }
    if (d >= 3) {
      orbis::io::write_3k_file(prefix + ".3k", result.distributions.three_k);
      bytes.push_back(read_file(prefix + ".3k"));
    }
    return extracts_.emplace(key, std::move(bytes)).first->second;
  }

  const orbis::metrics::ScalarMetrics& metrics(const std::string& input) {
    auto it = metrics_.find(input);
    if (it != metrics_.end()) return it->second;
    const orbis::Graph g = orbis::io::read_edge_list_file(input).graph;
    return metrics_.emplace(input, orbis::metrics::compute_scalar_metrics(g))
        .first->second;
  }

 private:
  std::string dir_;
  std::map<std::string, std::vector<std::string>> extracts_;
  std::map<std::string, orbis::metrics::ScalarMetrics> metrics_;
};

bool same_metrics(const orbis::metrics::ScalarMetrics& a,
                  const orbis::metrics::ScalarMetrics& b) {
  return a.average_degree == b.average_degree &&
         a.assortativity == b.assortativity &&
         a.mean_clustering == b.mean_clustering &&
         a.mean_distance == b.mean_distance &&
         a.distance_stddev == b.distance_stddev &&
         a.likelihood_s == b.likelihood_s && a.s2 == b.s2 &&
         a.lambda1 == b.lambda1 && a.lambda_max == b.lambda_max &&
         a.gcc_nodes == b.gcc_nodes && a.gcc_edges == b.gcc_edges;
}

void check_extract(Iteration& it, References& refs, const std::string& input,
                   int d, const svc::JobInfo& info) {
  const std::vector<std::string>& want = refs.extract(input, d);
  if (info.files.size() != want.size()) {
    it.fail("extract job " + std::to_string(info.id) + " published " +
            std::to_string(info.files.size()) + " files");
    return;
  }
  for (std::size_t i = 0; i < want.size(); ++i) {
    if (read_file(info.files[i]) != want[i]) {
      it.fail("extract artifact " + info.files[i] +
              " differs from a direct extraction");
    }
  }
}

double ms_between(Clock::time_point a, Clock::time_point b) {
  return seconds_between(a, b) * 1e3;
}

}  // namespace

Iteration run_service_iteration(const Workload& w, const RunOptions& run,
                                std::uint64_t /*index*/, SpanLog* log) {
  const ServiceSpec& spec = w.svc;
  const ServiceInputs in = service_input_paths(spec, run.dir);
  const std::filesystem::path iter_dir = std::filesystem::path(run.dir) / "iter";
  std::filesystem::remove_all(iter_dir);
  const std::string out_dir = (iter_dir / "out").string();
  std::filesystem::create_directories(out_dir);
  static References refs((std::filesystem::path(run.dir) / "ref").string());

  std::vector<std::vector<PlannedJob>> plans;
  for (std::size_t c = 0; c < spec.clients; ++c) {
    plans.push_back(plan_client(spec, in, c, out_dir));
  }

  EventLog events;
  svc::ServerOptions options;
  options.workers = spec.server_workers;
  options.cache_dir = (iter_dir / "cache").string();  // cold every iteration
  options.on_event = [&events](const svc::JobEvent& e) { events.record(e); };

  Iteration it;
  const bool traced = log != nullptr;
  std::vector<std::vector<Finished>> finished(spec.clients);
  svc::JobInfo batch_extract;
  svc::JobInfo batch;
  Clock::time_point clients_start;
  Clock::time_point clients_end;
  Clock::time_point batch_submit;
  Clock::time_point batch_done;
  std::map<std::string, std::uint64_t> counters0;
  std::map<std::string, std::uint64_t> counters1;
  double cpu0 = 0.0;
  Clock::time_point t0;
  Clock::time_point t1;
  const std::string batch_prefix = out_dir + "/batch";
  const std::string batch_output = out_dir + "/batch_generated.edges";
  try {
    svc::Server server(options);
    if (traced) log->start();
    reset_peak_rss();
    counters0 = read_counters();
    cpu0 = cpu_seconds();
    t0 = Clock::now();

    // The batch job's target: extract the HOT input up to d = 3.
    {
      const BenchSpan span(log, "client.batch_extract", 0, kMainThread);
      svc::JobRequest extract;
      extract.kind = svc::JobKind::extract;
      extract.input_path = in.batch;
      extract.output = batch_prefix;
      extract.d = 3;
      batch_extract = server.wait(server.submit(extract));
    }
    svc::JobRequest generate;
    generate.kind = svc::JobKind::generate;
    generate.input_path = batch_prefix;
    generate.output = batch_output;
    generate.d = 3;
    generate.ctx.seed = orbis::util::Rng(run.seed).stream(7).next();
    generate.ctx.chains = kChains;
    generate.ctx.workers = 1;
    generate.attempts_per_edge = spec.batch_attempts_per_edge;
    batch_submit = Clock::now();
    const Clock::time_point batch_span_start = batch_submit;
    const std::uint64_t batch_id = server.submit(generate);

    clients_start = Clock::now();
    std::vector<std::thread> clients;
    for (std::size_t c = 0; c < spec.clients; ++c) {
      clients.emplace_back([&, c] {
        for (const PlannedJob& job : plans[c]) {
          const Clock::time_point start = Clock::now();
          svc::JobInfo info;
          try {
            info = server.wait(server.submit(request_for(job)));
          } catch (const std::exception& error) {
            info.state = svc::JobState::failed;
            info.error = error.what();
          }
          const Clock::time_point end = Clock::now();
          if (log != nullptr) {
            log->add("client.job", info.id, kClientThread + c, start, end);
          }
          finished[c].push_back(Finished{job, info, ms_between(start, end)});
        }
      });
    }
    for (std::thread& client : clients) client.join();
    clients_end = Clock::now();
    batch = server.wait(batch_id);
    batch_done = Clock::now();
    if (log != nullptr) {
      log->add("client.batch", batch_id, kMainThread, batch_span_start, batch_done);
    }
    t1 = Clock::now();
    counters1 = read_counters();
    it.wall_s = seconds_between(t0, t1);
    it.cpu_s = cpu_seconds() - cpu0;
    it.peak_rss_mb = peak_rss_mb();
    if (traced) log->stop();
  } catch (const std::exception& error) {
    if (traced && log->active()) log->stop();
    it.attempted = 1;
    it.fail(std::string("service run threw: ") + error.what());
    return it;
  }

  // Correctness: every job done and equal to the direct library call.
  it.attempted = 2;  // the batch extract and the batch generate
  if (batch_extract.state != svc::JobState::done) {
    it.fail("batch extract ended " + std::string(svc::to_string(batch_extract.state)) +
            ": " + batch_extract.error);
  } else {
    check_extract(it, refs, in.batch, 3, batch_extract);
  }
  std::vector<double> queue_wait_ms;
  std::vector<double> run_ms;
  for (const auto& client : finished) {
    for (const Finished& f : client) {
      ++it.attempted;
      it.interactive_ms.push_back(f.latency_ms);
      const EventLog::Times times = events.get(f.info.id);
      queue_wait_ms.push_back(ms_between(times.accepted, times.started));
      run_ms.push_back(ms_between(times.started, times.done));
      if (f.info.state != svc::JobState::done) {
        it.fail("job " + std::to_string(f.info.id) + " ended " +
                svc::to_string(f.info.state) + ": " + f.info.error);
        continue;
      }
      try {
        if (f.plan.type == JobType::metrics) {
          if (!same_metrics(f.info.scalar, refs.metrics(f.plan.input))) {
            it.fail("metrics job " + std::to_string(f.info.id) +
                    " differs from a direct compute_scalar_metrics");
          }
        } else {
          check_extract(it, refs, f.plan.input, kInteractiveD, f.info);
        }
      } catch (const std::exception& error) {
        it.fail(std::string("job check threw: ") + error.what());
      }
    }
  }

  double final_distance = 0.0;
  if (batch.state != svc::JobState::done) {
    it.fail("batch generate ended " + std::string(svc::to_string(batch.state)) +
            ": " + batch.error);
  } else {
    try {
      const orbis::io::EdgeListReadResult target_graph =
          orbis::io::read_edge_list_file(in.batch);
      const orbis::dk::DkDistributions target =
          orbis::dk::extract(target_graph.graph, 3);
      const orbis::io::EdgeListReadResult back =
          orbis::io::read_edge_list_file(batch_output);
      if (back.skipped_self_loops != 0 || back.skipped_duplicates != 0) {
        it.fail("batch output is not simple");
      }
      if (back.graph.num_nodes() != target.num_nodes ||
          back.graph.num_edges() != target.num_edges) {
        it.fail("batch output size differs from the target");
      }
      const orbis::dk::DkDistributions got = orbis::dk::extract(back.graph, 3);
      if (orbis::dk::distance_1k(got.degree, target.degree) != 0.0 ||
          orbis::dk::distance_2k(got.joint, target.joint) != 0.0) {
        it.fail("batch output D1 or D2 != 0");
      }
      final_distance = orbis::dk::distance_3k(got.three_k, target.three_k);
      it.output_hash = file_hash(batch_output);
    } catch (const std::exception& error) {
      it.fail(std::string("batch check threw: ") + error.what());
    }
  }
  std::filesystem::remove_all(iter_dir);

  it.batch_wall_s = seconds_between(batch_submit, batch_done);
  it.interactive_jobs_per_s =
      static_cast<double>(it.interactive_ms.size()) /
      seconds_between(clients_start, clients_end);

  const auto d = [&](const char* name) {
    return static_cast<double>(delta(counters0, counters1, name));
  };
  const double hits = d("svc.cache.hits");
  const double misses = d("svc.cache.misses");
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
      {"svc.cache_hits", hits},
      {"svc.cache_misses", misses},
      {"svc.generate_legs", static_cast<double>(events.get(batch.id).legs)},
      {"svc.interactive_jobs", static_cast<double>(it.interactive_ms.size())},
  };
  if (!traced) return it;

  const auto totals = log->totals();
  it.self_times = totals;
  std::vector<double> leg_s;
  for (const SpanRecord& s : log->spans()) {
    if (s.name == "svc.job.generate_leg") {
      leg_s.push_back(static_cast<double>(s.end_us - s.start_us) * 1e-6);
    }
  }
  const auto total = [&](const char* name) {
    const auto found = totals.find(name);
    return found == totals.end() ? 0.0 : found->second.total_s;
  };
  const double extract_s = total("svc.cache.extract");
  const double leg_total = total("checkpoint.leg");
  it.layers = it.counts;
  it.layers.insert({
      {"io.extract_s", extract_s},
      {"io.extract_mb_per_s",
       extract_s > 0.0 ? d("io.bytes_read") / 1048576.0 / extract_s : 0.0},
      {"gen.attempts_per_s",
       leg_total > 0.0 ? d("rewire.attempts") / leg_total : 0.0},
      {"gen.accept_ratio", d("rewire.attempts") > 0.0
                               ? d("rewire.accepted") / d("rewire.attempts")
                               : 0.0},
      {"svc.queue_wait_ms_p50", percentile(queue_wait_ms, 0.50)},
      {"svc.queue_wait_ms_p95", percentile(queue_wait_ms, 0.95)},
      {"svc.run_ms_p50", percentile(run_ms, 0.50)},
      {"svc.cache_hit_ratio", hits + misses > 0.0 ? hits / (hits + misses) : 0.0},
      {"svc.leg_s_p50", median(leg_s)},
      {"trace.coverage", log->top_level_covered_s() / it.wall_s},
  });
  return it;
}

}  // namespace e2e
