// End-to-end benchmark of the extract -> generate -> write -> metrics
// workflow (README.md in this directory).  Shared pieces: workload
// parameters, the per-iteration record, span recording with self-time
// analysis, and small statistics helpers.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace e2e {

using Clock = std::chrono::steady_clock;

/// Chains pinned for every targeting stage.  Never autotuned: the
/// library's default follows the host's core count, and D_d with it.
constexpr std::size_t kChains = 2;

double seconds_between(Clock::time_point a, Clock::time_point b);

// ---------------------------------------------------------------------------
// Workloads.
// ---------------------------------------------------------------------------

enum class InputKind { hot, pa };

struct PipelineSpec {
  InputKind input = InputKind::pa;
  std::uint32_t nodes = 0;     // PA: node count (2 edges per new node)
  double hot_scale = 1.0;      // HOT: multiple of the paper's 939/988
  int d = 2;                   // dK level generated
  std::size_t attempts_per_edge = 400;
  /// Targeting stops once D_d <= this (library default 0); below 0 the
  /// stages always spend their whole attempt budget.
  double stop_distance = 0.0;
  bool with_distance = true;
  bool with_spectrum = true;
};

struct ServiceSpec {
  std::size_t clients = 2;          // closed-loop client threads
  /// svc::ServerOptions::workers.  One worker: batch legs and interactive
  /// jobs interleave through the FairQueue in a deterministic order, and
  /// fewer runnable threads than vCPUs keep the mix steady on a shared
  /// host (two workers doubled the run-to-run spread).
  std::size_t server_workers = 1;
  std::size_t jobs_per_client = 120;
  double batch_hot_scale = 1.0;     // batch generate input (HOT)
  std::size_t batch_attempts_per_edge = 400;
  std::uint32_t copy_nodes = 1500;  // base graph of the cache-hit copies
  std::uint32_t fresh_nodes = 1000; // each cache-miss graph
  std::uint32_t metrics_nodes = 400;
  std::size_t renamed_copies = 4;
  std::size_t shuffled_copies = 4;
  std::size_t metrics_inputs = 2;
};

struct Workload {
  std::string name;
  bool service = false;
  PipelineSpec pipeline;
  ServiceSpec svc;
};

/// Looks a workload up by name; throws std::invalid_argument if unknown.
const Workload& find_workload(const std::string& name);

// ---------------------------------------------------------------------------
// Inputs (built from the seed by `setup`, read back by `run`).
// ---------------------------------------------------------------------------

/// Builds the workload's input graphs from `seed` and writes them into
/// `dir`.  Deterministic: the same seed writes the same bytes.
void write_inputs(const Workload& w, std::uint64_t seed,
                  const std::string& dir);

std::string pipeline_input_path(const std::string& dir);

struct ServiceInputs {
  std::string batch;                 // HOT edge list for the batch job
  std::vector<std::string> copies;   // renamed / shuffled copies of one graph
  std::vector<std::string> fresh;    // distinct graphs, one cache miss each
  std::vector<std::string> metrics;  // metrics-job inputs
};

ServiceInputs service_input_paths(const ServiceSpec& spec,
                                  const std::string& dir);

/// FNV-1a 64 of a file's bytes, as 16 hex digits.
std::string file_hash(const std::string& path);
std::string read_file(const std::string& path);

// ---------------------------------------------------------------------------
// Spans.  Benchmark-side spans wrap every public call; library spans come
// from obs::Tracer.  Self time = duration minus the time covered by the
// spans nested directly inside it on the same thread.
// ---------------------------------------------------------------------------

struct SpanRecord {
  std::string name;
  std::uint64_t id = 0;      // pipeline or job id
  std::uint64_t thread = 0;  // tracer tid, or a bench-private thread key
  std::int64_t start_us = 0;
  std::int64_t end_us = 0;
  bool bench = false;
};

class SpanLog {
 public:
  /// Clears the log, enables obs::Tracer and learns the calling
  /// thread's tracer id (library spans on it nest under bench spans).
  void start();
  /// Disables the tracer and merges its events into the log.
  void stop();
  bool active() const noexcept { return active_; }

  void add(const std::string& name, std::uint64_t id, std::uint64_t thread,
           Clock::time_point start, Clock::time_point end);

  /// Tracer id of the thread that called start().
  std::uint64_t main_thread() const noexcept { return main_thread_; }

  const std::vector<SpanRecord>& spans() const noexcept { return spans_; }

  struct NameTotals {
    std::string layer;
    double total_s = 0.0;
    double self_s = 0.0;
    std::uint64_t count = 0;
  };
  /// Per span name: total duration, self time and count.
  std::map<std::string, NameTotals> totals() const;

  /// Union of the bench spans with no bench parent, in seconds.
  double top_level_covered_s() const;

 private:
  bool active_ = false;
  std::uint64_t main_thread_ = 0;
  mutable std::mutex mutex_;
  std::vector<SpanRecord> spans_;
};

/// RAII bench span on the calling thread.  No-op when `log` is null or
/// inactive.
class BenchSpan {
 public:
  BenchSpan(SpanLog* log, const char* name, std::uint64_t id,
            std::uint64_t thread);
  ~BenchSpan();
  BenchSpan(const BenchSpan&) = delete;
  BenchSpan& operator=(const BenchSpan&) = delete;

 private:
  SpanLog* log_;
  const char* name_;
  std::uint64_t id_;
  std::uint64_t thread_;
  Clock::time_point start_;
};

/// Layer (module) that a span name belongs to.
std::string layer_of(const std::string& span_name);

// ---------------------------------------------------------------------------
// Process measurements.
// ---------------------------------------------------------------------------

double cpu_seconds();           // user + sys of this process
void reset_peak_rss();          // best effort (/proc/self/clear_refs)
double peak_rss_mb();           // VmHWM, or ru_maxrss if unavailable

/// Values of the library's global counters that the benchmark reads.
std::map<std::string, std::uint64_t> read_counters();
std::uint64_t delta(const std::map<std::string, std::uint64_t>& before,
                    const std::map<std::string, std::uint64_t>& after,
                    const std::string& name);

// ---------------------------------------------------------------------------
// One measured iteration.
// ---------------------------------------------------------------------------

struct Iteration {
  double wall_s = 0.0;
  double cpu_s = 0.0;
  double peak_rss_mb = 0.0;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;
  /// Output edge-list hash(es); must repeat at one seed and chain count.
  std::string output_hash;
  /// Deterministic work counts; must repeat exactly.
  std::map<std::string, double> counts;
  /// Per-layer metrics (filled on traced iterations).
  std::map<std::string, double> layers;
  /// Service-only samples (ms / s).
  std::vector<double> interactive_ms;
  double interactive_jobs_per_s = 0.0;
  double batch_wall_s = 0.0;
  /// Self-time table (traced iterations).
  std::map<std::string, SpanLog::NameTotals> self_times;

  void fail(const std::string& why) {
    ++failed;
    failures.push_back(why);
  }
};

struct RunOptions {
  std::uint64_t seed = 1;
  std::string dir;  // inputs from `setup`; scratch outputs go below it
};

Iteration run_pipeline_iteration(const Workload& w, const RunOptions& run,
                                 std::uint64_t index, SpanLog* log);
Iteration run_service_iteration(const Workload& w, const RunOptions& run,
                                std::uint64_t index, SpanLog* log);

// ---------------------------------------------------------------------------
// Statistics.
// ---------------------------------------------------------------------------

double median(std::vector<double> values);
/// Nearest-rank percentile, q in [0, 1].
double percentile(std::vector<double> values, double q);

}  // namespace e2e
