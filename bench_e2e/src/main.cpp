// orbis_e2e: end-to-end, per-layer benchmark (README.md).
//
//   orbis_e2e setup --workload W --seed N --dir D
//       builds the workload's inputs from the seed into D, several times
//       over, and prints "setup_s <median seconds> repeats <count>".
//   orbis_e2e run --workload W --seed N --seconds S --trace 0|1 --dir D
//                 --state-dir SD [--setup-s X]
//       repeats the workload on D's inputs for about S seconds, checks
//       every output, prints each metric as "metric <name> <value> <unit>"
//       and ends with one JSON line.  --trace 0 reports the end-to-end
//       metrics of untraced iterations; --trace 1 runs untraced, then
//       traced iterations and reports the per-layer metrics.
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <numeric>
#include <sstream>
#include <stdexcept>

#include "e2e.hpp"
#include "obs/report.hpp"
#include "util/flat_table.hpp"  // ORBIS_SIMD / probe-path macros

namespace {

using namespace e2e;

struct Args {
  std::string mode;
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
  std::string dir;
  std::string state_dir;
  double setup_s = 0.0;
};

Args parse(int argc, char** argv) {
  if (argc < 2) throw std::invalid_argument("usage: orbis_e2e setup|run ...");
  Args a;
  a.mode = argv[1];
  for (int i = 2; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument(flag + " needs a value");
    const std::string value = argv[++i];
    if (flag == "--workload") a.workload = value;
    else if (flag == "--seed") a.seed = std::stoull(value);
    else if (flag == "--seconds") a.seconds = std::stod(value);
    else if (flag == "--trace") a.trace = std::stoi(value);
    else if (flag == "--dir") a.dir = value;
    else if (flag == "--state-dir") a.state_dir = value;
    else if (flag == "--setup-s") a.setup_s = std::stod(value);
    else throw std::invalid_argument("unknown flag " + flag);
  }
  if (a.workload.empty() || a.dir.empty()) {
    throw std::invalid_argument("--workload and --dir are required");
  }
  return a;
}

struct MetricDef {
  const char* name;
  const char* unit;
};

constexpr MetricDef kPerLayer[] = {
    {"io.extract_s", "s"},
    {"io.extract_mb_per_s", "MB/s"},
    {"io.bytes_read", "bytes"},
    {"io.write_s", "s"},
    {"io.bytes_written", "bytes"},
    {"core.extract_peak_accumulator_mb", "MB"},
    {"gen.seed_1k_s", "s"},
    {"gen.target_2k_s", "s"},
    {"gen.target_3k_s", "s"},
    {"gen.attempts_per_s", "1/s"},
    {"gen.rewire_attempts", "count"},
    {"gen.rewire_accepted", "count"},
    {"gen.rejected_structural", "count"},
    {"gen.rejected_constraint", "count"},
    {"gen.rejected_objective", "count"},
    {"gen.accept_ratio", "ratio"},
    {"gen.cpu_per_wall", "ratio"},
    {"gen.final_distance", "D_d"},
    {"exec.tasks_run", "count"},
    {"metrics.scalar_s", "s"},
    {"metrics.distance_s", "s"},
    {"metrics.distance_edges_per_s", "1/s"},
    {"metrics.distance_edge_traversals", "count"},
    {"metrics.s2_s", "s"},
    {"metrics.spectrum_s", "s"},
    {"svc.queue_wait_ms_p50", "ms"},
    {"svc.queue_wait_ms_p95", "ms"},
    {"svc.run_ms_p50", "ms"},
    {"svc.interactive_jobs", "count"},
    {"svc.cache_hits", "count"},
    {"svc.cache_misses", "count"},
    {"svc.cache_hit_ratio", "ratio"},
    {"svc.generate_legs", "count"},
    {"svc.leg_s_p50", "s"},
    {"svc.interactive_p50_ms", "ms"},
    {"svc.interactive_p95_ms", "ms"},
    {"svc.interactive_jobs_per_s", "1/s"},
    {"svc.batch_wall_s", "s"},
    {"self.io_s", "s"},
    {"self.core_s", "s"},
    {"self.gen_s", "s"},
    {"self.metrics_s", "s"},
    {"self.svc_s", "s"},
    {"trace.coverage", "ratio"},
    {"trace.overhead_s", "s"},
};

std::string num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.10g", v);
  return buf;
}

void print_metric(const std::string& name, double value, const std::string& unit,
                  const std::string& note = "") {
  std::cout << "metric " << name << ' ' << num(value) << ' ' << unit;
  if (!note.empty()) std::cout << "  (" << note << ')';
  std::cout << '\n';
}

std::string probe_path() {
#if !ORBIS_SIMD
  return "scalar";
#else
#if ORBIS_FLAT_TABLE_AVX2
  if (__builtin_cpu_supports("avx2")) return "avx2";
#endif
  return ORBIS_FLAT_TABLE_SSE2 ? "sse2" : "swar";
#endif
}

void print_host(const Args& a, const Workload& w) {
  const orbis::obs::HostContext host = orbis::obs::collect_host_context();
  std::cout << "host nproc=" << host.hardware_concurrency
            << " available_workers=" << host.available_workers
            << " simd=" << host.simd << " flat_table_probe=" << probe_path()
            << " compiler=\"" << host.compiler << "\""
            << " chains=" << kChains << " speculation_workers=1";
  if (w.service) std::cout << " server_workers=" << w.svc.server_workers
                           << " clients=" << w.svc.clients;
  std::cout << " workload=" << w.name << " seed=" << a.seed << '\n';
  if (host.available_workers < kChains) {
    std::cout << "warning: fewer available cores than pinned chains\n";
  }
}

/// Cross-process determinism: the first run of (binary, workload, seed,
/// chains) records the output hash and work counts; later runs must
/// repeat them exactly.  Returns the mismatches.
std::vector<std::string> check_state(const Args& a, const Iteration& first) {
  if (a.state_dir.empty() || first.output_hash.empty()) return {};
  std::filesystem::create_directories(a.state_dir);
  const std::string path = a.state_dir + "/" + a.workload + "-seed" +
                           std::to_string(a.seed) + "-chains" +
                           std::to_string(kChains) + "-" +
                           file_hash("/proc/self/exe") + ".txt";
  std::ostringstream mine;
  mine << "hash " << first.output_hash << '\n';
  for (const auto& [name, value] : first.counts) mine << name << ' ' << num(value) << '\n';
  if (!std::filesystem::exists(path)) {
    std::ofstream(path) << mine.str();
    return {};
  }
  const std::string recorded = read_file(path);
  if (recorded == mine.str()) return {};
  return {"output hash or work counts differ from an earlier run at this "
          "seed and chain count (" + path + ")"};
}

int run(const Args& a) {
  const Workload& w = find_workload(a.workload);
  print_host(a, w);
  const RunOptions options{.seed = a.seed, .dir = a.dir};
  const auto iterate = [&](std::uint64_t index, SpanLog* log) {
    return w.service ? run_service_iteration(w, options, index, log)
                     : run_pipeline_iteration(w, options, index, log);
  };

  const Clock::time_point run_start = Clock::now();
  const auto elapsed = [&] { return seconds_between(run_start, Clock::now()); };
  std::vector<Iteration> untraced;
  std::vector<Iteration> traced;
  SpanLog log;
  double last = 0.0;  // duration of the latest iteration, checks included
  const auto step = [&](bool with_trace) {
    const Clock::time_point s = Clock::now();
    Iteration it = iterate(untraced.size() + traced.size(), with_trace ? &log : nullptr);
    last = seconds_between(s, Clock::now());
    (with_trace ? traced : untraced).push_back(std::move(it));
  };
  if (a.trace == 0) {
    constexpr std::size_t kMinIterations = 3;
    do {
      step(false);
    } while (untraced.size() < kMinIterations || elapsed() + last <= a.seconds);
  } else {
    do {
      step(false);
    } while (elapsed() + last <= a.seconds / 2);
    do {
      step(true);
    } while (elapsed() + last <= a.seconds);
  }

  // Failures, and determinism of hashes and counts across iterations.
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;
  std::vector<const Iteration*> all;
  for (const auto& it : untraced) all.push_back(&it);
  for (const auto& it : traced) all.push_back(&it);
  for (const Iteration* it : all) {
    attempted += it->attempted;
    failed += it->failed;
    failures.insert(failures.end(), it->failures.begin(), it->failures.end());
  }
  const Iteration& first = *all.front();
  for (std::size_t i = 1; i < all.size(); ++i) {
    if (all[i]->failed != 0 || first.failed != 0) continue;
    if (all[i]->output_hash != first.output_hash || all[i]->counts != first.counts) {
      ++failed;
      failures.push_back("iteration " + std::to_string(i) +
                         ": output hash or work counts differ from iteration 0");
    }
  }
  if (first.failed == 0) {
    for (const std::string& why : check_state(a, first)) {
      ++failed;
      failures.push_back(why);
    }
  }
  for (const std::string& why : failures) std::cout << "FAILED " << why << '\n';
  for (std::size_t i = 0; i < all.size(); ++i) {
    std::cout << "iteration " << i << (i < untraced.size() ? " untraced" : " traced")
              << " wall_s=" << num(all[i]->wall_s) << " cpu_s=" << num(all[i]->cpu_s)
              << " peak_rss_mb=" << num(all[i]->peak_rss_mb) << '\n';
  }

  std::cout << "iterations untraced=" << untraced.size() << " traced=" << traced.size()
            << " output_hash=" << first.output_hash << '\n';
  for (const auto& [name, value] : first.counts) {
    std::cout << "count " << name << ' ' << num(value) << '\n';
  }

  const auto collect = [](const std::vector<Iteration>& its, auto field) {
    std::vector<double> values;
    for (const Iteration& it : its) values.push_back(field(it));
    return values;
  };
  std::vector<double> interactive;
  for (const Iteration& it : untraced) {
    interactive.insert(interactive.end(), it.interactive_ms.begin(), it.interactive_ms.end());
  }
  const double wall = median(collect(untraced, [](const Iteration& it) { return it.wall_s; }));
  const std::string samples = std::to_string(untraced.size()) + " untraced iterations";

  std::map<std::string, std::pair<double, std::string>> json;
  if (a.trace == 0) {
    const double cpu = median(collect(untraced, [](const Iteration& it) { return it.cpu_s; }));
    // Upper quartile: the allocator's first iterations start from a
    // smaller heap, and one iteration's arena layout is an outlier.
    const double rss = percentile(
        collect(untraced, [](const Iteration& it) { return it.peak_rss_mb; }), 0.75);
    json["setup_s"] = {a.setup_s, "s"};
    json["wall_s"] = {wall, "s"};
    json["cpu_s"] = {cpu, "s"};
    json["peak_rss_mb"] = {rss, "MB"};
    print_metric("setup_s", a.setup_s, "s", "median of the setups before this run");
    print_metric("wall_s", wall, "s", "median of " + samples);
    print_metric("cpu_s", cpu, "s", "median of " + samples);
    print_metric("peak_rss_mb", rss, "MB", "upper quartile of " + samples);
    const auto final_distance = first.counts.find("gen.final_distance");
    print_metric("final_distance",
                 final_distance == first.counts.end() ? 0.0 : final_distance->second,
                 w.service || w.pipeline.d == 3 ? "D3" : "D2", "exact");
    print_metric("failed_frac",
                 static_cast<double>(failed) / static_cast<double>(attempted), "ratio",
                 std::to_string(failed) + " of " + std::to_string(attempted));
    if (w.service) {
      const std::string n = std::to_string(interactive.size()) + " jobs";
      print_metric("interactive_p50_ms", percentile(interactive, 0.50), "ms", n);
      print_metric("interactive_p95_ms", percentile(interactive, 0.95), "ms", n);
      print_metric("interactive_jobs_per_s",
                   median(collect(untraced, [](const Iteration& it) {
                     return it.interactive_jobs_per_s;
                   })),
                   "1/s", "median of " + samples);
      print_metric("batch_wall_s",
                   median(collect(untraced, [](const Iteration& it) { return it.batch_wall_s; })),
                   "s", "median of " + samples);
    }
  } else {
    std::map<std::string, std::vector<double>> layer_values;
    std::map<std::string, double> self_by_layer;
    std::map<std::string, SpanLog::NameTotals> self_by_name;
    for (const Iteration& it : traced) {
      for (const auto& [name, value] : it.layers) layer_values[name].push_back(value);
      for (const auto& [name, t] : it.self_times) {
        auto& acc = self_by_name[name];
        acc.layer = t.layer;
        acc.total_s += t.total_s / static_cast<double>(traced.size());
        acc.self_s += t.self_s / static_cast<double>(traced.size());
        acc.count += t.count;
      }
    }
    for (const auto& [name, t] : self_by_name) {
      if (t.layer != "client") self_by_layer[t.layer] += t.self_s;
    }
    const double traced_wall =
        median(collect(traced, [](const Iteration& it) { return it.wall_s; }));
    std::map<std::string, double> layers;
    for (const auto& [name, values] : layer_values) layers[name] = median(values);
    for (const char* layer : {"io", "core", "gen", "metrics", "svc"}) {
      layers[std::string("self.") + layer + "_s"] = self_by_layer[layer];
    }
    layers["trace.overhead_s"] = traced_wall - wall;
    if (w.service) {
      layers["svc.interactive_p50_ms"] = percentile(interactive, 0.50);
      layers["svc.interactive_p95_ms"] = percentile(interactive, 0.95);
      layers["svc.interactive_jobs_per_s"] = median(
          collect(untraced, [](const Iteration& it) { return it.interactive_jobs_per_s; }));
      layers["svc.batch_wall_s"] =
          median(collect(untraced, [](const Iteration& it) { return it.batch_wall_s; }));
    }
    // Shares divide the mean self time by the mean traced wall.
    const std::vector<double> traced_walls =
        collect(traced, [](const Iteration& it) { return it.wall_s; });
    const double mean_wall = std::accumulate(traced_walls.begin(), traced_walls.end(), 0.0) /
                             static_cast<double>(traced_walls.size());
    std::cout << "self_time (mean per traced iteration; mean wall " << num(mean_wall)
              << " s traced, median " << num(wall) << " s untraced)\n";
    for (const auto& [name, t] : self_by_name) {
      std::cout << "  span " << name << " layer=" << t.layer << " self_s=" << num(t.self_s)
                << " total_s=" << num(t.total_s) << " share=" << num(t.self_s / mean_wall)
                << '\n';
    }
    const auto largest = std::max_element(
        self_by_name.begin(), self_by_name.end(), [](const auto& a, const auto& b) {
          const bool a_client = a.second.layer == "client";
          const bool b_client = b.second.layer == "client";
          if (a_client != b_client) return a_client;  // client waits rank last
          return a.second.self_s < b.second.self_s;
        });
    if (largest != self_by_name.end()) {
      std::cout << "  largest_self_time span=" << largest->first
                << " share=" << num(largest->second.self_s / mean_wall) << '\n';
    }
    for (const auto& [layer, s] : self_by_layer) {
      std::cout << "  layer " << layer << " self_s=" << num(s)
                << " share=" << num(s / mean_wall) << '\n';
    }
    std::cout << "note: gen.rewire_* combine the 2K and 3K stages; the library "
                 "emits no per-stage split\n";
    for (const MetricDef& m : kPerLayer) {
      const auto found = layers.find(m.name);
      const double value = found == layers.end() ? 0.0 : found->second;
      json[m.name] = {value, m.unit};
      print_metric(m.name, value, m.unit);
    }
  }

  std::ostringstream out;
  out << "{\"correct\": " << (failed == 0 ? "true" : "false")
      << ", \"attempted\": " << attempted << ", \"failed\": " << failed
      << ", \"metrics\": {";
  bool comma = false;
  for (const auto& [name, value] : json) {
    out << (comma ? ", " : "") << '"' << name << "\": {\"value\": " << num(value.first)
        << ", \"unit\": \"" << value.second << "\"}";
    comma = true;
  }
  out << "}}";
  std::cout << out.str() << std::endl;
  return 0;
}

/// Builds the inputs several times over (same files, same bytes) and
/// prints the median time of one set-up.
int setup(const Args& a) {
  const Workload& w = find_workload(a.workload);
  constexpr std::size_t kMaxRepeats = 101;
  constexpr std::size_t kMinRepeats = 5;
  constexpr double kBudgetS = 1.0;
  const Clock::time_point begin = Clock::now();
  std::vector<double> times;
  while (times.size() < kMaxRepeats &&
         (times.size() < kMinRepeats || seconds_between(begin, Clock::now()) < kBudgetS)) {
    const Clock::time_point start = Clock::now();
    write_inputs(w, a.seed, a.dir);
    times.push_back(seconds_between(start, Clock::now()));
  }
  std::cout << "setup_s " << num(median(times)) << " repeats " << times.size() << std::endl;
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args a = parse(argc, argv);
    if (a.mode == "setup") return setup(a);
    if (a.mode == "run") return run(a);
    throw std::invalid_argument("unknown mode " + a.mode);
  } catch (const std::exception& error) {
    std::cerr << "orbis_e2e: " << error.what() << '\n';
    return 2;
  }
}
