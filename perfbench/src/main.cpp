/// rim_perfbench — the serving benchmark.
///
///   rim_perfbench --workload <routed_reads|routed_writes|bulk_churn>
///                 --seed <n> --seconds <s> --trace <0|1>
///                 [--out-dir DIR] [--git-sha SHA] [--src-digest HEX]
///                 [--wrong-digest]
///
/// Drives librim's real serving stack in-process over loopback TCP from
/// closed-loop clients, checks every answer against an in-process replay,
/// and prints one JSON object as the last line of standard output:
/// {"attempted", "correct", "failed", "metrics"}. With --trace 0 the
/// metrics are the end-to-end set; with --trace 1 the run is split into an
/// untraced and a traced half and the metrics are the per-layer split.
/// A readable summary goes to standard error; the full record (provenance,
/// sample counts, the round-trip split) and the Chrome trace go to
/// --out-dir. Exit status 0 only when every request succeeded and every
/// answer matched the replay.

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "replay.hpp"
#include "report.hpp"
#include "stack.hpp"
#include "trace.hpp"
#include "workload.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using namespace perfbench;

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string out_dir = ".bench_out";
  std::string git_sha = "unknown";
  std::string src_digest = "unknown";
  bool wrong_digest = false;
};

/// Set-up is repeated this many times per untraced run; setup_s is the
/// median.
constexpr std::size_t kSetupRepeats = 5;
/// Spans written to the Chrome trace (earliest first).
constexpr std::size_t kMaxTraceEvents = 20000;

int usage(const char* message) {
  std::cerr << "rim_perfbench: " << message
            << "\nusage: rim_perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--out-dir DIR] [--git-sha SHA] "
               "[--src-digest HEX] [--wrong-digest]\nworkloads:";
  for (const std::string& name : workload_names()) std::cerr << ' ' << name;
  std::cerr << '\n';
  return 2;
}

bool parse_options(int argc, char** argv, Options& options) {
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--wrong-digest") {
      options.wrong_digest = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        options.workload = value;
      } else if (flag == "--seed") {
        options.seed = std::stoull(value);
        have_seed = true;
      } else if (flag == "--seconds") {
        options.seconds = std::stod(value);
        have_seconds = true;
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") return false;
        options.trace = value == "1";
        have_trace = true;
      } else if (flag == "--out-dir") {
        options.out_dir = value;
      } else if (flag == "--git-sha") {
        options.git_sha = value;
      } else if (flag == "--src-digest") {
        options.src_digest = value;
      } else {
        return false;
      }
    } catch (const std::exception&) {
      return false;
    }
  }
  return have_seed && have_seconds && have_trace && options.seconds > 0.0;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// User + system CPU time of the whole process (every thread), seconds.
double process_cpu_s() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto seconds = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_usec) / 1e6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

rim::io::Json metrics_json(const std::vector<Metric>& metrics) {
  rim::io::JsonObject object;
  for (const Metric& m : metrics) {
    rim::io::JsonObject entry;
    entry["unit"] = rim::io::Json(m.unit);
    entry["value"] = rim::io::Json(m.value);
    object[m.name] = rim::io::Json(std::move(entry));
  }
  return rim::io::Json(std::move(object));
}

int fail(const std::string& message) {
  std::cerr << "rim_perfbench: " << message << '\n';
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  if (!parse_options(argc, argv, options)) return usage("bad arguments");
  WorkloadSpec spec;
  if (!find_workload(options.workload, spec)) return usage("unknown workload");

  StackConfig config;
  config.routed = spec.routed;
  config.backends = spec.backends;
  config.limits.max_sessions = 128;
  config.limits.max_live_sessions = 128;
  config.traced = options.trace;

  // Inputs and replay twins: generated from the seed, outside every timer.
  std::vector<SessionState> sessions;
  std::vector<rim::core::Scenario> twins;
  make_sessions(spec, options.seed, config.limits.max_frame_bytes,
                config.eval, config.pools.batch_pool, sessions, twins);

  // Set-up: build the stack, then create and seed every session over the
  // wire through its first full evaluation. Repeated on fresh stacks; the
  // last one serves the timed windows.
  std::unique_ptr<Stack> stack;
  std::vector<ClientConn> clients;
  std::vector<double> setup_times;
  const std::size_t repeats = options.trace ? 1 : kSetupRepeats;
  std::string error;
  for (std::size_t r = 0; r < repeats; ++r) {
    clients.clear();
    stack.reset();
    stack = std::make_unique<Stack>();
    if (!stack->start(config, error)) return fail("stack start: " + error);
    if (!connect_clients(spec, options.seed, stack->port(), options.trace,
                         sessions, clients, error)) {
      return fail("connect: " + error);
    }
    const double seconds = seed_over_wire(clients, error);
    if (seconds < 0.0) return fail("set-up: " + error);
    setup_times.push_back(seconds);
  }
  // Peak RSS through set-up: the seeded stack plus the twins, before the
  // client logs (which grow with throughput) take any memory.
  const double rss_mb = peak_rss_mb();

  // Warm-up, then the timed window(s). A traced run measures an untraced
  // half and a traced half so the tracing overhead is its own figure.
  const double warmup = std::clamp(options.seconds * 0.1, 0.25, 1.0);
  (void)run_phase(spec, Phase::kWarmup, warmup, clients);
  const double window = options.trace ? options.seconds / 2 : options.seconds;
  const double cpu_start = process_cpu_s();
  const Window measured = run_phase(spec, Phase::kMeasure, window, clients);
  const double cpu_s = process_cpu_s() - cpu_start;
  Window traced;
  const StackCounters before_trace = stack->counters();
  if (options.trace) {
    SpanRecorder::instance().set_enabled(true);
    traced = run_phase(spec, Phase::kTraced, window, clients);
    SpanRecorder::instance().set_enabled(false);
  }
  const StackCounters after_trace = stack->counters();

  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::string first_error;
  for (const ClientConn& conn : clients) {
    failed += conn.failures;
    if (first_error.empty()) first_error = conn.first_error;
  }
  for (const SessionState& s : sessions) attempted += s.log.size();
  if (failed == 0 && !read_final_digests(clients, error)) {
    ++failed;
    first_error = error;
  }
  clients.clear();
  stack->stop();

  // The correctness gate (and, traced, the engine-layer timings).
  const ReplayReport replay =
      replay_sessions(sessions, twins, config.pools.batch_pool, options.trace,
                      options.wrong_digest);
  failed += replay.mismatches;
  const bool correct = replay.mismatches == 0 && failed == 0;

  rim::io::JsonObject detail;
  rim::io::JsonObject provenance;
  provenance["seed"] = rim::io::Json(options.seed);
  provenance["nproc"] = rim::io::Json(std::thread::hardware_concurrency());
  provenance["build_type"] = rim::io::Json(PERFBENCH_BUILD_TYPE);
  provenance["git_sha"] = rim::io::Json(options.git_sha);
  provenance["src_digest"] = rim::io::Json(options.src_digest);
  provenance["pools"] = config.pools.to_json();
  provenance["clients"] = rim::io::Json(spec.clients);
  provenance["seconds"] = rim::io::Json(options.seconds);
  provenance["trace"] = rim::io::Json(options.trace);
  detail["provenance"] = rim::io::Json(std::move(provenance));
  detail["workload"] = spec.to_json();
  rim::io::JsonObject gate;
  gate["answers_checked"] = rim::io::Json(replay.checked);
  gate["mismatches"] = rim::io::Json(replay.mismatches);
  gate["first_mismatch"] = rim::io::Json(replay.first_mismatch);
  gate["first_error"] = rim::io::Json(first_error);
  detail["correctness"] = rim::io::Json(std::move(gate));

  const WindowStats untraced = window_stats(sessions, Phase::kMeasure, measured);
  detail["window"] = untraced.to_json();
  std::filesystem::create_directories(options.out_dir);
  std::vector<Metric> metrics;   // the result line: BENCHMARK.json's set
  std::vector<Metric> reported;  // printed and recorded, not gated
  if (!options.trace) {
    metrics = {
        {"setup_s", median(setup_times), "s"},
        {"req_per_s", untraced.req_per_s(), "1/s"},
        {"read_p50_ms", untraced.read_ms.p50, "ms"},
        {"lat_p90_ms", untraced.all_ms.p90, "ms"},
        {"cpu_us_per_req",
         cpu_s * 1e6 / static_cast<double>(std::max<std::size_t>(untraced.requests, 1)),
         "us"},
        {"peak_rss_mb", rss_mb, "MB"},
    };
    // The remaining end-to-end figures. A gated metric must be non-zero on
    // every workload and steady from run to run; these are not (write
    // figures are absent on routed_reads, lat_p50 sits between the batch
    // and query populations of bulk_churn, p99s swing with host noise).
    reported = {
        {"lat_p50_ms", untraced.all_ms.p50, "ms"},
        {"lat_p99_ms", untraced.all_ms.p99, "ms"},
        {"read_p99_ms", untraced.read_ms.p99, "ms"},
        {"write_p50_ms", untraced.write_ms.p50, "ms"},
        {"write_p99_ms", untraced.write_ms.p99, "ms"},
        {"mutations_per_s", untraced.mutations_per_s(), "1/s"},
    };
    detail["reported"] = metrics_json(reported);
    rim::io::JsonArray setups;
    for (const double s : setup_times) setups.emplace_back(s);
    detail["setup_s_runs"] = rim::io::Json(std::move(setups));
  } else {
    const WindowStats traced_stats =
        window_stats(sessions, Phase::kTraced, traced);
    detail["traced_window"] = traced_stats.to_json();
    LayerInputs in;
    in.routed = spec.routed;
    in.spans = SpanRecorder::instance().collect_spans();
    in.captures = SpanRecorder::instance().collect_captures();
    in.sessions = &sessions;
    in.engine = &replay.engine;
    in.counters = after_trace.minus(before_trace);
    in.service_rejected_total = after_trace.service_rejected;
    std::vector<double> evals;
    for (const SessionState& s : sessions) evals.push_back(s.full_eval_ms);
    in.full_eval_ms = median(std::move(evals));
    in.untraced_req_per_s = untraced.req_per_s();
    in.traced_req_per_s = traced_stats.req_per_s();
    metrics = layer_metrics(in, detail);
    const std::string trace_path = options.out_dir + "/" + spec.name + "-seed" +
                                   std::to_string(options.seed) + ".trace.json";
    if (write_chrome_trace(trace_path, std::move(in.spans), kMaxTraceEvents)) {
      detail["chrome_trace"] = rim::io::Json(trace_path);
    }
  }
  detail["metrics"] = metrics_json(metrics);
  const std::string detail_path =
      options.out_dir + "/" + spec.name + "-seed" + std::to_string(options.seed) +
      "-trace" + (options.trace ? "1" : "0") + ".json";
  std::ofstream(detail_path) << rim::io::Json(detail).dump() << '\n';

  std::cerr << "rim_perfbench " << spec.name << " seed=" << options.seed
            << " trace=" << options.trace << " attempted=" << attempted
            << " failed=" << failed << " answers_checked=" << replay.checked
            << '\n';
  if (!replay.first_mismatch.empty()) {
    std::cerr << "  MISMATCH: " << replay.first_mismatch << '\n';
  }
  if (!first_error.empty()) std::cerr << "  ERROR: " << first_error << '\n';
  for (const Metric& m : metrics) {
    std::fprintf(stderr, "  %-44s %14.4f %s\n", m.name.c_str(), m.value,
                 m.unit.c_str());
  }
  for (const Metric& m : reported) {
    std::fprintf(stderr, "  %-44s %14.4f %s (reported, not gated)\n",
                 m.name.c_str(), m.value, m.unit.c_str());
  }
  const auto samples = [](const char* name, const Percentiles& p) {
    std::fprintf(stderr, "  samples %-6s n=%zu, beyond p99=%zu%s\n", name,
                 p.count, p.beyond_p99,
                 p.count != 0 && p.beyond_p99 < 10 ? " (p99 under-sampled)" : "");
  };
  samples("all", untraced.all_ms);
  samples("read", untraced.read_ms);
  samples("write", untraced.write_ms);
  std::cerr << "  detail: " << detail_path << '\n';

  rim::io::JsonObject result;
  result["correct"] = rim::io::Json(correct);
  result["attempted"] = rim::io::Json(attempted);
  result["failed"] = rim::io::Json(failed);
  result["metrics"] = metrics_json(metrics);
  std::cout << rim::io::Json(std::move(result)).dump() << std::endl;
  return correct ? 0 : 1;
}
