// End-to-end benchmark of GEA's §4 workflows.
//
//   e2ebench --workload pipeline|serve_read|serve_write --seed N
//            --seconds S --trace 0|1 --out DIR
//
// Untraced (--trace 0) it prints the six end-to-end metrics of the named
// workload; traced (--trace 1) the per-layer metrics of all three. The
// last line of stdout is one JSON object: correct, attempted, failed,
// metrics. The line before it holds, per end-to-end metric, the raw
// (host-time) value and the reference kernel's median.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>

#include "measure.h"
#include "refkernel.h"
#include "workloads.h"

namespace {

using namespace e2ebench;

/// Every GEA_* variable the program reads, pinned so neither side of a
/// comparison can have instrumentation or extra threads switched on by
/// the host's environment. Called before any GEA code runs.
void PinEnvironment() {
  const size_t cores = std::max(1u, std::thread::hardware_concurrency());
  const std::string threads = std::to_string(std::min(kPoolThreads, cores));
  const char* const pinned[][2] = {
      {"GEA_THREADS", threads.c_str()},
      {"GEA_METRICS", "0"},
      {"GEA_TRACE", "0"},
      {"GEA_TRACE_SAMPLE", "0"},
      {"GEA_SLOW_QUERY_MS", ""},
      {"GEA_LOG", "off"},
      {"GEA_LOG_FILE", ""},
      {"GEA_MONITOR_PORT", ""},
      {"GEA_STATS_INTERVAL_MS", "0"},
      {"GEA_WATCHDOG_MS", "0"},
      {"GEA_FORCE_PARALLEL", ""},
  };
  for (const auto& [name, value] : pinned) setenv(name, value, 1);
}

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "e2ebench: %s\nusage: e2ebench --workload NAME --seed N "
               "--seconds S --trace 0|1 --out DIR\n",
               why);
  std::exit(2);
}

Options ParseArgs(int argc, char** argv) {
  Options options;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      options.workload = value;
      have_workload = std::find(std::begin(kWorkloads), std::end(kWorkloads),
                                value) != std::end(kWorkloads);
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') Usage("--seed takes an integer");
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || options.seconds < 1 || options.seconds > 120) {
        Usage("--seconds takes a number in 1..120");
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") Usage("--trace takes 0 or 1");
      options.trace = value == "1";
    } else if (flag == "--out") {
      options.out_dir = value;
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
  }
  if (!have_workload) Usage("--workload must name pipeline, serve_read or serve_write");
  if (options.out_dir.empty()) Usage("--out is required");
  return options;
}

std::string MetricsJson(const std::vector<Figure>& figures) {
  std::string out = "{";
  for (const Figure& f : figures) {
    if (out.size() > 1) out += ", ";
    out += JsonString(f.name) + ": {\"value\": " + JsonNumber(f.value) +
           ", \"unit\": " + JsonString(f.unit) + "}";
  }
  return out + "}";
}

}  // namespace

int main(int argc, char** argv) {
  PinEnvironment();
  const Options options = ParseArgs(argc, argv);
  std::filesystem::create_directories(options.out_dir);

  ReferenceKernel kernel;
  RunResult result;
  if (options.trace) {
    RunTraced(options, kernel, result);
  } else if (options.workload == "pipeline") {
    RunPipeline(options, kernel, result);
  } else {
    RunServe(options, options.workload == "serve_write", kernel, result);
  }

  for (const std::string& e : result.Errors()) {
    std::fprintf(stderr, "e2ebench: %s\n", e.c_str());
  }
  if (result.ref_runs > 1 &&
      static_cast<double>(result.ref_discarded) >
          kMaxDisturbedShare * static_cast<double>(result.ref_runs - 1)) {
    std::fprintf(stderr,
                 "e2ebench: %zu of %zu reference timings were disturbed by "
                 "other threads of this process; the run is void\n",
                 result.ref_discarded, result.ref_runs - 1);
    return 3;
  }
  if (result.attempted == 0) {
    std::fprintf(stderr, "e2ebench: no operation was attempted\n");
    return 3;
  }
  std::vector<Figure> figures = result.layers;
  if (!options.trace) {
    if (result.e2e.windows.size() < 2) {
      std::fprintf(stderr, "e2ebench: fewer than two measured windows\n");
      return 3;
    }
    figures = ReduceEndToEnd(result.e2e);
    const LatencyTail tail = PooledTail(result.e2e);
    std::string detail = "{\"workload\": " + JsonString(options.workload) +
                         ", \"seed\": " + std::to_string(options.seed) +
                         ", \"ref_median_ms\": " +
                         JsonNumber(Median(result.ref_ms)) +
                         ", \"setup_ref_ms\": " +
                         JsonNumber(result.e2e.setup_ref_ms) +
                         ", \"windows\": " +
                         std::to_string(result.e2e.windows.size()) +
                         ", \"ref_discarded\": " +
                         std::to_string(result.ref_discarded) +
                         ", \"samples\": " + std::to_string(tail.samples) +
                         ", \"pooled_p90_ms\": " + JsonNumber(tail.p90_ms) +
                         ", \"latency_p99_ms\": " + JsonNumber(tail.p99_ms) +
                         ", \"raw\": {";
    for (size_t i = 0; i < figures.size(); ++i) {
      detail += (i ? ", " : "") + JsonString(figures[i].name) + ": " +
                JsonNumber(figures[i].raw);
    }
    detail += "}, \"window_list\": [";
    for (size_t i = 0; i < result.e2e.windows.size(); ++i) {
      const Window& w = result.e2e.windows[i];
      detail += std::string(i ? ", " : "") + "[" + JsonNumber(w.ref_ms) + ", " +
                JsonNumber(w.ref_after_ms) + ", " + JsonNumber(w.wall_ms) +
                ", " + JsonNumber(w.cpu_ms) + ", " + std::to_string(w.ops) +
                ", " + JsonNumber(Quantile(w.latencies_ms, 0.5)) + ", " +
                JsonNumber(Quantile(w.latencies_ms, 0.9)) + "]";
    }
    std::printf("%s]}\n", detail.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              result.Correct() ? "true" : "false",
              static_cast<unsigned long long>(result.attempted),
              static_cast<unsigned long long>(result.failed),
              MetricsJson(figures).c_str());
  return 0;
}
