// perfbench: the serving benchmark's entry point.
//
//   perfbench --workload qa_unique|faq_ingest|agent_sessions --seed N
//             --seconds S --trace 0|1 [--trace-out DIR]
//
// Prints a human-readable report, then one JSON line
// {"correct", "attempted", "failed", "metrics"} as the last line of
// stdout. Exits 0 when every correctness check passed, 1 when one failed,
// 2 on bad arguments.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <stdexcept>
#include <string>

#include "workloads.h"

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--trace-out DIR]\n  workloads:");
  for (const std::string& w : perfbench::workload_names()) {
    std::fprintf(stderr, " %s", w.c_str());
  }
  std::fprintf(stderr, "\n");
  return 2;
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunOptions opts;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const char* a = argv[i];
    if (i + 1 >= argc) return usage();
    const char* v = argv[++i];
    if (std::strcmp(a, "--workload") == 0) {
      opts.workload = v;
      have_workload = true;
    } else if (std::strcmp(a, "--seed") == 0) {
      opts.seed = std::strtoull(v, nullptr, 10);
    } else if (std::strcmp(a, "--seconds") == 0) {
      opts.seconds = std::strtod(v, nullptr);
    } else if (std::strcmp(a, "--trace") == 0) {
      opts.trace = std::strcmp(v, "0") != 0;
    } else if (std::strcmp(a, "--trace-out") == 0) {
      opts.trace_out = v;
    } else {
      return usage();
    }
  }
  if (!have_workload || !(opts.seconds > 0.0)) return usage();

  perfbench::Report report;
  try {
    report = perfbench::run(opts);
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return usage();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: run failed: %s\n", e.what());
    return 1;
  }

  for (const std::string& line : report.lines) std::printf("%s\n", line.c_str());
  std::string json = "{\"correct\": ";
  json += report.correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(report.attempted);
  json += ", \"failed\": " + std::to_string(report.failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < report.metrics.size(); ++i) {
    const perfbench::Metric& m = report.metrics[i];
    json += (i == 0 ? "\"" : ", \"") + m.name + "\": {\"value\": " +
            json_number(m.value) + ", \"unit\": \"" + m.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return report.correct ? 0 : 1;
}
