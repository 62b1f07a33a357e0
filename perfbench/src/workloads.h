#pragma once
// The three benchmark workloads (qa_unique, faq_ingest, agent_sessions)
// and the separate traced run. See perfbench/README.md for why each exists
// and which layer each metric belongs to.

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Directory the traced run writes its span log into ("" = do not write).
  std::string trace_out;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::size_t samples = 0;  ///< samples behind the value (0 = a count)
};

struct Report {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> lines;  ///< human-readable report, printed first
};

[[nodiscard]] const std::vector<std::string>& workload_names();

/// Run one workload (untraced: end-to-end metrics) or its traced run
/// (per-layer metrics). Throws std::invalid_argument on an unknown name.
[[nodiscard]] Report run(const RunOptions& opts);

}  // namespace perfbench
