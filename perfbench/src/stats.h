#pragma once
// Sample sets and the percentile rule the benchmark reports timings with:
// a percentile is only reported when at least ten samples lie beyond it,
// and every reported percentile carries the sample count it came from.

#include <cstddef>
#include <string>
#include <vector>

namespace perfbench {

/// Samples beyond a percentile needed before it may be reported.
inline constexpr std::size_t kMinBeyond = 10;

/// One reported percentile: its value, the samples it was taken from, and
/// how many of them lie strictly above its rank.
struct Percentile {
  double value = 0.0;
  std::size_t samples = 0;
  std::size_t beyond = 0;
};

/// An unordered bag of measurements (any unit; the caller names it).
class Samples {
 public:
  void add(double x) { xs_.push_back(x); }
  void append(const Samples& other);
  [[nodiscard]] std::size_t count() const { return xs_.size(); }
  [[nodiscard]] bool empty() const { return xs_.empty(); }
  [[nodiscard]] const std::vector<double>& values() const { return xs_; }
  [[nodiscard]] double sum() const;
  /// Arithmetic mean; throws std::domain_error when empty.
  [[nodiscard]] double mean() const;
  [[nodiscard]] double max() const;

  /// Nearest-rank percentile p in (0, 100): rank ceil(p/100 * n). Throws
  /// std::domain_error when fewer than kMinBeyond samples lie beyond the
  /// rank, so a p99 from 200 samples is refused rather than reported.
  [[nodiscard]] Percentile percentile(double p) const;
  [[nodiscard]] Percentile median() const { return percentile(50.0); }
  /// Whether percentile(p) would be reported.
  [[nodiscard]] bool supports(double p) const;

 private:
  std::vector<double> xs_;
};

/// Split `values` into `count` consecutive windows of `window_s` seconds
/// from `start_s` by the time each was taken (`at_s`, same order). Values
/// outside [start_s, start_s + count * window_s) are dropped.
[[nodiscard]] std::vector<Samples> by_window(const std::vector<double>& at_s,
                                             const std::vector<double>& values,
                                             double start_s, double window_s,
                                             std::size_t count);

/// Median of a handful of values that are each a whole measurement (e.g.
/// one set-up of the system, or one window's rate). The percentile rule
/// applies to samples within a measurement, not to repeats of it.
[[nodiscard]] double median_of(std::vector<double> v);

/// "12.3 (n=456)" — a value with its sample count, for the text report.
[[nodiscard]] std::string with_count(double value, std::size_t samples);

}  // namespace perfbench
