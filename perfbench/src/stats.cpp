#include "stats.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <numeric>
#include <stdexcept>

namespace perfbench {
namespace {

std::size_t nearest_rank(double p, std::size_t n) {
  const double r = std::ceil(p / 100.0 * static_cast<double>(n));
  return std::clamp<std::size_t>(static_cast<std::size_t>(r), 1, n);
}

}  // namespace

void Samples::append(const Samples& other) {
  xs_.insert(xs_.end(), other.xs_.begin(), other.xs_.end());
}

double Samples::sum() const { return std::accumulate(xs_.begin(), xs_.end(), 0.0); }

double Samples::mean() const {
  if (xs_.empty()) throw std::domain_error("mean of an empty sample");
  return sum() / static_cast<double>(xs_.size());
}

double Samples::max() const {
  if (xs_.empty()) throw std::domain_error("max of an empty sample");
  return *std::max_element(xs_.begin(), xs_.end());
}

bool Samples::supports(double p) const {
  if (!(p > 0.0 && p < 100.0) || xs_.empty()) return false;
  return xs_.size() - nearest_rank(p, xs_.size()) >= kMinBeyond;
}

Percentile Samples::percentile(double p) const {
  if (!(p > 0.0 && p < 100.0)) {
    throw std::domain_error("percentile must lie in (0, 100)");
  }
  const std::size_t n = xs_.size();
  if (n == 0 || !supports(p)) {
    throw std::domain_error("p" + std::to_string(p) + " needs " +
                            std::to_string(kMinBeyond) +
                            " samples beyond it; have " + std::to_string(n) +
                            " samples in all");
  }
  const std::size_t rank = nearest_rank(p, n);
  std::vector<double> sorted = xs_;
  std::nth_element(sorted.begin(), sorted.begin() + static_cast<long>(rank - 1),
                   sorted.end());
  return Percentile{sorted[rank - 1], n, n - rank};
}

std::vector<Samples> by_window(const std::vector<double>& at_s,
                               const std::vector<double>& values,
                               double start_s, double window_s,
                               std::size_t count) {
  if (at_s.size() != values.size() || !(window_s > 0.0)) {
    throw std::invalid_argument("by_window: mismatched input");
  }
  std::vector<Samples> out(count);
  for (std::size_t i = 0; i < values.size(); ++i) {
    const double k = std::floor((at_s[i] - start_s) / window_s);
    if (k >= 0.0 && k < static_cast<double>(count)) {
      out[static_cast<std::size_t>(k)].add(values[i]);
    }
  }
  return out;
}

double median_of(std::vector<double> v) {
  if (v.empty()) throw std::domain_error("median of nothing");
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

std::string with_count(double value, std::size_t samples) {
  char buf[96];
  std::snprintf(buf, sizeof buf, "%.6g (n=%zu)", value, samples);
  return buf;
}

}  // namespace perfbench
