#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <string>
#include <utility>
#include <vector>

/// Exact sample statistics and the result line the benchmark prints.
namespace perfbench {

/// Quantile `q` in [0, 1] of the raw samples, interpolating linearly
/// between order statistics; 0 for an empty sample.
[[nodiscard]] inline double quantile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double pos = q * static_cast<double>(samples.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, samples.size() - 1);
  return samples[lo] + (pos - static_cast<double>(lo)) * (samples[hi] - samples[lo]);
}

[[nodiscard]] inline double median(std::vector<double> samples) {
  return quantile(std::move(samples), 0.5);
}

[[nodiscard]] inline double mean(const std::vector<double>& samples) {
  if (samples.empty()) return 0.0;
  double sum = 0.0;
  for (const double x : samples) sum += x;
  return sum / static_cast<double>(samples.size());
}

struct Metric {
  std::string name;
  double value{0.0};
  std::string unit;
  std::size_t samples{0};  ///< how many raw samples the value summarizes
};

/// Peak resident set size of this process in MiB.
[[nodiscard]] double peak_rss_mb();

/// Prints one human-readable metric line with its sample count.
void print_metric(const Metric& metric);

/// Prints print_metric() for every metric, then the result object as the
/// last line of standard output.
void print_result(bool correct, std::size_t attempted, std::size_t failed,
                  const std::vector<Metric>& metrics);

}  // namespace perfbench
