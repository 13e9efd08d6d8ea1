// Sample statistics and the metric table the benchmark prints.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

inline double median(std::vector<double> v) {
  if (v.empty()) return std::nan("");
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

/// Nearest-rank q-quantile, or NaN unless at least `min_beyond` samples lie
/// above it (a percentile is reported only with ten samples beyond it).
inline double percentile(std::vector<double> v, double q, std::size_t min_beyond = 10) {
  if (v.empty()) return std::nan("");
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(v.size())));
  const std::size_t idx = rank == 0 ? 0 : rank - 1;
  if (v.size() - 1 - idx < min_beyond) return std::nan("");
  return v[idx];
}

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  long samples = 0;  ///< samples the value summarizes (1 for exact counts)
};

/// Ordered set of named metrics; printed as a table and as one JSON object.
class MetricSet {
 public:
  void put(std::string name, double value, std::string unit, long samples = 1) {
    metrics_.push_back({std::move(name), value, std::move(unit), samples});
  }
  const std::vector<Metric>& all() const { return metrics_; }

  void print_table(const char* title) const {
    std::printf("%s\n", title);
    for (const Metric& m : metrics_) {
      if (std::isnan(m.value))
        std::printf("  %-28s %14s %-6s (%ld samples; too few for this statistic)\n",
                    m.name.c_str(), "n/a", m.unit.c_str(), m.samples);
      else
        std::printf("  %-28s %14.6g %-6s (n = %ld)\n", m.name.c_str(), m.value, m.unit.c_str(),
                    m.samples);
    }
  }

  /// {"name": {"value": v, "unit": u, "samples": n}, ...}; NaN is omitted.
  std::string json() const {
    std::string out = "{";
    bool first = true;
    for (const Metric& m : metrics_) {
      if (std::isnan(m.value)) continue;
      char buf[96];
      std::snprintf(buf, sizeof buf, "%.17g", m.value);
      out += (first ? "\"" : ", \"") + m.name + "\": {\"value\": " + buf + ", \"unit\": \"" +
             m.unit + "\", \"samples\": " + std::to_string(m.samples) + "}";
      first = false;
    }
    return out + "}";
  }

 private:
  std::vector<Metric> metrics_;
};

}  // namespace perfbench
