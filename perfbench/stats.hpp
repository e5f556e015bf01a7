// Exact sample statistics and the JSON metric writer of the benchmark.
//
// Every per-event and per-record sample is kept in memory; quantiles are
// nearest-rank over the sorted samples, never read from a bucketed
// histogram (the service's power-of-two buckets cannot resolve a shift
// under 2x).
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// Nearest-rank quantile: the smallest sample with at least q * n samples
/// at or below it. Returns 0 for an empty set (callers print the count).
inline double nearest_rank(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(q * static_cast<double>(v.size()));
  const std::size_t i =
      rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  return v[std::min(i, v.size() - 1)];
}

/// Median: the middle sample, or the mean of the two middle ones. Returns 0
/// for an empty set.
inline double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t h = v.size() / 2;
  return v.size() % 2 == 1 ? v[h] : (v[h - 1] + v[h]) / 2.0;
}

/// Interquartile mean: the mean of the middle half of the sorted samples
/// (all of them when there are fewer than 4). Unlike a nearest-rank median
/// it moves smoothly when samples cluster on discrete steps, as windows
/// that end on a fixed-period poll do. Returns 0 for an empty set.
inline double interquartile_mean(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t cut = v.size() / 4;
  double s = 0.0;
  for (std::size_t i = cut; i < v.size() - cut; ++i) s += v[i];
  return s / static_cast<double>(v.size() - 2 * cut);
}

inline double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0.0;
  for (const double x : v) s += x;
  return s / static_cast<double>(v.size());
}

inline double ratio(double num, double den) {
  return den == 0.0 ? 0.0 : num / den;
}

/// Ordered list of named metrics with units, written as the "metrics"
/// object of the result line.
class MetricSet {
 public:
  void add(std::string name, double value, std::string unit) {
    items_.push_back({std::move(name), value, std::move(unit)});
  }

  std::string json() const {
    std::string out = "{";
    for (std::size_t i = 0; i < items_.size(); ++i) {
      char buf[64];
      std::snprintf(buf, sizeof buf, "%.17g", items_[i].value);
      if (i != 0) out += ", ";
      out += "\"" + items_[i].name + "\": {\"value\": " + buf +
             ", \"unit\": \"" + items_[i].unit + "\"}";
    }
    return out + "}";
  }

 private:
  struct Item {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Item> items_;
};

}  // namespace perfbench
