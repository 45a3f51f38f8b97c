// Named metrics and the one-line JSON result the benchmark prints last.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

/// A metric name is 1-64 characters of [A-Za-z0-9_.-] starting with a
/// letter or digit, so every name is a stable key in BENCHMARK.json.
bool valid_metric_name(std::string_view name);

/// A unit is 1-16 characters of [A-Za-z0-9_/%.-] ("ms", "1/s", "count").
bool valid_unit(std::string_view unit);

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// An ordered set of metrics.  add() rejects a malformed name or unit, a
/// duplicate name, and a non-finite value by throwing std::invalid_argument:
/// a NaN throughput is a benchmark bug, never a result.
class Report {
 public:
  void add(const std::string& name, double value, const std::string& unit);
  const std::vector<Metric>& metrics() const { return metrics_; }
  bool has(std::string_view name) const;

 private:
  std::vector<Metric> metrics_;
};

/// The result line: {"correct": ..., "attempted": ..., "failed": ...,
/// "metrics": {"<name>": {"value": <v>, "unit": "<u>"}, ...}} with every
/// value printed to full double precision.
std::string result_json(bool correct, std::int64_t attempted,
                        std::int64_t failed, const Report& report);

}  // namespace perfbench
