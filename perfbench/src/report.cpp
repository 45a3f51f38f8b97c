#include "report.h"

#include <cmath>
#include <cstdio>
#include <stdexcept>

namespace perfbench {

namespace {

bool alnum(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
         (c >= '0' && c <= '9');
}

}  // namespace

bool valid_metric_name(std::string_view name) {
  if (name.empty() || name.size() > 64 || !alnum(name.front())) return false;
  for (char c : name)
    if (!alnum(c) && c != '_' && c != '.' && c != '-') return false;
  return true;
}

bool valid_unit(std::string_view unit) {
  if (unit.empty() || unit.size() > 16) return false;
  for (char c : unit)
    if (!alnum(c) && c != '_' && c != '/' && c != '%' && c != '.' &&
        c != '-')
      return false;
  return true;
}

void Report::add(const std::string& name, double value,
                 const std::string& unit) {
  if (!valid_metric_name(name))
    throw std::invalid_argument("bad metric name: '" + name + "'");
  if (!valid_unit(unit))
    throw std::invalid_argument("bad unit for " + name + ": '" + unit + "'");
  if (has(name)) throw std::invalid_argument("duplicate metric: " + name);
  if (!std::isfinite(value))
    throw std::invalid_argument("non-finite value for metric " + name);
  metrics_.push_back({name, value, unit});
}

bool Report::has(std::string_view name) const {
  for (const Metric& m : metrics_)
    if (m.name == name) return true;
  return false;
}

std::string result_json(bool correct, std::int64_t attempted,
                        std::int64_t failed, const Report& report) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  bool first = true;
  for (const Metric& m : report.metrics()) {
    char value[40];
    std::snprintf(value, sizeof(value), "%.17g", m.value);
    if (!first) out += ", ";
    first = false;
    // Names and units are validated to need no JSON escaping.
    out += "\"" + m.name + "\": {\"value\": " + value + ", \"unit\": \"" +
           m.unit + "\"}";
  }
  out += "}}";
  return out;
}

}  // namespace perfbench
