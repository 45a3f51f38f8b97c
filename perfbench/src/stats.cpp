#include "stats.h"

#include <algorithm>
#include <cmath>

#include "core/stats.h"

namespace perfbench {

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

Percentile percentile_of(const std::vector<double>& sorted, double q) {
  Percentile p;
  p.q = q;
  p.samples = static_cast<std::int64_t>(sorted.size());
  if (sorted.empty()) return p;
  p.value = spiketune::percentile_sorted(sorted, q);
  // Same rank rule as percentile_sorted: rank = ceil(q * n), 1-based.
  const auto rank = std::max<std::int64_t>(
      1, static_cast<std::int64_t>(
             std::ceil(q * static_cast<double>(sorted.size()))));
  p.beyond = p.samples - std::min(rank, p.samples);
  return p;
}

Percentile supported_tail(const std::vector<double>& sorted,
                          std::int64_t min_beyond) {
  for (double q : {0.9999, 0.999, 0.99, 0.9}) {
    const Percentile p = percentile_of(sorted, q);
    if (p.beyond >= min_beyond) return p;
  }
  return percentile_of(sorted, 0.5);
}

std::int64_t OpenLoopSchedule::due_ns(std::int64_t i) const {
  const double slot = static_cast<double>(i) * lanes + lane;
  return start_ns + std::llround(slot * 1e9 / rate_per_s);
}

double ms_from_due(std::int64_t due_ns, std::int64_t done_ns) {
  return static_cast<double>(done_ns - due_ns) * 1e-6;
}

std::int64_t lateness_ns(std::int64_t due_ns, std::int64_t sent_ns) {
  return std::max<std::int64_t>(0, sent_ns - due_ns);
}

}  // namespace perfbench
