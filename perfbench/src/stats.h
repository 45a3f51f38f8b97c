// Sample statistics and open-loop schedule helpers.
#pragma once

#include <cstdint>
#include <vector>

namespace perfbench {

/// Median of `values` (mean of the two middle values for an even count);
/// 0 when empty.  Takes a copy because it sorts.
double median(std::vector<double> values);

/// One nearest-rank percentile of a sample, with the counts that say how
/// much to trust it.
struct Percentile {
  double q = 0.0;             // the quantile, e.g. 0.99
  double value = 0.0;
  std::int64_t samples = 0;   // sample size
  std::int64_t beyond = 0;    // samples strictly ranked above this one
};

/// Nearest-rank percentile (spiketune::percentile_sorted) of an ascending
/// sample, with its sample and beyond counts.
Percentile percentile_of(const std::vector<double>& sorted, double q);

/// The highest of p99.99, p99.9, p99, p90 and p50 that has at least
/// `min_beyond` samples ranked beyond it: the tail a sample of this size
/// supports.  Falls back to p50 for tiny samples.
Percentile supported_tail(const std::vector<double>& sorted,
                          std::int64_t min_beyond = 10);

/// Send schedule of one open-loop lane.  `lanes` lanes share `rate_per_s`
/// and are phase-staggered, so send i of lane l is due at
/// start + (i * lanes + l) / rate: together they form one evenly spaced
/// stream.  The schedule never looks at completions, so a stall delays
/// nothing but the measured latencies.
struct OpenLoopSchedule {
  std::int64_t start_ns = 0;
  double rate_per_s = 1.0;
  int lanes = 1;
  int lane = 0;

  std::int64_t due_ns(std::int64_t i) const;
};

/// Latency of a request timed from when it was due, not from when it was
/// sent, so generator lateness and head-of-line stalls are counted.
double ms_from_due(std::int64_t due_ns, std::int64_t done_ns);

/// How late the generator sent a request (0 when on time or early).
std::int64_t lateness_ns(std::int64_t due_ns, std::int64_t sent_ns);

}  // namespace perfbench
