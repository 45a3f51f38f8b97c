// Training/evaluation metric aggregation.
#pragma once

#include <cstdint>
#include <vector>

#include "obs/metrics.h"
#include "snn/spike_stats.h"

namespace spiketune::train {

/// Running mean of a scalar (loss, accuracy).
class RunningMean {
 public:
  void add(double value, std::int64_t weight = 1);
  double mean() const;
  /// Like mean(), but returns `fallback` instead of throwing when empty.
  double mean_or(double fallback) const;
  std::int64_t count() const { return count_; }
  void reset();

 private:
  double sum_ = 0.0;
  std::int64_t count_ = 0;
};

/// Wall-time distribution of a repeated phase (epoch, batch, inference),
/// backed by the observability log-scale histogram so the trainer's summary
/// and the profiler agree on bucket math.  Samples are recorded in
/// microseconds internally; accessors return seconds.
class LatencySummary {
 public:
  void record_seconds(double seconds);
  std::int64_t count() const { return hist_.count(); }
  double mean_seconds() const;
  double p50_seconds() const { return hist_.quantile(0.5) * 1e-6; }
  double p95_seconds() const { return hist_.quantile(0.95) * 1e-6; }
  double max_seconds() const { return hist_.max_seen() * 1e-6; }
  const obs::LogHistogram& histogram() const { return hist_; }
  void reset() { hist_.reset(); }

 private:
  obs::LogHistogram hist_;
};

struct EpochMetrics {
  double train_loss = 0.0;
  double train_accuracy = 0.0;
  double lr = 0.0;
  /// Gradient L2-norm stats over the epoch's healthy batches, measured by
  /// the numerical health pass; 0 when no batch of the epoch was healthy.
  double grad_norm_mean = 0.0;
  double grad_norm_max = 0.0;
  std::int64_t epoch = 0;
};

struct EvalMetrics {
  double loss = 0.0;
  double accuracy = 0.0;
  /// Mean output-spike firing rate across all spiking layers.
  double firing_rate = 0.0;
  /// Accumulated per-layer activity for the hardware workload extractor.
  snn::SpikeRecord record;
  std::int64_t num_examples = 0;
};

}  // namespace spiketune::train
