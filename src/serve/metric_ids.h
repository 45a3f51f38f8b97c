// Interned metric handles for the serving stack, resolved once.
//
// The gauges, histograms and SLO counters are named here; the obs counters
// that mirror a serve/counters.h row (serve.requests, serve.batches, ...)
// are interned from that table's `obs` column, and the stage histograms
// from the obs/spans.h stage table.  Call serve_metric_ids() and index the
// struct: the first call interns, every later call is a
// function-local-static load.
#pragma once

#include <array>

#include "obs/metrics.h"
#include "obs/spans.h"
#include "serve/counters.h"

namespace spiketune::serve {

struct ServeMetricIds {
  // Queue depth and batch shape.
  obs::MetricId queue_depth = obs::kNoMetric;    // gauge: queued requests
  obs::MetricId batch_size = obs::kNoMetric;     // histogram: samples/batch
  // End-to-end and per-stage request latency (all microseconds).
  obs::MetricId request_us = obs::kNoMetric;     // histogram: recv -> send
  // serve.<stage>_us for each obs/spans.h stage, by stage.
  std::array<obs::MetricId, obs::kNumStages> stage_us{};
  // SLO accounting (see serve/slo.h).
  obs::MetricId slo_ok = obs::kNoMetric;         // counter: within target
  obs::MetricId slo_violations = obs::kNoMetric; // counter: over target
  obs::MetricId slo_burn = obs::kNoMetric;       // gauge: budget burn ratio
  // The obs counter of each serve/counters.h row, by row (kNoMetric when
  // the row names none); Server::bump() adds to it.
  std::array<obs::MetricId, kNumCounters> counters{};
};

inline const ServeMetricIds& serve_metric_ids() {
  static const ServeMetricIds ids = [] {
    ServeMetricIds m;
    m.queue_depth = obs::gauge("serve.queue_depth");
    m.batch_size = obs::histogram("serve.batch_size");
    m.request_us = obs::histogram("serve.request_us");
    for (std::size_t i = 0; i < obs::kNumStages; ++i)
      m.stage_us[i] = obs::histogram("serve." + obs::stage_key(i));
    m.slo_ok = obs::counter("serve.slo.ok");
    m.slo_violations = obs::counter("serve.slo.violations");
    m.slo_burn = obs::gauge("serve.slo.burn");
    for (std::size_t i = 0; i < kNumCounters; ++i) {
      const char* name = kCounterRows[i].obs;
      m.counters[i] = name != nullptr ? obs::counter(name) : obs::kNoMetric;
    }
    return m;
  }();
  return ids;
}

}  // namespace spiketune::serve
