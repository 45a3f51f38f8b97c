// Interned metric handles for the serving stack, resolved once.
//
// The gauges, histograms and non-table counters are named here; the obs
// counters that mirror a serve/counters.h row are interned from that
// table's `obs` column.  Call serve_metric_ids() and index the struct: the
// first call interns, every later call is a function-local-static load.
#pragma once

#include <array>

#include "obs/metrics.h"
#include "serve/counters.h"

namespace spiketune::serve {

struct ServeMetricIds {
  // Traffic and queue state.
  obs::MetricId requests = obs::kNoMetric;       // counter: responses sent
  obs::MetricId batches = obs::kNoMetric;        // counter: session runs
  obs::MetricId queue_depth = obs::kNoMetric;    // gauge: queued requests
  obs::MetricId batch_size = obs::kNoMetric;     // histogram: samples/batch
  // End-to-end and per-stage request latency (all microseconds).
  obs::MetricId request_us = obs::kNoMetric;     // histogram: admit -> done
  obs::MetricId queue_us = obs::kNoMetric;       // histogram: queue wait
  obs::MetricId assemble_us = obs::kNoMetric;    // histogram: batch packing
  obs::MetricId infer_us = obs::kNoMetric;       // histogram: kernel time
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
    m.requests = obs::counter("serve.requests");
    m.batches = obs::counter("serve.batches");
    m.queue_depth = obs::gauge("serve.queue_depth");
    m.batch_size = obs::histogram("serve.batch_size");
    m.request_us = obs::histogram("serve.request_us");
    m.queue_us = obs::histogram("serve.queue_us");
    m.assemble_us = obs::histogram("serve.assemble_us");
    m.infer_us = obs::histogram("serve.infer_us");
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
