#include "obs/spike_health.h"

#include <cstdio>

#include "obs/metrics.h"

namespace spiketune::obs {

namespace {

std::string format_density(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.4f", v);
  return buf;
}

}  // namespace

std::vector<LedgerWarning> SpikeHealthMonitor::check(
    std::int64_t epoch, const std::vector<LedgerLayerStat>& layers) {
  std::vector<LedgerWarning> fired;

  // The collapse detector tracks the running peak even during the warm-up so
  // an early strong epoch still anchors the baseline.
  double rate_sum = 0.0;
  std::int64_t rate_count = 0;
  for (const LedgerLayerStat& layer : layers) {
    if (!layer.spiking) continue;
    rate_sum += layer.out_density;
    ++rate_count;
  }
  const double mean_rate = rate_count > 0 ? rate_sum / rate_count : 0.0;

  auto fire = [&](const std::string& detector, const std::string& layer,
                  double value, double threshold, std::string message) {
    // Edge-triggered: report the transition into the bad state once, then
    // stay quiet until the condition clears.
    if (!active_.insert({detector, layer}).second) return;
    LedgerWarning w;
    w.epoch = epoch;
    w.detector = detector;
    w.layer = layer;
    w.value = value;
    w.threshold = threshold;
    w.message = std::move(message);
    fired.push_back(std::move(w));
    ++warning_count_;
    static const MetricId kDead = counter("train.spike_health.dead_layer");
    static const MetricId kSaturated =
        counter("train.spike_health.saturated_layer");
    static const MetricId kCollapse = counter("train.spike_health.collapse");
    if (detector == "dead_layer") add(kDead);
    else if (detector == "saturated_layer") add(kSaturated);
    else if (detector == "collapse") add(kCollapse);
  };
  auto clear = [&](const std::string& detector, const std::string& layer) {
    active_.erase({detector, layer});
  };

  if (epoch >= kSpikeHealthMinEpoch) {
    for (const LedgerLayerStat& layer : layers) {
      if (!layer.spiking) continue;
      // Layer names repeat (the paper topology has four layers named
      // "lif"); key and report by "<index>.<name>", the same unique id the
      // per-layer firing-rate gauges use.
      const std::string id = std::to_string(layer.index) + "." + layer.name;
      if (layer.out_density < kDeadOutputDensity) {
        fire("dead_layer", id, layer.out_density,
             kDeadOutputDensity,
             "layer '" + id + "' output density " +
                 format_density(layer.out_density) + " fell below " +
                 format_density(kDeadOutputDensity) +
                 "; no spikes -> no surrogate gradient");
      } else {
        clear("dead_layer", id);
      }
      if (layer.out_density > kSaturationDensity) {
        fire("saturated_layer", id, layer.out_density,
             kSaturationDensity,
             "layer '" + id + "' output density " +
                 format_density(layer.out_density) + " exceeded " +
                 format_density(kSaturationDensity) +
                 "; spikes carry no information and the workload is dense");
      } else {
        clear("saturated_layer", id);
      }
    }

    const double floor = peak_rate_ * (1.0 - kCollapseDrop);
    if (peak_rate_ > 0.0 && mean_rate < floor) {
      fire("collapse", "", mean_rate, floor,
           "mean firing rate " + format_density(mean_rate) +
               " dropped below " + format_density(floor) + " (peak " +
               format_density(peak_rate_) + "); network-wide activity collapse");
    } else if (mean_rate >= floor) {
      clear("collapse", "");
    }
  }

  if (mean_rate > peak_rate_) peak_rate_ = mean_rate;
  return fired;
}

}  // namespace spiketune::obs
