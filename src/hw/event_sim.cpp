#include "hw/event_sim.h"

#include <algorithm>
#include <cmath>
#include <string>

#include "core/error.h"
#include "hw/calibration.h"
#include "obs/metrics.h"
#include "obs/profiler.h"

namespace spiketune::hw {

EventSimConfig EventSimConfig::from(
    const std::vector<LayerWorkload>& workloads, const Allocation& alloc,
    const FpgaDevice& device) {
  ST_REQUIRE(workloads.size() == alloc.pes_per_layer.size(),
             "allocation does not match workloads");
  EventSimConfig cfg;
  cfg.clock_hz = device.clock_hz;
  cfg.pes = alloc.pes_per_layer;
  cfg.fanout.reserve(workloads.size());
  cfg.neurons.reserve(workloads.size());
  for (const auto& w : workloads) {
    cfg.fanout.push_back(w.fanout);
    cfg.neurons.push_back(w.neurons);
  }
  return cfg;
}

namespace {
/// Cycles group `l` needs to process `events` input events in one tick.
double group_cycles(const EventSimConfig& cfg, std::size_t l,
                    std::int64_t events) {
  const std::int64_t pes = cfg.pes[l];
  const std::int64_t fanout = cfg.fanout[l];
  // Dispatch: bounded pop bandwidth from the event queue.
  const double dispatch =
      std::ceil(static_cast<double>(events) /
                static_cast<double>(std::min(calib::kDispatchPorts, pes)));
  // MAC phase: each event is broadcast to the group and its fanout MACs
  // are spread across the lanes (output-parallel), so the group retires
  // pes MACs per cycle until the tick's synaptic work drains.
  const double mac = std::ceil(static_cast<double>(events) *
                               static_cast<double>(fanout) /
                               static_cast<double>(pes));
  // Neuron update phase: one neuron per lane per cycle.
  const double update = std::ceil(static_cast<double>(cfg.neurons[l]) /
                                  static_cast<double>(pes));
  return calib::kStageOverheadCycles + std::max(dispatch, mac) + update;
}
}  // namespace

EventSimResult simulate_inference(const EventSimConfig& config,
                                  const SpikeTrace& trace) {
  ST_PROF_SCOPE("event_sim.inference");
  const std::size_t layers = config.pes.size();
  ST_REQUIRE(layers > 0, "event sim needs at least one layer group");
  ST_REQUIRE(config.fanout.size() == layers && config.neurons.size() == layers,
             "event sim config arity mismatch");
  for (std::size_t l = 0; l < layers; ++l)
    ST_REQUIRE(config.pes[l] > 0 && config.fanout[l] > 0,
               "PEs and fanout must be positive");
  ST_REQUIRE(!trace.empty(), "empty spike trace");

  EventSimResult res;
  res.layer_busy_cycles.assign(layers, 0.0);
  std::vector<std::int64_t> layer_events(layers, 0);
  std::int64_t total_events = 0;

  for (const auto& step : trace) {
    ST_REQUIRE(step.size() == layers, "trace arity mismatch");
    double tick = 0.0;
    for (std::size_t l = 0; l < layers; ++l) {
      ST_REQUIRE(step[l] >= 0, "negative spike count in trace");
      layer_events[l] += step[l];
      total_events += step[l];
      const double c = group_cycles(config, l, step[l]);
      res.layer_busy_cycles[l] += c - calib::kStageOverheadCycles;
      tick = std::max(tick, c);
    }
    res.total_cycles += tick;
  }

  if (obs::metrics_enabled()) {
    static const obs::MetricId kInferences = obs::counter("event_sim.inferences");
    static const obs::MetricId kEvents = obs::counter("event_sim.events");
    static const obs::MetricId kCycles = obs::counter("event_sim.cycles");
    obs::add(kInferences);
    obs::add(kEvents, total_events);
    obs::add(kCycles, static_cast<std::int64_t>(res.total_cycles));
    for (std::size_t l = 0; l < layers; ++l) {
      const std::string tag = "event_sim.layer" + std::to_string(l);
      obs::add(obs::counter(tag + ".busy_cycles"),
               static_cast<std::int64_t>(res.layer_busy_cycles[l]));
      obs::add(obs::counter(tag + ".events"), layer_events[l]);
    }
  }

  const auto t = static_cast<double>(trace.size());
  const auto l = static_cast<double>(layers);
  res.mean_stage_cycles = res.total_cycles / t;
  res.layer_utilization.resize(layers);
  for (std::size_t i = 0; i < layers; ++i)
    res.layer_utilization[i] =
        res.layer_busy_cycles[i] / std::max(1.0, res.total_cycles);
  // Pipelined latency: the fill adds (L - 1) mean ticks.
  res.latency_s =
      (res.total_cycles + (l - 1.0) * res.mean_stage_cycles) /
      config.clock_hz;
  res.throughput_fps = config.clock_hz / res.total_cycles;
  return res;
}

SpikeTrace random_trace(const std::vector<LayerWorkload>& workloads,
                        std::int64_t timesteps, Rng& rng) {
  ST_REQUIRE(timesteps > 0, "timesteps must be positive");
  SpikeTrace trace(static_cast<std::size_t>(timesteps),
                   std::vector<std::int64_t>(workloads.size(), 0));
  for (auto& step : trace) {
    for (std::size_t l = 0; l < workloads.size(); ++l) {
      const double density = workloads[l].input_density();
      const std::int64_t n = workloads[l].input_size;
      // Binomial(n, density) via normal approximation for large n, exact
      // Bernoulli sum for small n.
      if (n > 256) {
        const double mean = static_cast<double>(n) * density;
        const double sd = std::sqrt(mean * std::max(0.0, 1.0 - density));
        const double draw = rng.normal(mean, sd);
        step[l] = std::clamp<std::int64_t>(
            static_cast<std::int64_t>(std::lround(draw)), 0, n);
      } else {
        std::int64_t count = 0;
        for (std::int64_t i = 0; i < n; ++i) count += rng.bernoulli(density);
        step[l] = count;
      }
    }
  }
  return trace;
}

}  // namespace spiketune::hw
