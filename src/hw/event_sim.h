// Cycle-level event-driven simulator of the lock-step accelerator.
//
// Where the analytic model (perf_model.h) charges *average* spike counts,
// this simulator replays an actual spike trace tick by tick:
//   * each lock-step tick t, layer group l receives the recorded number of
//     input events for timestep t;
//   * events are dispatched to the group's PE lanes through
//     calib::kDispatchPorts dispatch ports (ceil(events / ports) dispatch
//     cycles) — a structural bound the analytic model does not charge;
//   * each event is broadcast to the group and its fanout MACs are spread
//     across the lanes (output-parallel), so the MAC phase drains at
//     pes MACs/cycle: ceil(events * fanout / pes) cycles;
//   * after the queue drains, the group updates its neurons (one neuron per
//     lane per cycle);
//   * the tick closes when the slowest group finishes (lock-step barrier).
//
// The simulator therefore captures temporal burstiness (per-tick maxima
// instead of means) and the dispatch-bandwidth bound that the analytic
// mean-value model ignores; VAL-SIM (tests + bench) checks the two agree
// within a documented envelope on realistic traces.
#pragma once

#include <cstdint>
#include <vector>

#include "core/rng.h"
#include "hw/allocate.h"
#include "hw/fpga.h"
#include "hw/workload.h"

namespace spiketune::hw {

struct EventSimConfig {
  std::vector<std::int64_t> pes;      // lanes per layer group
  std::vector<std::int64_t> fanout;   // MACs per event, per layer
  std::vector<std::int64_t> neurons;  // neuron updates per tick, per layer
  double clock_hz = 200e6;

  /// Builds a config from a mapped model.
  static EventSimConfig from(const std::vector<LayerWorkload>& workloads,
                             const Allocation& alloc,
                             const FpgaDevice& device);
};

/// One inference's trace: spikes[t][l] = input events entering layer group l
/// at timestep t (for a single sample).
using SpikeTrace = std::vector<std::vector<std::int64_t>>;

struct EventSimResult {
  double total_cycles = 0.0;            // whole window, lock-step ticks summed
  double mean_stage_cycles = 0.0;       // total_cycles / T
  std::vector<double> layer_busy_cycles;  // MAC+update cycles per group
  std::vector<double> layer_utilization;  // busy / total
  double latency_s = 0.0;               // (T + L - 1) ticks pipelined
  double throughput_fps = 0.0;          // back-to-back streaming
};

/// Replays one inference trace through the machine.
EventSimResult simulate_inference(const EventSimConfig& config,
                                  const SpikeTrace& trace);

/// Draws a synthetic binomial trace: layer l receives
/// Binomial(input_size_l, density_l) events per step.
SpikeTrace random_trace(const std::vector<LayerWorkload>& workloads,
                        std::int64_t timesteps, Rng& rng);

}  // namespace spiketune::hw
