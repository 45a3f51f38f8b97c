// Accelerator facade: one-call "model-to-hardware mapping".
//
// Bundles workload extraction, PE allocation, the analytic performance
// model, and (optionally) event-simulator validation into a single report —
// the hardware half of every experiment in the paper.  The run ledger maps
// the model after every epoch too (analytic only) and records
// projection_values of the report, so the end-of-run report and the
// trajectory's last point come from one pipeline.
#pragma once

#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "hw/event_sim.h"
#include "hw/perf_model.h"
#include "snn/network.h"

namespace spiketune::hw {

struct AcceleratorConfig {
  FpgaDevice device = kintex_ultrascale_plus_ku5p();
  AllocationPolicy policy = AllocationPolicy::kBalanced;
  ComputeMode mode = ComputeMode::kEventDriven;
};

struct MappingReport {
  std::vector<LayerWorkload> workloads;
  Allocation allocation;
  PerfReport perf;
  /// Present when map() was asked to cross-check with the event simulator.
  std::optional<EventSimResult> event_sim;

  /// Multi-line human-readable summary (per-layer table + totals).
  std::string summary() const;
};

class Accelerator {
 public:
  explicit Accelerator(AcceleratorConfig config = {});

  /// Maps a trained network given measured activity.  `timesteps` is the
  /// inference window length T.  When `validate_with_sim` is set, a
  /// synthetic binomial trace (seeded deterministically) is replayed through
  /// the cycle-level simulator and attached to the report.
  MappingReport map(const snn::SpikingNetwork& net,
                    const snn::SpikeRecord& record, std::int64_t timesteps,
                    bool validate_with_sim = false) const;

  const AcceleratorConfig& config() const { return config_; }

 private:
  AcceleratorConfig config_;
};

/// Flattens a report into the run ledger's `hw` pairs:
/// stage_cycles, latency_us, throughput_fps, watts, fps_per_watt, total_pes.
std::vector<std::pair<std::string, double>> projection_values(
    const MappingReport& report);

}  // namespace spiketune::hw
