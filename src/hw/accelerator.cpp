#include "hw/accelerator.h"

#include <sstream>

#include "core/table.h"

namespace spiketune::hw {

Accelerator::Accelerator(AcceleratorConfig config)
    : config_(std::move(config)) {}

MappingReport Accelerator::map(const snn::SpikingNetwork& net,
                               const snn::SpikeRecord& record,
                               std::int64_t timesteps,
                               bool validate_with_sim) const {
  MappingReport report;
  report.workloads = extract_workloads(net, record, timesteps);
  report.allocation =
      allocate(report.workloads, config_.device, config_.policy);
  report.perf = analyze(report.workloads, report.allocation, config_.device,
                        timesteps, config_.mode);
  if (validate_with_sim) {
    Rng rng(0x51badc0deULL);
    const SpikeTrace trace = random_trace(report.workloads, timesteps, rng);
    const EventSimConfig sim_cfg =
        EventSimConfig::from(report.workloads, report.allocation,
                             config_.device);
    report.event_sim = simulate_inference(sim_cfg, trace);
  }
  return report;
}

std::vector<std::pair<std::string, double>> projection_values(
    const MappingReport& report) {
  const PerfReport& perf = report.perf;
  return {
      {"stage_cycles", perf.stage_cycles},
      {"latency_us", perf.latency_s * 1e6},
      {"throughput_fps", perf.throughput_fps},
      {"watts", perf.power.total()},
      {"fps_per_watt", perf.fps_per_watt},
      {"total_pes", static_cast<double>(report.allocation.total_pes)},
  };
}

std::string MappingReport::summary() const {
  std::ostringstream os;
  AsciiTable table({"layer", "fanout", "neurons", "in-density", "synops/step",
                    "PEs", "cycles/step", "util"});
  table.set_title("model-to-hardware mapping (" +
                  std::string(policy_name(allocation.policy)) + ", " +
                  std::string(mode_name(perf.mode)) + ")");
  for (std::size_t i = 0; i < workloads.size(); ++i) {
    const auto& w = workloads[i];
    const auto& lp = perf.layers[i];
    table.add_row({w.name, std::to_string(w.fanout),
                   std::to_string(w.neurons), fmt_pct(w.input_density(), 1),
                   fmt_si(lp.synops_per_step, 1),
                   std::to_string(lp.pes), fmt_f(lp.cycles_per_step, 0),
                   fmt_pct(lp.utilization, 1)});
  }
  os << table.render();
  os << "stage=" << fmt_f(perf.stage_cycles, 0)
     << " cyc  latency=" << fmt_f(perf.latency_s * 1e6, 1)
     << " us  throughput=" << fmt_f(perf.throughput_fps, 1)
     << " FPS  power=" << fmt_f(perf.power.total(), 2)
     << " W  efficiency=" << fmt_f(perf.fps_per_watt, 1) << " FPS/W\n";
  if (event_sim) {
    os << "event-sim: stage=" << fmt_f(event_sim->mean_stage_cycles, 0)
       << " cyc  latency=" << fmt_f(event_sim->latency_s * 1e6, 1)
       << " us  throughput=" << fmt_f(event_sim->throughput_fps, 1)
       << " FPS\n";
  }
  return os.str();
}

}  // namespace spiketune::hw
