// Hardware mapping walkthrough: train one model, then explore how it maps
// onto different FPGA devices and allocation policies, cross-checking the
// analytic model with the cycle-level event simulator — the workflow an
// accelerator designer would use spiketune for.
#include <iostream>

#include "core/cli.h"
#include "core/table.h"
#include "exp/experiment.h"
#include "exp/standard_flags.h"
#include "hw/baseline.h"

using namespace spiketune;

int main(int argc, char** argv) {
  CliFlags flags;
  flags.declare("preset", "smoke", "experiment scale: smoke | fast | paper");
  exp::declare_standard_flags(flags, exp::DriverKind::kTrain);
  return run_main(flags, argc, argv, [&] {
    auto cfg = exp::ExperimentConfig::for_profile(
        exp::profile_by_name(flags.get("preset")));
    cfg.model.lif.surrogate = snn::Surrogate::fast_sigmoid(0.25f);
    cfg.validate_with_sim = true;
    const auto std_flags = exp::apply_standard_flags(
        flags, exp::DriverKind::kTrain, cfg, argc, argv);
    cfg.ledger.run_id = "hardware_mapping";

    std::cout << "training the model once...\n" << std::flush;
    const auto r = exp::run_experiment(cfg);
    std::cout << "test accuracy " << fmt_pct(r.accuracy, 2) << ", firing rate "
              << fmt_pct(r.firing_rate, 2) << "\n\n";

    // The default mapping, with the event-sim cross-check attached.
    std::cout << r.mapping.summary() << "\n";

    // Sweep devices: how does the same model scale across the family?
    AsciiTable dev_table({"device", "PEs", "latency", "FPS", "W", "FPS/W"});
    dev_table.set_title("same model across Kintex UltraScale+ parts");
    for (const char* name : {"ku3p", "ku5p", "ku15p"}) {
      const auto device = hw::device_by_name(name);
      const auto alloc = hw::allocate(r.mapping.workloads, device,
                                      hw::AllocationPolicy::kBalanced);
      const auto perf =
          hw::analyze(r.mapping.workloads, alloc, device,
                      cfg.trainer.num_steps, hw::ComputeMode::kEventDriven);
      dev_table.add_row({device.name, std::to_string(alloc.total_pes),
                         fmt_f(perf.latency_s * 1e6, 1) + "us",
                         fmt_f(perf.throughput_fps, 0),
                         fmt_f(perf.power.total(), 2),
                         fmt_f(perf.fps_per_watt, 1)});
    }
    dev_table.print(std::cout);

    // And against the dense (sparsity-oblivious) baseline.
    const auto dense = hw::analyze_dense_baseline(
        r.mapping.workloads, cfg.accel.device, cfg.trainer.num_steps);
    std::cout << "\nsparsity-aware vs dense baseline on "
              << cfg.accel.device.name << ": "
              << fmt_x(r.fps_per_watt / dense.fps_per_watt, 2)
              << " FPS/W advantage\n";
    return 0;
  });
}
