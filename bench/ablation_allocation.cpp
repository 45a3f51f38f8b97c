// ABL-ALLOC — design-choice ablation called out in DESIGN.md: how much of
// the accelerator's throughput comes from the lock-step-balancing,
// sparsity-aware PE allocation (the paper's "model-to-hardware mapping")?
// Trains one model, then maps it with three allocation policies:
//   balanced-sparse  (the paper's scheme: minimax on measured activity)
//   balanced-dense   (minimax on layer sizes, sparsity-oblivious)
//   uniform          (equal PEs per layer)
// All three run event-driven compute, so differences isolate the mapping.
#include <iostream>

#include "core/cli.h"
#include "core/table.h"
#include "exp/experiment.h"
#include "exp/standard_flags.h"

using namespace spiketune;

int main(int argc, char** argv) {
  CliFlags flags;
  flags.declare("preset", "smoke",
                "experiment scale for the single training run");
  flags.declare("device", "ku5p", "FPGA device: ku3p | ku5p | ku15p");
  exp::declare_standard_flags(flags, exp::DriverKind::kTrain);
  return run_main(flags, argc, argv, [&] {
    auto base = exp::ExperimentConfig::for_profile(
        exp::profile_by_name(flags.get("preset")));
    base.accel.device = hw::device_by_name(flags.get("device"));
    base.model.lif.surrogate = snn::Surrogate::fast_sigmoid(0.25f);
    const auto std_flags = exp::apply_standard_flags(
        flags, exp::DriverKind::kTrain, base, argc, argv);
    base.ledger.run_id = "ablation_allocation";

    std::cout << "== ABL-ALLOC: PE allocation policy ablation (preset="
              << flags.get("preset") << ") ==\ntraining one model...\n"
              << std::flush;
    const auto trained = exp::run_experiment(base);
    const auto& workloads = trained.mapping.workloads;

    AsciiTable table(
        {"policy", "stage cyc", "latency", "FPS", "FPS/W", "PE split"});
    table.set_title("same trained model, three mappings (event-driven)");
    double balanced_fps = 0.0;
    for (auto policy :
         {hw::AllocationPolicy::kBalanced, hw::AllocationPolicy::kBalancedDense,
          hw::AllocationPolicy::kUniform}) {
      const auto alloc = hw::allocate(workloads, base.accel.device, policy);
      const auto perf =
          hw::analyze(workloads, alloc, base.accel.device,
                      base.trainer.num_steps, hw::ComputeMode::kEventDriven);
      if (policy == hw::AllocationPolicy::kBalanced)
        balanced_fps = perf.throughput_fps;
      std::string split;
      for (std::size_t i = 0; i < alloc.pes_per_layer.size(); ++i)
        split += (i ? "/" : "") + std::to_string(alloc.pes_per_layer[i]);
      table.add_row({hw::policy_name(policy), fmt_f(perf.stage_cycles, 0),
                     fmt_f(perf.latency_s * 1e6, 1) + "us",
                     fmt_f(perf.throughput_fps, 0),
                     fmt_f(perf.fps_per_watt, 1), split});
    }
    table.print(std::cout);

    const auto uniform =
        hw::analyze(workloads,
                    hw::allocate(workloads, base.accel.device,
                                 hw::AllocationPolicy::kUniform),
                    base.accel.device, base.trainer.num_steps,
                    hw::ComputeMode::kEventDriven);
    std::cout << "balanced-sparse vs uniform throughput: "
              << fmt_x(balanced_fps / uniform.throughput_fps, 2) << "\n";
    return 0;
  });
}
