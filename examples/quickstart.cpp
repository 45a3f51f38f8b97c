// Quickstart: train a convolutional SNN with surrogate gradients on the
// synthetic SVHN dataset, evaluate it, and map it onto the modeled FPGA
// accelerator — the whole spiketune pipeline in ~40 lines of user code.
//
//   ./quickstart                 # seconds-scale demo
//   ./quickstart --preset=fast  # a properly trained model (~1 min)
//   ./quickstart --checkpoint-dir=ckpts --stop-after=1   # interrupt...
//   ./quickstart --checkpoint-dir=ckpts --resume         # ...and resume
#include <iostream>

#include "core/cli.h"
#include "core/table.h"
#include "exp/experiment.h"
#include "exp/standard_flags.h"

using namespace spiketune;

int main(int argc, char** argv) {
  CliFlags flags;
  flags.declare("preset", "smoke", "experiment scale: smoke | fast | paper");
  exp::declare_standard_flags(flags, exp::DriverKind::kTrain);
  return run_main(flags, argc, argv, [&] {
    // 1. Configure the experiment: the paper's 32C3-P2-32C3-MP2-256-10
    //    topology, LIF neurons (beta = 0.25, theta = 1.0), fast sigmoid
    //    surrogate, Adam + cosine annealing.
    auto cfg = exp::ExperimentConfig::for_profile(
        exp::profile_by_name(flags.get("preset")));
    cfg.model.lif.surrogate = snn::Surrogate::fast_sigmoid(0.25f);
    cfg.trainer.verbose = true;  // log per-epoch progress
    cfg.validate_with_sim = true;
    const auto std_flags = exp::apply_standard_flags(
        flags, exp::DriverKind::kTrain, cfg, argc, argv);
    cfg.ledger.run_id = "quickstart";

    std::cout << "training a spiking CNN (" << cfg.trainer.epochs
              << " epochs, T=" << cfg.trainer.num_steps << ", "
              << cfg.train_size << " images)...\n";

    // 2. Train, evaluate, and map to hardware in one call.
    const exp::ExperimentResult r = exp::run_experiment(cfg);

    // 3. Inspect the results.
    std::cout << "\ntest accuracy: " << fmt_pct(r.accuracy, 2)
              << "   firing rate: " << fmt_pct(r.firing_rate, 2)
              << "   (sparsity " << fmt_pct(r.sparsity, 2) << ")\n\n";
    std::cout << r.mapping.summary() << "\n";
    std::cout << "On the modeled Kintex UltraScale+ accelerator this model "
              << "runs at " << fmt_f(r.throughput_fps, 0) << " FPS, "
              << fmt_f(r.latency_us, 1) << " us/inference, "
              << fmt_f(r.watts, 2) << " W -> " << fmt_f(r.fps_per_watt, 1)
              << " FPS/W.\n";
    return 0;
  });
}
