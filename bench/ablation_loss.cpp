// ABL-LOSS — the paper's stated future work: "the hardware efficiency
// impacts of other hyperparameters like loss functions".  Trains the same
// model under rate cross-entropy and count-MSE losses and compares
// accuracy, firing rate, and mapped hardware efficiency.  Count-MSE pins
// the correct class to a target firing fraction, which regularizes output
// activity — a different accuracy/sparsity trade-off than CE.
#include <iostream>

#include "core/cli.h"
#include "core/table.h"
#include "exp/report.h"
#include "exp/standard_flags.h"
#include "exp/sweep.h"

using namespace spiketune;

int main(int argc, char** argv) {
  CliFlags flags;
  flags.declare("preset", "smoke", "experiment scale: smoke | fast | paper");
  exp::declare_standard_flags(flags, exp::DriverKind::kTrain);
  return run_main(flags, argc, argv, [&] {
    auto base = exp::ExperimentConfig::for_profile(
        exp::profile_by_name(flags.get("preset")));
    base.model.lif.surrogate = snn::Surrogate::fast_sigmoid(0.25f);
    base.trainer.epochs = std::max<std::int64_t>(base.trainer.epochs, 8);
    const auto std_flags = exp::apply_standard_flags(
        flags, exp::DriverKind::kTrain, base, argc, argv);

    std::cout << "== ABL-LOSS: loss function ablation (preset="
              << flags.get("preset") << ") ==\n";
    const std::vector<std::string> losses{"rate_ce", "count_mse"};
    std::vector<exp::SweepSpec> specs;
    for (const auto& loss : losses)
      specs.push_back({loss, [loss](exp::ExperimentConfig& cfg) {
                         cfg.loss = loss;
                       }});
    const auto points = exp::run_sweep(base, specs, exp::print_progress);

    AsciiTable table({"loss", "train acc", "test acc", "fire-rate",
                      "latency", "FPS/W"});
    table.set_title("same topology/hyperparameters, two losses");
    for (std::size_t i = 0; i < points.size(); ++i) {
      const auto& r = points[i].result;
      table.add_row(exp::point_row(
          {losses[i]}, points[i],
          {fmt_pct(r.final_train_accuracy, 1), fmt_pct(r.accuracy, 1),
           fmt_pct(r.firing_rate, 2), fmt_f(r.latency_us, 1) + "us",
           fmt_f(r.fps_per_watt, 1)}));
    }
    table.print(std::cout);
    std::cout << exp::failure_note(points);
    return 0;
  });
}
