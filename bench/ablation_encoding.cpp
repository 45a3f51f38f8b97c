// ABL-ENC — the paper's introduction notes that "the primary driving factor
// in the formation of the sparsity characteristic is the input coding
// scheme".  This ablation trains the same model under the three encoders
// (direct / rate / latency) and reports accuracy, firing rate, and mapped
// hardware efficiency, quantifying that claim within spiketune.
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

    std::cout << "== ABL-ENC: input coding scheme ablation (preset="
              << flags.get("preset") << ") ==\n";
    const std::vector<std::string> encoders{"direct", "rate", "latency"};
    std::vector<exp::SweepSpec> specs;
    for (const auto& enc : encoders) {
      specs.push_back({enc, [enc](exp::ExperimentConfig& cfg) {
                         cfg.encoder = enc;
                         // Rate/latency coding needs [0,1] intensities, not
                         // standardized ones; boost init so binary inputs
                         // can drive the stack (see model_zoo).
                         if (enc != "direct") {
                           cfg.normalize = false;
                           cfg.model.init_gain = 2.5f;
                         }
                       }});
    }
    const auto points = exp::run_sweep(base, specs, exp::print_progress);

    AsciiTable table({"encoder", "train acc", "test acc", "fire-rate",
                      "latency", "FPS/W"});
    table.set_title("same topology/hyperparameters, three input codings");
    for (std::size_t i = 0; i < points.size(); ++i) {
      const auto& r = points[i].result;
      table.add_row(exp::point_row(
          {encoders[i]}, points[i],
          {fmt_pct(r.final_train_accuracy, 1), fmt_pct(r.accuracy, 1),
           fmt_pct(r.firing_rate, 2), fmt_f(r.latency_us, 1) + "us",
           fmt_f(r.fps_per_watt, 1)}));
    }
    table.print(std::cout);
    std::cout << exp::failure_note(points);
    return 0;
  });
}
