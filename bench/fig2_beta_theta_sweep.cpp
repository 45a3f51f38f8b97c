// FIG2 — reproduces Figure 2 of the paper: cross-sweep of beta (membrane
// leak) and theta (firing threshold) with the fast sigmoid surrogate at
// slope k = 0.25.  Prints the accuracy and latency matrices, identifies the
// latency knee (lowest latency within an accuracy budget of the best
// configuration), and reports the knee's latency cut / accuracy cost —
// the paper's "-48% latency for -2.88% accuracy" claim.  Writes fig2.csv.
//
// The default grid is a 4x4 subset covering all of the paper's operating
// points (defaults beta=0.25/theta=1.0; knee beta=0.5/theta=1.5; prior-work
// comparison beta=0.7/theta=1.5); pass --full for the canonical 5x5 grid.
#include <iostream>

#include "core/cli.h"
#include "exp/report.h"
#include "exp/standard_flags.h"
#include "exp/sweep.h"

using namespace spiketune;

int main(int argc, char** argv) {
  CliFlags flags;
  flags.declare("preset", "fast", "experiment scale: smoke | fast | paper");
  flags.declare("csv", "fig2.csv", "output CSV path (empty to skip)");
  flags.declare("device", "ku5p", "FPGA device: ku3p | ku5p | ku15p");
  flags.declare("full", "false", "use the canonical 5x5 grid");
  exp::declare_standard_flags(flags, exp::DriverKind::kSweep);
  return run_main(flags, argc, argv, [&] {
    auto base = exp::ExperimentConfig::for_profile(
        exp::profile_by_name(flags.get("preset")));
    base.accel.device = hw::device_by_name(flags.get("device"));
    const auto std_flags = exp::apply_standard_flags(
        flags, exp::DriverKind::kSweep, base, argc, argv);

    std::vector<double> betas{0.25, 0.5, 0.7, 0.9};
    std::vector<double> thetas{0.5, 1.0, 1.5, 2.0};
    if (flags.get_bool("full")) {
      betas = exp::fig2_betas();
      thetas = exp::fig2_thetas();
    }

    std::cout << "== FIG2: beta x theta cross-sweep (fast sigmoid k="
              << exp::kFig2FastSigmoidSlope
              << ", preset=" << flags.get("preset") << ") ==\n";
    const auto points = exp::run_beta_theta_sweep(
        base, betas, thetas, exp::print_progress, std_flags.journal);

    std::cout << "\n" << exp::render_fig2(points);
    if (!flags.get("csv").empty()) {
      exp::write_fig2_csv(points, flags.get("csv"));
      std::cout << "wrote " << flags.get("csv") << "\n";
    }
    return 0;
  });
}
