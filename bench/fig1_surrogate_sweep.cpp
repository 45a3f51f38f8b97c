// FIG1 — reproduces Figure 1 of the paper: accuracy and accelerator
// efficiency (FPS/W) for the arctangent and fast sigmoid surrogates over
// derivative scaling factors 0.5 .. 32, with beta/theta at their defaults
// (0.25 / 1.0).  Prints the paper-style series, the prior-work green line,
// and the fast-sigmoid-vs-arctangent efficiency ratio; writes fig1.csv.
//
// Profiles: --preset=smoke (seconds), fast (default, ~10-15 min on one
// core), paper (paper-scale, hours).
#include <iostream>

#include "core/cli.h"
#include "exp/report.h"
#include "exp/standard_flags.h"
#include "exp/sweep.h"

using namespace spiketune;

int main(int argc, char** argv) {
  CliFlags flags;
  flags.declare("preset", "fast", "experiment scale: smoke | fast | paper");
  flags.declare("csv", "fig1.csv", "output CSV path (empty to skip)");
  flags.declare("device", "ku5p", "FPGA device: ku3p | ku5p | ku15p");
  flags.declare("scales", "",
                "comma-separated derivative scales (empty = paper grid)");
  exp::declare_standard_flags(flags, exp::DriverKind::kSweep);
  return run_main(flags, argc, argv, [&] {
    auto base = exp::ExperimentConfig::for_profile(
        exp::profile_by_name(flags.get("preset")));
    base.accel.device = hw::device_by_name(flags.get("device"));
    const auto std_flags = exp::apply_standard_flags(
        flags, exp::DriverKind::kSweep, base, argc, argv);
    const auto scales = flags.get("scales").empty()
                            ? exp::fig1_scales()
                            : exp::parse_double_list(flags.get("scales"));

    std::cout << "== FIG1: surrogate derivative-scale sweep (preset="
              << flags.get("preset") << ", device=" << base.accel.device.name
              << ") ==\n";
    const auto points =
        exp::run_surrogate_sweep(base, {"arctan", "fast_sigmoid"}, scales,
                                 exp::print_progress, std_flags.journal);

    std::cout << "\n" << exp::render_fig1(points);
    if (!flags.get("csv").empty()) {
      exp::write_fig1_csv(points, flags.get("csv"));
      std::cout << "wrote " << flags.get("csv") << "\n";
    }
    return 0;
  });
}
