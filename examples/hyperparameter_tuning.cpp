// Hyperparameter tuning for hardware: a miniature version of the paper's
// methodology.  Trains a handful of (beta, theta) candidates, then selects
// the most hardware-efficient configuration whose accuracy stays within a
// user-chosen budget of the best — exactly the trade-off the paper's
// Figure 2 navigates.
#include <iostream>
#include <sstream>
#include <vector>

#include "core/cli.h"
#include "core/table.h"
#include "exp/report.h"
#include "exp/standard_flags.h"
#include "exp/sweep.h"

using namespace spiketune;

int main(int argc, char** argv) {
  CliFlags flags;
  flags.declare("preset", "smoke", "experiment scale: smoke | fast | paper");
  flags.declare("accuracy-budget", "0.035",
                "max allowed accuracy drop vs the best configuration");
  exp::declare_standard_flags(flags, exp::DriverKind::kTrain);
  return run_main(flags, argc, argv, [&] {
    const double budget = flags.get_double("accuracy-budget");
    auto base = exp::ExperimentConfig::for_profile(
        exp::profile_by_name(flags.get("preset")));
    base.model.lif.surrogate = snn::Surrogate::fast_sigmoid(0.25f);
    const auto std_flags = exp::apply_standard_flags(
        flags, exp::DriverKind::kTrain, base, argc, argv);

    const std::vector<std::pair<double, double>> grid{
        {0.25, 1.0},  // paper default
        {0.5, 1.5},   // paper's latency knee
        {0.7, 1.5},   // paper's prior-work comparison point
        {0.9, 0.5},   // deliberately chatty: high leak retention, low bar
    };
    std::vector<exp::SweepSpec> specs;
    for (const auto& [beta, theta] : grid) {
      std::ostringstream key;  // names the checkpoint dir and ledger stream
      key << "beta" << beta << "_theta" << theta;
      specs.push_back({key.str(), [beta, theta](exp::ExperimentConfig& cfg) {
                         cfg.model.lif.beta = static_cast<float>(beta);
                         cfg.model.lif.threshold = static_cast<float>(theta);
                       }});
    }
    const auto points = exp::run_sweep(base, specs, exp::print_progress);

    double best_acc = 0.0;
    for (const auto& p : points)
      if (p.status == "done") best_acc = std::max(best_acc, p.result.accuracy);

    AsciiTable table({"beta", "theta", "accuracy", "fire-rate", "latency",
                      "FPS/W", "eligible"});
    table.set_title("hardware-aware hyperparameter selection");
    std::size_t pick = points.size();
    for (std::size_t i = 0; i < points.size(); ++i) {
      const auto& r = points[i].result;
      const bool eligible =
          points[i].status == "done" && r.accuracy >= best_acc - budget;
      if (eligible && (pick == points.size() ||
                       r.fps_per_watt > points[pick].result.fps_per_watt))
        pick = i;
      table.add_row(exp::point_row(
          {fmt_f(grid[i].first, 2), fmt_f(grid[i].second, 2)}, points[i],
          {fmt_pct(r.accuracy, 2), fmt_pct(r.firing_rate, 2),
           fmt_f(r.latency_us, 1) + "us", fmt_f(r.fps_per_watt, 1),
           eligible ? "yes" : "no"}));
    }
    table.print(std::cout);
    std::cout << exp::failure_note(points);
    if (pick == points.size()) return 1;  // every candidate failed

    const auto& chosen = points[pick].result;
    std::cout << "\nselected: beta=" << fmt_f(grid[pick].first, 2)
              << " theta=" << fmt_f(grid[pick].second, 2) << " ("
              << fmt_f(chosen.fps_per_watt, 1) << " FPS/W at "
              << fmt_pct(chosen.accuracy, 2) << ", budget "
              << fmt_pct(budget, 1) << ")\n";
    return 0;
  });
}
