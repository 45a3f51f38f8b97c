// VAL-SIM — cross-validation of the analytic performance model against the
// cycle-level event-driven simulator over randomized layer configurations
// and spike traces.  Reports the distribution of (sim / analytic) stage
// cycle ratios; the analytic mean-value model should sit within the
// documented envelope (sim is >= analytic on bursty traces because the
// lock-step machine pays per-tick maxima).
#include <algorithm>
#include <iostream>

#include "core/cli.h"
#include "core/error.h"
#include "core/rng.h"
#include "core/table.h"
#include "exp/standard_flags.h"
#include "hw/event_sim.h"
#include "hw/perf_model.h"

using namespace spiketune;

int main(int argc, char** argv) {
  CliFlags flags;
  flags.declare("trials", "200", "number of random configurations");
  flags.declare("timesteps", "32", "steps per simulated inference");
  flags.declare("seed", "20240310", "RNG seed");
  exp::declare_standard_flags(flags, exp::DriverKind::kPlain);
  return run_main(flags, argc, argv, [&] {
    const auto std_flags =
        exp::apply_standard_flags(flags, exp::DriverKind::kPlain);

    const auto trials = flags.get_int("trials");
    const auto T = flags.get_int("timesteps");
    Rng rng(static_cast<std::uint64_t>(flags.get_int("seed")));
    const auto device = hw::kintex_ultrascale_plus_ku5p();

    std::vector<double> ratios;
    ratios.reserve(static_cast<std::size_t>(trials));
    for (std::int64_t t = 0; t < trials; ++t) {
      // Random 2-5 layer model with varied sizes and densities.
      const auto layers = 2 + rng.uniform_int(4);
      std::vector<hw::LayerWorkload> ws;
      for (std::uint64_t l = 0; l < layers; ++l) {
        hw::LayerWorkload w;
        w.name = "l" + std::to_string(l);
        w.input_size = static_cast<std::int64_t>(64 + rng.uniform_int(4096));
        w.fanout = static_cast<std::int64_t>(8 + rng.uniform_int(512));
        w.neurons = static_cast<std::int64_t>(16 + rng.uniform_int(4096));
        w.num_weights = w.input_size * w.fanout / 4;
        w.avg_input_spikes =
            rng.uniform(0.02, 0.8) * static_cast<double>(w.input_size);
        ws.push_back(std::move(w));
      }
      const auto alloc =
          hw::allocate(ws, device, hw::AllocationPolicy::kBalanced);
      const auto analytic =
          hw::analyze(ws, alloc, device, T, hw::ComputeMode::kEventDriven);
      Rng trace_rng = rng.fork(static_cast<std::uint64_t>(t));
      const auto trace = hw::random_trace(ws, T, trace_rng);
      const auto sim = hw::simulate_inference(
          hw::EventSimConfig::from(ws, alloc, device), trace);
      ratios.push_back(sim.mean_stage_cycles / analytic.stage_cycles);
    }

    std::sort(ratios.begin(), ratios.end());
    auto pct = [&](double p) {
      return ratios[static_cast<std::size_t>(
          p * static_cast<double>(ratios.size() - 1))];
    };
    double mean = 0.0;
    for (double r : ratios) mean += r;
    mean /= static_cast<double>(ratios.size());

    AsciiTable table({"stat", "sim / analytic stage cycles"});
    table.set_title("VAL-SIM: analytic model vs cycle-level simulator (" +
                    std::to_string(trials) + " random configs)");
    table.add_row({"min", fmt_f(ratios.front(), 3)});
    table.add_row({"p10", fmt_f(pct(0.10), 3)});
    table.add_row({"median", fmt_f(pct(0.50), 3)});
    table.add_row({"mean", fmt_f(mean, 3)});
    table.add_row({"p90", fmt_f(pct(0.90), 3)});
    table.add_row({"max", fmt_f(ratios.back(), 3)});
    table.print(std::cout);

    const bool ok = ratios.front() >= 0.85 && ratios.back() <= 1.40;
    std::cout << (ok ? "PASS" : "FAIL")
              << ": envelope requirement 0.85 <= ratio <= 1.40\n";
    return ok ? 0 : 1;
  });
}
