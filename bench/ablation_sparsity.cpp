// ABL-SPARSE — design-choice ablation: event-driven vs dense compute as a
// function of model firing rate.  No training needed; synthesizes the paper
// topology's workloads at a range of input densities and reports latency
// and FPS/W for both compute modes, showing where the sparsity-aware
// datapath's advantage comes from and how it scales (the mechanism behind
// both Figure 1 and Figure 2).
#include <iostream>

#include "core/cli.h"
#include "core/error.h"
#include "core/table.h"
#include "exp/standard_flags.h"
#include "hw/perf_model.h"

using namespace spiketune;

namespace {
// The paper topology (32x32 input) as static workloads at density d.
std::vector<hw::LayerWorkload> csnn_workloads(double density) {
  auto make = [](const char* name, std::int64_t in, std::int64_t fanout,
                 std::int64_t neurons, std::int64_t weights, double d) {
    hw::LayerWorkload w;
    w.name = name;
    w.input_size = in;
    w.fanout = fanout;
    w.neurons = neurons;
    w.num_weights = weights;
    w.avg_input_spikes = d * static_cast<double>(in);
    return w;
  };
  // conv1 input is the (dense) coded image; deeper layers carry spikes.
  return {make("conv1", 3 * 32 * 32, 32 * 9, 32 * 30 * 30, 32 * 27, 1.0),
          make("conv2", 32 * 15 * 15, 32 * 9, 32 * 13 * 13, 32 * 288,
               density),
          make("fc1", 32 * 6 * 6, 256, 256, 1152 * 256, density),
          make("fc2", 256, 10, 10, 2560, density)};
}
}  // namespace

int main(int argc, char** argv) {
  CliFlags flags;
  flags.declare("device", "ku5p", "FPGA device: ku3p | ku5p | ku15p");
  flags.declare("timesteps", "25", "inference window length T");
  exp::declare_standard_flags(flags, exp::DriverKind::kPlain);
  return run_main(flags, argc, argv, [&] {
    const auto std_flags =
        exp::apply_standard_flags(flags, exp::DriverKind::kPlain);
    const auto device = hw::device_by_name(flags.get("device"));
    const std::int64_t T = flags.get_int("timesteps");

    std::cout << "== ABL-SPARSE: event-driven vs dense compute across firing "
                 "rates (device="
              << device.name << ", T=" << T << ") ==\n";
    AsciiTable table({"density", "event lat", "dense lat", "event FPS/W",
                      "dense FPS/W", "FPS/W gain"});
    table.set_title("paper topology, synthetic densities");
    for (double d : {0.02, 0.05, 0.1, 0.2, 0.4, 0.6, 0.8, 1.0}) {
      const auto ws = csnn_workloads(d);
      const auto alloc =
          hw::allocate(ws, device, hw::AllocationPolicy::kBalanced);
      const auto ev =
          hw::analyze(ws, alloc, device, T, hw::ComputeMode::kEventDriven);
      const auto alloc_dense =
          hw::allocate(ws, device, hw::AllocationPolicy::kBalancedDense);
      const auto de = hw::analyze(ws, alloc_dense, device, T,
                                  hw::ComputeMode::kDense);
      table.add_row({fmt_pct(d, 0), fmt_f(ev.latency_s * 1e6, 1) + "us",
                     fmt_f(de.latency_s * 1e6, 1) + "us",
                     fmt_f(ev.fps_per_watt, 1), fmt_f(de.fps_per_watt, 1),
                     fmt_x(ev.fps_per_watt / de.fps_per_watt, 2)});
    }
    table.print(std::cout);
    std::cout << "note: at density 100% the event-driven datapath degenerates "
                 "to the dense one (gain -> ~1x).\n";
    return 0;
  });
}
