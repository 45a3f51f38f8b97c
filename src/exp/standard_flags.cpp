#include "exp/standard_flags.h"

#include <sstream>

#include "exp/ledger_flags.h"
#include "train/fit_flags.h"

namespace spiketune::exp {

void declare_standard_flags(CliFlags& flags, DriverKind kind) {
  declare_threads_flag(flags);
  obs::declare_telemetry_flags(flags);
  std::ostringstream crossover;  // shortest form, e.g. "0.35"
  crossover << infer::InferOptions{}.sparse_crossover;
  flags.declare("sparse-crossover", crossover.str(),
                "input density at or below which inference conv layers take "
                "the sparse scatter kernel (DESIGN.md §10; both kernels are "
                "bit-identical, so this only moves time)");
  switch (kind) {
    case DriverKind::kPlain:
      break;
    case DriverKind::kTrain:
      train::declare_fit_flags(flags);
      declare_ledger_flags(flags);
      break;
    case DriverKind::kFit:
      train::declare_fit_flags(flags);
      break;
    case DriverKind::kSweep:
      declare_sweep_flags(flags);
      break;
  }
}

StandardFlags apply_standard_flags(const CliFlags& flags, DriverKind kind,
                                   int argc, char** argv) {
  StandardFlags out;
  out.threads = apply_threads_flag(flags);
  out.telemetry = obs::apply_telemetry_flags(flags);
  out.infer.sparse_crossover = flags.get_double("sparse-crossover");
  if (kind == DriverKind::kSweep)
    out.sweep = sweep_options_from_flags(flags, argc, argv);
  return out;
}

StandardFlags apply_standard_flags(const CliFlags& flags,
                                   ExperimentConfig& config, int argc,
                                   char** argv) {
  StandardFlags out = apply_standard_flags(flags, DriverKind::kTrain);
  train::apply_fit_flags(flags, config.trainer);
  apply_ledger_flags(config, flags, argc, argv);
  config.trainer.infer = out.infer;
  return out;
}

StandardFlags apply_standard_flags(const CliFlags& flags,
                                   train::TrainerConfig& config) {
  StandardFlags out = apply_standard_flags(flags, DriverKind::kFit);
  train::apply_fit_flags(flags, config);
  config.infer = out.infer;
  return out;
}

}  // namespace spiketune::exp
