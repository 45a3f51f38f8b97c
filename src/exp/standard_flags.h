// The shared flags of the bench/example drivers, declared and read in one
// place.  A driver declares its own flags, then the shared set for its
// DriverKind, and runs its workload through run_main (core/cli.h), which
// turns any flag or configuration error into the usage and exit 2:
//
//   CliFlags flags;
//   flags.declare("preset", "smoke", "...");            // driver-specific
//   exp::declare_standard_flags(flags, exp::DriverKind::kTrain);
//   return run_main(flags, argc, argv, [&] {
//     auto cfg = exp::ExperimentConfig::for_profile(
//         exp::profile_by_name(flags.get("preset")));
//     const auto std_flags = exp::apply_standard_flags(
//         flags, exp::DriverKind::kTrain, cfg, argc, argv);
//     ... workload ...   // std_flags.telemetry flushes at scope exit
//     return 0;
//   });
//
// Flag sets per kind (all include --threads, --trace, --metrics-out,
// --profile):
//   kPlain   nothing further: drivers that build no Trainer from flags,
//            the serving daemon and its load generator included
//   kTrain   the crash-safety fit flags (--checkpoint-dir,
//            --checkpoint-every, --keep-last, --resume, --stop-after,
//            --nan-policy) and --ledger: ExperimentConfig drivers
//   kFit     the fit flags: bare-TrainerConfig drivers
//   kSweep   --checkpoint-dir, --resume, --ledger and --journal: the
//            journaled Fig. 1/Fig. 2 sweeps.  The loop in exp/sweep.h gives
//            each point its own checkpoint subdirectory and ledger stream.
//            --stop-after is left out: a point stopped early would be
//            journaled done with a partly trained model.
#pragma once

#include <string>

#include "core/cli.h"
#include "exp/experiment.h"
#include "obs/flags.h"
#include "train/trainer.h"

namespace spiketune::exp {

enum class DriverKind { kPlain, kTrain, kFit, kSweep };

/// What apply_standard_flags() produced.  Move-only: the telemetry session
/// flushes trace/metrics/profiler output when it leaves scope, so keep the
/// returned object alive for the duration of the workload.
struct StandardFlags {
  int threads = 0;                  // resolved --threads value
  obs::TelemetrySession telemetry;  // flushes on destruction
  /// --journal (kSweep): the sweep journal path, empty when off.
  std::string journal;
};

/// Declares the shared flag set for `kind` (see table above).  Call after
/// the driver's own flags so --help lists driver-specific flags first.
void declare_standard_flags(CliFlags& flags, DriverKind kind);

/// Applies the shared flags (after parse()) for kPlain drivers.
StandardFlags apply_standard_flags(const CliFlags& flags, DriverKind kind);

/// kTrain and kSweep: also reads the checkpoint and resume flags into
/// `config.trainer` (kTrain: the other fit flags too), and --ledger
/// with the command line into `config.ledger`.
StandardFlags apply_standard_flags(const CliFlags& flags, DriverKind kind,
                                   ExperimentConfig& config, int argc,
                                   char** argv);

/// kFit: also reads the fit flags into `config`.
StandardFlags apply_standard_flags(const CliFlags& flags,
                                   train::TrainerConfig& config);

}  // namespace spiketune::exp
