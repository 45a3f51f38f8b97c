#include "exp/standard_flags.h"

namespace spiketune::exp {

namespace {

// Which shared flags each kind declares; declare and apply both read this.
bool has_checkpoint(DriverKind kind) {
  return kind == DriverKind::kTrain || kind == DriverKind::kFit ||
         kind == DriverKind::kSweep;
}
bool has_fit_extras(DriverKind kind) {
  return kind == DriverKind::kTrain || kind == DriverKind::kFit;
}
bool has_ledger(DriverKind kind) {
  return kind == DriverKind::kTrain || kind == DriverKind::kSweep;
}

/// The fit flags.
void apply_trainer_flags(const CliFlags& flags, DriverKind kind,
                         train::TrainerConfig& config) {
  config.checkpoint_dir = flags.get("checkpoint-dir");
  config.resume = flags.get_bool("resume");
  if (has_fit_extras(kind)) {
    config.checkpoint_every = flags.get_int("checkpoint-every");
    config.keep_last = flags.get_int("keep-last");
    config.stop_after_epochs = flags.get_int("stop-after");
    config.nan_policy = train::nan_policy_by_name(flags.get("nan-policy"));
  }
}

}  // namespace

void declare_standard_flags(CliFlags& flags, DriverKind kind) {
  declare_threads_flag(flags);
  obs::declare_telemetry_flags(flags);
  if (has_checkpoint(kind)) {
    flags.declare("checkpoint-dir", "",
                  "directory for crash-safe training checkpoints; a driver "
                  "that trains several models gives each a subdirectory "
                  "(empty = off)");
    flags.declare("resume", "false",
                  "resume from the newest checkpoint; a sweep also skips "
                  "the points its journal marks done");
  }
  if (has_fit_extras(kind)) {
    flags.declare("checkpoint-every", "1",
                  "save training state every N completed epochs");
    flags.declare("keep-last", "3", "retain only the newest K checkpoints");
    flags.declare("stop-after", "0",
                  "stop after N epochs this run (0 = run to completion; "
                  "simulates an interrupt, resumable with --resume)");
    flags.declare("nan-policy", "throw",
                  "on NaN/Inf loss or gradients: throw | skip-batch | "
                  "rollback");
  }
  if (has_ledger(kind)) {
    flags.declare("ledger", "",
                  "directory for per-run JSONL ledgers (manifest + "
                  "per-epoch sparsity/hardware trajectories; empty = off; "
                  "render with render_dashboard)");
  }
  if (kind == DriverKind::kSweep) {
    flags.declare("journal", "",
                  "JSONL sweep journal; each point is recorded as it "
                  "finishes (empty = off)");
  }
}

StandardFlags apply_standard_flags(const CliFlags& flags, DriverKind kind) {
  StandardFlags out;
  out.threads = apply_threads_flag(flags);
  out.telemetry = obs::apply_telemetry_flags(flags);
  if (kind == DriverKind::kSweep) out.journal = flags.get("journal");
  return out;
}

StandardFlags apply_standard_flags(const CliFlags& flags, DriverKind kind,
                                   ExperimentConfig& config, int argc,
                                   char** argv) {
  StandardFlags out = apply_standard_flags(flags, kind);
  apply_trainer_flags(flags, kind, config.trainer);
  config.ledger.dir = flags.get("ledger");
  config.ledger.argv = join_argv(argc, argv);
  return out;
}

StandardFlags apply_standard_flags(const CliFlags& flags,
                                   train::TrainerConfig& config) {
  StandardFlags out = apply_standard_flags(flags, DriverKind::kFit);
  apply_trainer_flags(flags, DriverKind::kFit, config);
  return out;
}

}  // namespace spiketune::exp
