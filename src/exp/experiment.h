// Experiment pipeline: dataset -> train -> measure sparsity -> map to hw.
//
// Every paper artifact (Fig. 1, Fig. 2, the prior-work table) is a sweep of
// this pipeline over hyperparameters.  Two profiles control scale:
//   * kFast  — laptop-scale default (smaller images/splits/epochs) whose
//     orderings and ratios track the paper's full-scale behaviour;
//   * kPaper — the paper's scale (32x32, 25 epochs, T=25); hours on one
//     CPU core, available behind --preset=paper.
#pragma once

#include <cstdint>
#include <string>

#include "hw/accelerator.h"
#include "obs/spike_health.h"
#include "snn/model_zoo.h"
#include "train/trainer.h"

namespace spiketune::exp {

enum class Profile { kFast, kPaper, kSmoke };

Profile profile_by_name(const std::string& name);
const char* profile_name(Profile profile);

/// Run-ledger settings for one experiment (see obs/ledger.h).  When `dir`
/// is set, run_experiment writes `<dir>/<sanitized run_id>.jsonl`: a
/// manifest, one epoch record per epoch (training metrics + per-layer spike
/// densities from a probe pass + live hardware projections), spike-health
/// warnings, and a final record.  The probe pass draws from its own stream
/// namespace (Trainer::probe_stream), so enabling the ledger never changes
/// training or evaluation numbers.
struct LedgerConfig {
  /// Directory receiving one JSONL stream per run; empty disables.
  std::string dir;
  /// Stream name inside `dir` (sanitized for the filesystem); sweeps set
  /// this to the point key.
  std::string run_id = "run";
  /// The driver's command line, recorded verbatim in the manifest.
  std::string argv;
  /// Test-loader batches probed per epoch for spike densities.
  std::int64_t probe_batches = 2;
  /// Spike-health detector thresholds.
  obs::SpikeHealthConfig health;
};

struct ExperimentConfig {
  // Data.
  std::int64_t train_size = 768;
  std::int64_t test_size = 256;
  std::int64_t image_size = 16;
  std::uint64_t data_seed = 0xda7aULL;
  /// Input coding.  "direct" (default) presents the standardized analog
  /// image as constant current every step — the standard snnTorch setup
  /// for static datasets and the one the paper's training pipeline uses;
  /// "rate"/"latency" produce fully binary input spike trains.
  std::string encoder = "direct";
  /// Standardize images with per-channel train-split means and a fixed
  /// 0.25 std (images live in [0,1], so this spreads them over ~±2).
  bool normalize = true;
  /// Task: "svhn" (SynthSvhn, 3-channel, the paper's dataset class) or
  /// "digits" (SynthDigits, 1-channel MNIST-like; the paper's future-work
  /// "additional datasets").  Selecting "digits" requires
  /// model.in_channels == 1.
  std::string dataset = "svhn";
  /// Training loss: "rate_ce" (softmax CE on spike counts, the default) or
  /// "count_mse" (snnTorch's mse_count_loss; the paper's future-work
  /// "other hyperparameters like loss functions").
  std::string loss = "rate_ce";

  // Model: the paper topology; lif holds the swept hyperparameters.
  snn::CsnnConfig model;

  // Training.
  train::TrainerConfig trainer;

  // Hardware mapping.
  hw::AcceleratorConfig accel;
  bool validate_with_sim = false;

  // Observability: the per-run JSONL ledger (off by default).
  LedgerConfig ledger;

  /// Profile presets (model.lif left at paper defaults).
  static ExperimentConfig for_profile(Profile profile);
};

// Every scalar result of a sweep point, declared once.  Each row yields
// with no other edit: the ExperimentResult member, its sweep-journal and
// ledger-final key (the field name), and, when `in_csv`, its column in the
// Fig. 1 / Fig. 2 CSVs.  Rows are in journal, ledger and CSV order.
//
// X(field, in_csv):
//   in_csv  the column is in the sweep CSVs, which are byte-identical
//           across thread counts and journal resumes; a field that is not
//           deterministic for a given config (wall-clock time) must be false
// clang-format off
#define SPIKETUNE_RESULT_FIELDS(X)                                         \
  /* Learning metrics (on the held-out split). */                          \
  X(accuracy, true)                                                        \
  X(loss, false)                                                           \
  X(firing_rate, true)  /* spikes / neuron / step over spiking layers */   \
  X(sparsity, false)    /* 1 - firing_rate */                              \
  /* Hardware metrics from the mapped model. */                            \
  X(latency_us, true)                                                      \
  X(throughput_fps, true)                                                  \
  X(watts, true)                                                           \
  X(fps_per_watt, true)                                                    \
  /* Provenance. */                                                        \
  X(final_train_accuracy, false)  /* last epoch's training accuracy */     \
  X(train_seconds, false)         /* wall clock */
// clang-format on

struct ExperimentResult {
#define SPIKETUNE_X(field, in_csv) double field = 0.0;
  SPIKETUNE_RESULT_FIELDS(SPIKETUNE_X)
#undef SPIKETUNE_X
  /// The mapped model's hardware report.  Not journaled: a journal restore
  /// leaves it default-constructed.
  hw::MappingReport mapping;
};

struct ResultField {
  const char* name;  // journal / ledger key and CSV column
  double ExperimentResult::*member;
  bool in_csv;
};

inline constexpr ResultField kResultFields[] = {
#define SPIKETUNE_X(field, in_csv) \
  {#field, &ExperimentResult::field, in_csv},
    SPIKETUNE_RESULT_FIELDS(SPIKETUNE_X)
#undef SPIKETUNE_X
};

/// Fail-fast validation: checks every by-name selection (dataset, encoder,
/// loss), the dataset/model channel and image-size agreement, and the
/// trainer's crash-safety settings *before* any data is materialized or
/// training starts.  Throws InvalidArgument with a precise message, so a
/// typo in a sweep config surfaces immediately instead of after the first
/// point has trained for an hour.  run_experiment and the sweeps call this
/// on entry; drivers may call it directly after parsing flags.
void validate(const ExperimentConfig& config);

/// Runs the full pipeline once.  Deterministic for a given config.
ExperimentResult run_experiment(const ExperimentConfig& config);

}  // namespace spiketune::exp
