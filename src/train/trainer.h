// Trainer: the surrogate-gradient training loop.
//
// Mirrors the paper's setup: mini-batch BPTT with Adam and cosine-annealing
// learning rate over a fixed epoch budget; evaluation measures accuracy and
// the per-layer firing statistics the hardware model maps.
//
// Fault tolerance: fit() can periodically persist the *complete* training
// state (weights, Adam moments and step count, LR-schedule position, encoder
// stream counters, loader seed, config fingerprint) to an atomic STK2
// checkpoint directory, and resume from the newest one.  Because every
// kernel is bit-identical across thread counts (core/parallel) and all
// randomness is counter-based, an interrupted-then-resumed run produces
// bit-identical final weights and metrics to an uninterrupted one.  A
// per-batch numerical health monitor guards against NaN/Inf blow-ups with a
// configurable policy (throw / skip the batch / roll back to the last
// checkpoint with an LR cut).
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <string>

#include "core/error.h"
#include "core/serialize.h"
#include "data/dataloader.h"
#include "data/encoders.h"
#include "snn/loss.h"
#include "snn/network.h"
#include "train/lr_scheduler.h"
#include "train/metrics.h"
#include "train/optimizer.h"

namespace spiketune::train {

/// What to do when a batch produces a non-finite loss or gradient.
enum class NanPolicy {
  kThrow,      // raise NumericalError immediately (default)
  kSkipBatch,  // drop the batch's update and keep training
  kRollback,   // restore the last checkpoint and cut the LR
};

NanPolicy nan_policy_by_name(const std::string& name);
const char* nan_policy_name(NanPolicy policy);

/// Multiplier applied to the LR after each rollback (kRollback only).
inline constexpr double kRollbackLrCut = 0.5;
/// fit() gives up (throws NumericalError) after this many rollbacks.
inline constexpr int kMaxRollbacks = 3;

struct TrainerConfig {
  std::int64_t epochs = 25;      // paper: cosine annealing over 25 epochs
  std::int64_t num_steps = 10;   // BPTT window length T
  std::int64_t batch_size = 32;
  double base_lr = 1e-3;
  double lr_eta_min = 0.0;
  bool verbose = true;           // log per-epoch progress
  /// Worker threads for the tensor/SNN kernels.  0 (the default) leaves
  /// the process-wide setting untouched; >= 1 applies it via
  /// set_num_threads() when the Trainer is constructed.  Results are
  /// bit-identical for any value (see core/parallel.h), so this only
  /// changes wall-clock time, never training outcomes.
  int threads = 0;
  /// Short id namespacing this run's per-layer gauges
  /// (train.firing_rate.<run_tag>.<i>.<layer>) so two models training in
  /// one process never collide.  Empty (the default) auto-assigns "net0",
  /// "net1", ... per Trainer constructed in this process; sweeps set it to
  /// the sanitized point key.  Never affects training numbers.
  std::string run_tag;

  // -- crash safety ---------------------------------------------------------
  /// Directory for training-state checkpoints; empty disables them.
  std::string checkpoint_dir;
  /// Save every N completed epochs (the final epoch always saves).
  std::int64_t checkpoint_every = 1;
  /// Retention: keep only the newest K checkpoint files.
  std::int64_t keep_last = 3;
  /// Resume from the newest checkpoint in checkpoint_dir, if any.
  bool resume = false;
  /// Testing/CI: stop fit() after running N epochs *in this process* (0 =
  /// run to completion).  Simulates an interrupt at a clean epoch boundary;
  /// combine with resume to continue.
  std::int64_t stop_after_epochs = 0;

  // -- numerical guard rails ------------------------------------------------
  /// What a batch with a non-finite loss or gradient norm triggers; every
  /// batch is checked.
  NanPolicy nan_policy = NanPolicy::kThrow;
};

/// Thrown out of train_epoch when the health monitor trips under
/// NanPolicy::kRollback; fit() catches it and restores the last checkpoint.
/// Derives from NumericalError so standalone train_epoch callers still see
/// a typed numerical failure.
class RollbackRequested : public spiketune::NumericalError {
 public:
  explicit RollbackRequested(const std::string& what)
      : spiketune::NumericalError(what) {}
};

class Trainer {
 public:
  /// The trainer borrows network/encoder/loss; they must outlive it.
  Trainer(snn::SpikingNetwork& net, const data::SpikeEncoder& encoder,
          const snn::Loss& loss, TrainerConfig config);

  /// Runs one epoch over the loader; returns averaged training metrics.
  EpochMetrics train_epoch(data::DataLoader& loader, Adam& opt,
                           const CosineAnnealingLr& schedule,
                           std::int64_t epoch);

  /// Full training run: epochs x train_epoch with a fresh Adam + cosine
  /// schedule per TrainerConfig.  Optional per-epoch callback (may be null).
  /// Honors checkpoint_dir / resume / nan_policy (see TrainerConfig).
  using EpochCallback = std::function<void(const EpochMetrics&)>;
  void fit(data::DataLoader& loader, const EpochCallback& on_epoch = {});

  /// Evaluates accuracy/loss/spike statistics without touching weights.
  /// Each call draws fresh (but reproducible) encoder noise: the k-th
  /// evaluate() of a Trainer uses the same streams in every run, and those
  /// streams never collide with training streams (see eval_stream).
  EvalMetrics evaluate(data::DataLoader& loader);

  /// Encoder stream id for batch `batch` of the `call`-th evaluate().
  /// Training uses plain batch ordinals (0, 1, 2, ...); evaluation streams
  /// carry a high-bit tag plus the call index so they can never alias a
  /// training stream and successive evaluations never replay each other's
  /// rate-coding noise.
  static std::uint64_t eval_stream(std::uint64_t call, std::uint64_t batch);

  /// Encoder stream id for the run-ledger activity probe at `epoch`,
  /// batch `batch`.  Bit 62 tags the probe namespace — disjoint from both
  /// training streams (plain ordinals) and evaluation streams (bit 63) —
  /// so per-epoch observability never perturbs training or eval numbers.
  static std::uint64_t probe_stream(std::uint64_t epoch, std::uint64_t batch);

  /// Measures per-layer spike activity on up to `max_batches` batches of
  /// `loader` without touching weights, optimizer state, or the trainer's
  /// stream counters (streams come from probe_stream, keyed by `epoch`).
  /// This is the cheap per-epoch pass behind the ledger's firing-rate and
  /// hardware trajectories.
  snn::SpikeRecord record_activity(data::DataLoader& loader,
                                   std::int64_t epoch,
                                   std::int64_t max_batches);

  /// Persists the complete training state (weights, optimizer, counters) to
  /// `path` as one atomic STK2 checkpoint.  `next_epoch` is the epoch a
  /// resumed run should execute next.
  void save_training_state(const std::string& path, const Adam& opt,
                           std::int64_t next_epoch,
                           const data::DataLoader& loader);

  /// Restores state written by save_training_state; returns the epoch to
  /// run next.  Throws InvalidArgument on a fingerprint mismatch (the
  /// checkpoint came from a different training setup) or missing metadata.
  std::int64_t restore_training_state(const std::string& path, Adam& opt,
                                      const data::DataLoader& loader);

  /// Hash of everything that determines the training trajectory: trainer
  /// hyperparameters, loader seed/batching, encoder/loss identity, and the
  /// network's parameter names and shapes.  Stored in checkpoints so resume
  /// refuses state from a different setup instead of silently diverging.
  std::uint64_t config_fingerprint(const data::DataLoader& loader) const;

  const TrainerConfig& config() const { return config_; }

 private:
  /// Checks loss/gradients for NaN/Inf after a batch's backward pass.
  /// Returns true if the batch is healthy; on an unhealthy batch applies
  /// the configured policy (throw / skip).  Healthy batches also feed the
  /// per-epoch gradient-norm stats.
  bool batch_is_healthy(double loss, std::int64_t epoch, std::int64_t batch);

  snn::SpikingNetwork& net_;
  const data::SpikeEncoder& encoder_;
  const snn::Loss& loss_;
  TrainerConfig config_;
  std::uint64_t encode_stream_ = 0;  // decorrelates encoder draws per batch
  std::uint64_t eval_calls_ = 0;     // evaluate() invocations so far
  double lr_scale_ = 1.0;            // cumulative rollback LR cut
  RunningMean grad_norm_mean_;       // per-epoch, reset by train_epoch
  double grad_norm_max_ = 0.0;       // per-epoch, reset by train_epoch
};

namespace testing {
/// Test-only fault injection for the numerical health monitor.  When set,
/// called once per training batch with (epoch, batch index); returning true
/// replaces that batch's loss with NaN (force_nan_loss) or poisons the first
/// parameter's gradient with Inf (force_nan_grad) *after* the backward pass,
/// so every recovery path can be exercised deterministically.  Not
/// thread-safe; tests must reset to nullptr when done.
extern std::function<bool(std::int64_t, std::int64_t)> force_nan_loss;
extern std::function<bool(std::int64_t, std::int64_t)> force_nan_grad;
}  // namespace testing

}  // namespace spiketune::train
