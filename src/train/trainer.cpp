#include "train/trainer.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <limits>
#include <optional>
#include <string>
#include <typeinfo>

#include "core/crc32.h"
#include "core/error.h"
#include "core/logging.h"
#include "core/parallel.h"
#include "core/table.h"
#include "infer/session.h"
#include "obs/flight.h"
#include "obs/metrics.h"
#include "obs/profiler.h"
#include "obs/trace.h"
#include "snn/checkpoint.h"
#include "train/checkpoint_manager.h"

namespace spiketune::train {

namespace testing {
std::function<bool(std::int64_t, std::int64_t)> force_nan_loss;
std::function<bool(std::int64_t, std::int64_t)> force_nan_grad;
}  // namespace testing

NanPolicy nan_policy_by_name(const std::string& name) {
  if (name == "throw") return NanPolicy::kThrow;
  if (name == "skip-batch") return NanPolicy::kSkipBatch;
  if (name == "rollback") return NanPolicy::kRollback;
  throw InvalidArgument("unknown nan policy: " + name +
                        " (expected throw|skip-batch|rollback)");
}

const char* nan_policy_name(NanPolicy policy) {
  switch (policy) {
    case NanPolicy::kThrow:
      return "throw";
    case NanPolicy::kSkipBatch:
      return "skip-batch";
    case NanPolicy::kRollback:
      return "rollback";
  }
  return "?";
}

namespace {
// Process-wide ordinal for auto-assigned run tags ("net0", "net1", ...).
std::atomic<int> g_next_run_ordinal{0};
}  // namespace

Trainer::Trainer(snn::SpikingNetwork& net, const data::SpikeEncoder& encoder,
                 const snn::Loss& loss, TrainerConfig config)
    : net_(net), encoder_(encoder), loss_(loss), config_(config) {
  ST_REQUIRE(config_.epochs > 0, "epochs must be positive");
  ST_REQUIRE(config_.num_steps > 0, "num_steps must be positive");
  ST_REQUIRE(config_.batch_size > 0, "batch_size must be positive");
  ST_REQUIRE(config_.base_lr > 0.0, "base_lr must be positive");
  ST_REQUIRE(config_.threads >= 0, "threads must be non-negative");
  ST_REQUIRE(config_.checkpoint_every >= 1, "checkpoint_every must be >= 1");
  ST_REQUIRE(config_.keep_last >= 1, "keep_last must be >= 1");
  ST_REQUIRE(config_.stop_after_epochs >= 0,
             "stop_after_epochs must be non-negative");
  if (config_.run_tag.empty())
    config_.run_tag = "net" + std::to_string(g_next_run_ordinal++);
  if (config_.threads > 0) set_num_threads(config_.threads);
}

bool Trainer::batch_is_healthy(double loss, std::int64_t epoch,
                               std::int64_t batch) {
  std::string what;
  if (!std::isfinite(loss)) {
    what = "non-finite loss";
  } else {
    // One pass over all gradients; NaN/Inf propagate through the sum.
    double grad_sq = 0.0;
    for (snn::Param* p : net_.params()) {
      const float* g = p->grad.data();
      for (std::int64_t i = 0, n = p->numel(); i < n; ++i)
        grad_sq += static_cast<double>(g[i]) * static_cast<double>(g[i]);
    }
    if (!std::isfinite(grad_sq)) what = "non-finite gradient norm";
    if (what.empty()) {
      const double grad_norm = std::sqrt(grad_sq);
      grad_norm_mean_.add(grad_norm);
      grad_norm_max_ = std::max(grad_norm_max_, grad_norm);
      if (obs::metrics_enabled())
        obs::observe(obs::histogram("train.grad_norm"), grad_norm);
    }
  }
  if (what.empty()) return true;

  if (obs::metrics_enabled())
    obs::add(obs::counter("train.health.nonfinite_batches"));
  const std::string msg = what + " at epoch " + std::to_string(epoch) +
                          " batch " + std::to_string(batch) + " (policy " +
                          nan_policy_name(config_.nan_policy) + ")";
  switch (config_.nan_policy) {
    case NanPolicy::kThrow:
      throw NumericalError(msg);
    case NanPolicy::kRollback:
      throw RollbackRequested(msg);
    case NanPolicy::kSkipBatch:
      if (obs::metrics_enabled())
        obs::add(obs::counter("train.health.skipped_batches"));
      ST_LOG_WARN << "skipping batch: " << msg;
      return false;
  }
  return false;
}

EpochMetrics Trainer::train_epoch(data::DataLoader& loader, Adam& opt,
                                  const CosineAnnealingLr& schedule,
                                  std::int64_t epoch) {
  // lr_scale_ is 1.0 unless a rollback cut the LR; multiplying by exactly
  // 1.0 keeps the default path bit-identical to the unscaled schedule.
  opt.set_lr(schedule.lr_at(epoch) * lr_scale_);
  loader.start_epoch(epoch);
  grad_norm_mean_.reset();
  grad_norm_max_ = 0.0;

  RunningMean loss_mean;
  RunningMean acc_mean;
  data::Batch batch;
  std::int64_t batch_idx = 0;
  while (loader.next(batch)) {
    const auto steps = [&] {
      ST_PROF_SCOPE("train.encode");
      return encoder_.encode(batch.images, config_.num_steps,
                             encode_stream_++);
    }();
    net_.zero_grad();
    auto fwd = [&] {
      ST_PROF_SCOPE("train.forward");
      return net_.forward(steps, {.training = true});
    }();
    auto lr = loss_.compute(fwd.spike_counts, batch.labels);
    if (testing::force_nan_loss && testing::force_nan_loss(epoch, batch_idx))
      lr.loss = std::numeric_limits<double>::quiet_NaN();

    // A non-finite loss skips the backward pass (its gradients would be
    // garbage anyway); the health check then judges the loss alone.
    if (std::isfinite(lr.loss)) {
      {
        ST_PROF_SCOPE("train.backward");
        net_.backward(lr.grad_counts);
      }
      if (testing::force_nan_grad &&
          testing::force_nan_grad(epoch, batch_idx)) {
        auto params = net_.params();
        if (!params.empty() && params[0]->numel() > 0)
          params[0]->grad.data()[0] =
              std::numeric_limits<float>::infinity();
      }
    }
    // Throws under the throw and rollback policies.
    if (batch_is_healthy(lr.loss, epoch, batch_idx)) {
      ST_PROF_SCOPE("train.step");
      opt.step();
      loss_mean.add(lr.loss, batch.batch_size());
      acc_mean.add(snn::accuracy(fwd.spike_counts, batch.labels),
                   batch.batch_size());
    }
    ++batch_idx;
  }

  EpochMetrics m;
  m.epoch = epoch;
  m.lr = opt.lr();
  m.train_loss =
      loss_mean.mean_or(std::numeric_limits<double>::quiet_NaN());
  m.train_accuracy =
      acc_mean.mean_or(std::numeric_limits<double>::quiet_NaN());
  m.grad_norm_mean = grad_norm_mean_.mean_or(0.0);
  m.grad_norm_max = grad_norm_max_;
  return m;
}

std::uint64_t Trainer::config_fingerprint(
    const data::DataLoader& loader) const {
  // FNV-1a over everything that shapes the training trajectory.  Threads,
  // verbosity, and the checkpoint/health settings are deliberately
  // excluded: they never change the computed numbers.
  std::uint64_t h = kFnv1a64Basis;
  auto mix_bytes = [&h](const void* data, std::size_t size) {
    h = fnv1a64(data, size, h);
  };
  auto mix_u64 = [&](std::uint64_t v) { mix_bytes(&v, sizeof(v)); };
  auto mix_f64 = [&](double v) { mix_bytes(&v, sizeof(v)); };
  auto mix_str = [&](const std::string& s) {
    mix_u64(s.size());
    mix_bytes(s.data(), s.size());
  };

  mix_u64(static_cast<std::uint64_t>(config_.epochs));
  mix_u64(static_cast<std::uint64_t>(config_.num_steps));
  mix_u64(static_cast<std::uint64_t>(config_.batch_size));
  mix_f64(config_.base_lr);
  mix_f64(config_.lr_eta_min);
  mix_u64(loader.seed());
  mix_u64(loader.shuffled() ? 1 : 0);
  mix_u64(static_cast<std::uint64_t>(loader.batch_size()));
  mix_u64(static_cast<std::uint64_t>(loader.dataset().size()));
  mix_str(encoder_.name());
  mix_str(typeid(loss_).name());
  for (std::size_t li = 0; li < net_.num_layers(); ++li) {
    for (snn::Param* p : net_.layer(li).params()) {
      mix_str(p->name);
      for (auto d : p->value.shape().dims())
        mix_u64(static_cast<std::uint64_t>(d));
    }
  }
  return h;
}

void Trainer::save_training_state(const std::string& path,
                                  const Adam& opt,
                                  std::int64_t next_epoch,
                                  const data::DataLoader& loader) {
  auto records = snn::network_records(net_, "net.");
  opt.export_state("opt.", records);
  CheckpointMeta meta;
  meta.present = true;
  meta.epoch = next_epoch;
  meta.opt_step = opt.step_count();
  meta.encode_stream = encode_stream_;
  meta.eval_calls = eval_calls_;
  meta.loader_seed = loader.seed();
  meta.config_fingerprint = config_fingerprint(loader);
  meta.lr_scale = lr_scale_;
  meta.extra["optimizer"] = "adam";
  save_checkpoint(path, records, meta);
  if (obs::metrics_enabled())
    obs::add(obs::counter("train.checkpoint.saved"));
}

std::int64_t Trainer::restore_training_state(const std::string& path,
                                             Adam& opt,
                                             const data::DataLoader& loader) {
  const Checkpoint ckpt = load_checkpoint_full(path);
  ST_REQUIRE(ckpt.meta.present,
             "checkpoint has no resume metadata (a plain weight snapshot?): " +
                 path);
  ST_REQUIRE(ckpt.meta.config_fingerprint == config_fingerprint(loader),
             "checkpoint " + path +
                 " was written by a different training setup "
                 "(config fingerprint mismatch); refusing to resume");
  snn::load_network_records(ckpt.records, net_, "net.");
  opt.import_state("opt.", ckpt.records);
  opt.set_step_count(ckpt.meta.opt_step);
  encode_stream_ = ckpt.meta.encode_stream;
  eval_calls_ = ckpt.meta.eval_calls;
  lr_scale_ = ckpt.meta.lr_scale;
  if (obs::metrics_enabled())
    obs::add(obs::counter("train.checkpoint.resumed"));
  return ckpt.meta.epoch;
}

void Trainer::fit(data::DataLoader& loader, const EpochCallback& on_epoch) {
  Adam opt(net_.params(), config_.base_lr);
  CosineAnnealingLr schedule(config_.base_lr, config_.epochs,
                             config_.lr_eta_min);
  CheckpointManager mgr =
      config_.checkpoint_dir.empty()
          ? CheckpointManager()
          : CheckpointManager(config_.checkpoint_dir, config_.keep_last);

  std::int64_t epoch = 0;
  if (config_.resume && mgr.enabled()) {
    if (const auto latest = mgr.latest()) {
      epoch = restore_training_state(*latest, opt, loader);
      obs::flight_record(obs::FlightEventId::kCheckpointRestore,
                         static_cast<std::uint64_t>(epoch));
      if (config_.verbose) {
        ST_LOG_INFO << "resumed training state from " << *latest
                    << " (next epoch " << epoch << "/" << config_.epochs
                    << ")";
      }
    }
  }

  LatencySummary epoch_latency;
  int rollbacks = 0;
  std::int64_t ran_here = 0;
  while (epoch < config_.epochs) {
    obs::PhaseTimer epoch_timer("train.epoch");
    obs::flight_record(obs::FlightEventId::kEpochStart,
                       static_cast<std::uint64_t>(epoch));
    EpochMetrics m;
    try {
      m = train_epoch(loader, opt, schedule, epoch);
    } catch (const RollbackRequested& ex) {
      std::optional<std::string> latest;
      if (mgr.enabled()) latest = mgr.latest();
      if (!latest)
        throw NumericalError(std::string(ex.what()) +
                             "; no checkpoint to roll back to");
      if (rollbacks >= kMaxRollbacks)
        throw NumericalError(std::string(ex.what()) + "; rollback limit (" +
                             std::to_string(kMaxRollbacks) + ") exhausted");
      epoch = restore_training_state(*latest, opt, loader);
      obs::flight_record(obs::FlightEventId::kCheckpointRestore,
                         static_cast<std::uint64_t>(epoch));
      lr_scale_ *= kRollbackLrCut;
      ++rollbacks;
      if (obs::metrics_enabled())
        obs::add(obs::counter("train.health.rollbacks"));
      ST_LOG_WARN << "rolled back to " << *latest << " after: " << ex.what()
                  << "; LR scaled by " << fmt_f(lr_scale_, 4);
      continue;
    }
    epoch_latency.record_seconds(epoch_timer.stop());
    obs::flight_record(
        obs::FlightEventId::kEpochEnd, static_cast<std::uint64_t>(epoch),
        static_cast<std::uint64_t>(m.train_accuracy * 1e6));  // ppm
    obs::trace_counter("train.loss", m.train_loss);
    obs::trace_counter("train.accuracy", m.train_accuracy);
    obs::trace_counter("train.lr", m.lr);
    if (config_.verbose) {
      ST_LOG_INFO << "epoch " << m.epoch + 1 << "/" << config_.epochs
                  << "  loss=" << fmt_f(m.train_loss, 4)
                  << "  acc=" << fmt_pct(m.train_accuracy, 2)
                  << "  lr=" << fmt_f(m.lr, 6);
    }
    if (on_epoch) on_epoch(m);

    ++epoch;
    ++ran_here;
    const bool last = epoch == config_.epochs;
    const bool stopping = config_.stop_after_epochs > 0 &&
                          ran_here >= config_.stop_after_epochs && !last;
    if (mgr.enabled() &&
        (last || stopping || epoch % config_.checkpoint_every == 0)) {
      obs::flight_record(obs::FlightEventId::kCheckpointSave,
                         static_cast<std::uint64_t>(epoch));
      save_training_state(mgr.path_for_epoch(epoch), opt, epoch, loader);
      mgr.prune();
    }
    if (stopping) {
      ST_LOG_INFO << "stopping after " << ran_here << " epoch(s) this run ("
                  << epoch << "/" << config_.epochs
                  << " complete); resume to continue";
      break;
    }
  }
  if (config_.verbose && epoch_latency.count() > 1) {
    ST_LOG_INFO << "epoch wall time: mean="
                << fmt_f(epoch_latency.mean_seconds(), 3) << "s  p50="
                << fmt_f(epoch_latency.p50_seconds(), 3) << "s  p95="
                << fmt_f(epoch_latency.p95_seconds(), 3) << "s";
  }
}

std::uint64_t Trainer::eval_stream(std::uint64_t call, std::uint64_t batch) {
  // Bit 63 tags evaluation; bits [40, 63) hold the call index and the low
  // 40 bits the batch ordinal.  Training streams are plain batch ordinals
  // (a run would need 2^40 batches to reach the tagged space), so the two
  // namespaces are disjoint and every (call, batch) pair is distinct.
  constexpr std::uint64_t kEvalTag = 1ULL << 63;
  constexpr int kBatchBits = 40;
  return kEvalTag | (call << kBatchBits) |
         (batch & ((1ULL << kBatchBits) - 1));
}

std::uint64_t Trainer::probe_stream(std::uint64_t epoch, std::uint64_t batch) {
  // Bit 62 tags the ledger's activity probe.  Training streams are plain
  // ordinals and evaluation streams carry bit 63, so probe draws can never
  // alias either: enabling the run ledger never changes training or eval
  // numbers.  Keyed by epoch so each epoch's probe sees fresh noise.
  constexpr std::uint64_t kProbeTag = 1ULL << 62;
  constexpr int kBatchBits = 40;
  return kProbeTag | (epoch << kBatchBits) |
         (batch & ((1ULL << kBatchBits) - 1));
}

namespace {

// Runs evaluation windows through the sparsity-aware serving path: freeze
// the current weights once per evaluation pass (they may change between
// passes, e.g. after a quantization ablation), then reuse one session's
// buffers for every batch.  The session's spike counts and activity stats
// are bit-identical to the training-path forward (DESIGN.md §10), so every
// downstream number is unchanged.  A network the inference engine cannot
// compile (a Layer subclass it has no op for) is refused.
class EvalEngine {
 public:
  explicit EvalEngine(snn::SpikingNetwork& net) : net_(net) {}

  /// Compiles on the first window (its shape fixes the session's batch);
  /// a layer type CompiledModel cannot run throws InvalidArgument.
  infer::InferenceResult run(const std::vector<Tensor>& steps) {
    if (!session_.has_value()) {
      const Shape& s = steps.front().shape();
      const std::vector<std::int64_t> per_sample(s.dims().begin() + 1,
                                                 s.dims().end());
      model_ = infer::CompiledModel::compile(net_, Shape(per_sample));
      session_.emplace(*model_, infer::InferOptions{.max_batch = s[0],
                                                    .record_stats = true});
    }
    return session_->run(steps);
  }

 private:
  snn::SpikingNetwork& net_;
  std::optional<infer::CompiledModel> model_;
  std::optional<infer::InferenceSession> session_;  // points into model_
};

}  // namespace

snn::SpikeRecord Trainer::record_activity(data::DataLoader& loader,
                                          std::int64_t epoch,
                                          std::int64_t max_batches) {
  ST_PROF_SCOPE("train.activity_probe");
  ST_REQUIRE(max_batches > 0, "record_activity needs max_batches > 0");
  loader.start_epoch(0);
  snn::SpikeRecord record = net_.make_record();
  EvalEngine engine(net_);
  data::Batch batch;
  std::uint64_t batch_idx = 0;
  while (batch_idx < static_cast<std::uint64_t>(max_batches) &&
         loader.next(batch)) {
    const auto steps =
        encoder_.encode(batch.images, config_.num_steps,
                        probe_stream(static_cast<std::uint64_t>(epoch),
                                     batch_idx++));
    record.merge(engine.run(steps).stats);
  }
  return record;
}

EvalMetrics Trainer::evaluate(data::DataLoader& loader) {
  ST_PROF_SCOPE("eval");
  loader.start_epoch(0);

  EvalMetrics out;
  out.record = net_.make_record();
  RunningMean loss_mean;
  RunningMean acc_mean;
  EvalEngine engine(net_);
  data::Batch batch;
  const std::uint64_t call = eval_calls_++;
  std::uint64_t batch_idx = 0;
  while (loader.next(batch)) {
    const auto steps = encoder_.encode(batch.images, config_.num_steps,
                                       eval_stream(call, batch_idx++));
    auto fwd = engine.run(steps);
    const auto lr = loss_.compute(fwd.spike_counts, batch.labels);
    loss_mean.add(lr.loss, batch.batch_size());
    acc_mean.add(snn::accuracy(fwd.spike_counts, batch.labels),
                 batch.batch_size());
    out.record.merge(fwd.stats);
    out.num_examples += batch.batch_size();
  }
  ST_REQUIRE(out.num_examples > 0, "evaluate on empty loader");
  out.loss = loss_mean.mean();
  out.accuracy = acc_mean.mean();
  out.firing_rate = out.record.mean_firing_rate();
  if (obs::metrics_enabled()) {
    // Per-layer firing-rate gauges, namespaced by run_tag so two models
    // training in one process never collide; retiring the prefix first
    // drops stale entries (e.g. after a topology change) from exports.
    const std::string prefix = "train.firing_rate." + config_.run_tag + ".";
    obs::reset_gauges_with_prefix(prefix);
    const auto& layers = out.record.layers();
    for (std::size_t i = 0; i < layers.size(); ++i) {
      if (!layers[i].spiking) continue;
      obs::set(obs::gauge(prefix + std::to_string(i) + "." +
                          layers[i].layer_name),
               layers[i].output_density());
    }
  }
  return out;
}

}  // namespace spiketune::train
