// train-point: one scaled-down Fig. 2 sweep point at the knee.
//
// The timed loop is exp::run_experiment, the call a sweep makes per grid
// cell: SynthSvhn 16x16 splits, one Trainer epoch (Adam, cosine annealing,
// T=8, batch 32), evaluate, then the hw mapping with event-sim validation.
// Dense im2col+GEMM BPTT does nearly all of its work.
//
// Gates: every repeat is bit-identical (accuracy, firing rate, simulated hw
// outputs); the same point rebuilt by hand from the public calls matches
// run_experiment bit for bit; and evaluate() matches a direct
// SpikingNetwork::forward over the same encoder streams.  The traced run
// drives the epoch by hand, one span per public call, and checks that it
// reproduces Trainer::train_epoch's loss and accuracy bit for bit.
#include <memory>
#include <string>
#include <vector>

#include "core/parallel.h"
#include "core/rng.h"
#include "data/dataloader.h"
#include "data/encoders.h"
#include "data/synth_svhn.h"
#include "exp/experiment.h"
#include "exp/sweep.h"
#include "gates.h"
#include "hw/accelerator.h"
#include "hw/event_sim.h"
#include "phases.h"
#include "snn/loss.h"
#include "snn/model_zoo.h"
#include "stats.h"
#include "train/lr_scheduler.h"
#include "train/optimizer.h"
#include "train/trainer.h"

namespace perfbench {

namespace st = spiketune;

namespace {

constexpr std::int64_t kTrainImages = 128;
constexpr std::int64_t kTestImages = 64;
// The four LIF stages of the CSNN, by the weighted layer feeding them.
constexpr const char* kLifNames[] = {"conv1", "conv2", "fc1", "out"};

st::exp::ExperimentConfig point_config(std::uint64_t seed) {
  auto cfg = st::exp::ExperimentConfig::for_profile(st::exp::Profile::kFast);
  cfg.train_size = kTrainImages;
  cfg.test_size = kTestImages;
  cfg.data_seed = 0xda7a0000ULL ^ seed;
  cfg.trainer.epochs = 1;
  cfg.trainer.threads = kKernelThreads;
  cfg.model.lif.beta = 0.5f;
  cfg.model.lif.threshold = 1.5f;
  cfg.model.lif.surrogate = st::snn::Surrogate::fast_sigmoid(
      static_cast<float>(st::exp::kFig2FastSigmoidSlope));
  cfg.validate_with_sim = true;
  return cfg;
}

struct EpochTotals {
  double loss = 0.0;
  double accuracy = 0.0;
};

/// One training epoch driven by hand through the public calls, exactly as
/// Trainer::train_epoch runs epoch 0 of a fresh fit() (its health checks
/// only read the gradients), with one span per call.
EpochTotals hand_epoch(const st::exp::ExperimentConfig& cfg,
                       st::snn::SpikingNetwork& net,
                       const st::data::SpikeEncoder& encoder,
                       const st::snn::Loss& loss,
                       st::data::DataLoader& loader, Tracer& tr) {
  Span epoch(tr, "train.epoch");
  st::train::Adam opt(net.params(), cfg.trainer.base_lr);
  const st::train::CosineAnnealingLr schedule(
      cfg.trainer.base_lr, cfg.trainer.epochs, cfg.trainer.lr_eta_min);
  opt.set_lr(schedule.lr_at(0));
  loader.start_epoch(0);
  st::train::RunningMean loss_mean;
  st::train::RunningMean acc_mean;
  st::data::Batch batch;
  std::uint64_t stream = 0;
  for (;;) {
    bool more = false;
    {
      Span s(tr, "data.loader_next");
      more = loader.next(batch);
    }
    if (!more) break;
    std::vector<st::Tensor> steps;
    {
      Span s(tr, "data.encode");
      steps = encoder.encode(batch.images, cfg.trainer.num_steps, stream++);
    }
    net.zero_grad();
    st::snn::ForwardResult fwd;
    {
      Span s(tr, "snn.forward_train");
      fwd = net.forward(steps, {.training = true});
    }
    st::snn::LossResult lr;
    {
      Span s(tr, "train.loss");
      lr = loss.compute(fwd.spike_counts, batch.labels);
    }
    {
      Span s(tr, "snn.backward");
      net.backward(lr.grad_counts);
    }
    {
      Span s(tr, "train.optim_step");
      opt.step();
    }
    loss_mean.add(lr.loss, batch.batch_size());
    acc_mean.add(st::snn::accuracy(fwd.spike_counts, batch.labels),
                 batch.batch_size());
  }
  return {loss_mean.mean(), acc_mean.mean()};
}

/// evaluate() must equal a direct dense forward over the same batches and
/// the same encoder streams (the first evaluate() call of a Trainer).
void gate_evaluate_matches_forward(const st::exp::ExperimentConfig& cfg,
                                   st::snn::SpikingNetwork& net,
                                   const st::data::SpikeEncoder& encoder,
                                   const st::snn::Loss& loss,
                                   st::data::DataLoader& loader,
                                   const st::train::EvalMetrics& eval) {
  loader.start_epoch(0);
  st::snn::SpikeRecord record = net.make_record();
  st::train::RunningMean loss_mean;
  st::train::RunningMean acc_mean;
  st::data::Batch batch;
  std::uint64_t b = 0;
  while (loader.next(batch)) {
    const auto steps =
        encoder.encode(batch.images, cfg.trainer.num_steps,
                       st::train::Trainer::eval_stream(0, b++));
    const auto fwd = net.forward(steps, {.record_stats = true});
    loss_mean.add(loss.compute(fwd.spike_counts, batch.labels).loss,
                  batch.batch_size());
    acc_mean.add(st::snn::accuracy(fwd.spike_counts, batch.labels),
                 batch.batch_size());
    record.merge(fwd.stats);
  }
  gate_same_bits(eval.accuracy, acc_mean.mean(),
                 "evaluate vs direct forward: accuracy");
  gate_same_bits(eval.loss, loss_mean.mean(),
                 "evaluate vs direct forward: loss");
  gate_records_equal(eval.record, record, "evaluate vs direct forward");
}

/// The sweep point rebuilt from the public calls, in run_experiment's
/// order.  Traced, the epoch is driven by hand (hand_epoch) instead of
/// Trainer::fit.
st::exp::ExperimentResult hand_point(const st::exp::ExperimentConfig& cfg,
                                     RunContext& ctx) {
  Tracer& tr = *ctx.tracer;
  const std::int64_t T = cfg.trainer.num_steps;
  const std::int64_t bs = cfg.trainer.batch_size;
  auto encoder = st::data::make_encoder(cfg.encoder, cfg.data_seed ^ 0xE);
  const st::snn::RateCrossEntropyLoss loss(static_cast<double>(T));
  st::exp::ExperimentResult r;
  std::shared_ptr<const st::data::Dataset> train_ds;
  std::shared_ptr<const st::data::Dataset> test_ds;
  std::unique_ptr<st::snn::SpikingNetwork> net;
  std::unique_ptr<st::data::DataLoader> test_loader;
  st::train::EvalMetrics eval;
  EpochTotals hand;
  {
    Span point(tr, "exp.point");
    {
      Span s(tr, "data.synth");
      const auto splits = st::data::make_synth_svhn_splits(
          cfg.train_size, cfg.test_size, cfg.image_size, cfg.data_seed);
      train_ds = std::make_shared<st::data::InMemoryDataset>(
          st::data::InMemoryDataset::from(splits.train));
      test_ds = std::make_shared<st::data::InMemoryDataset>(
          st::data::InMemoryDataset::from(splits.test));
    }
    const auto means = st::data::channel_means(*train_ds);
    const std::vector<float> stds(means.size(), 0.25f);
    train_ds =
        std::make_shared<st::data::NormalizedDataset>(train_ds, means, stds);
    test_ds =
        std::make_shared<st::data::NormalizedDataset>(test_ds, means, stds);
    st::data::DataLoader train_loader(train_ds, bs, /*shuffle=*/true,
                                      cfg.data_seed);
    test_loader = std::make_unique<st::data::DataLoader>(test_ds, bs,
                                                         /*shuffle=*/false);
    net = st::snn::make_svhn_csnn(cfg.model);
    st::train::Trainer trainer(*net, *encoder, loss, cfg.trainer);
    if (ctx.traced()) {
      hand = hand_epoch(cfg, *net, *encoder, loss, train_loader, tr);
      r.final_train_accuracy = hand.accuracy;
    } else {
      trainer.fit(train_loader, [&](const st::train::EpochMetrics& m) {
        r.final_train_accuracy = m.train_accuracy;
      });
    }
    {
      Span s(tr, "train.evaluate");
      eval = trainer.evaluate(*test_loader);
    }
    {
      Span s(tr, "hw.map");
      r.mapping = st::hw::Accelerator(cfg.accel).map(
          *net, eval.record, T, cfg.validate_with_sim);
    }
  }
  r.accuracy = eval.accuracy;
  r.loss = eval.loss;
  r.firing_rate = eval.firing_rate;
  gate_evaluate_matches_forward(cfg, *net, *encoder, loss, *test_loader, eval);

  if (ctx.traced()) {
    // The hand-driven epoch must equal Trainer::train_epoch from the same
    // seeds, or its decomposition describes some other computation.
    auto twin = st::snn::make_svhn_csnn(cfg.model);
    st::data::DataLoader twin_loader(train_ds, bs, /*shuffle=*/true,
                                     cfg.data_seed);
    st::train::Trainer twin_trainer(*twin, *encoder, loss, cfg.trainer);
    st::train::Adam opt(twin->params(), cfg.trainer.base_lr);
    const st::train::CosineAnnealingLr schedule(
        cfg.trainer.base_lr, cfg.trainer.epochs, cfg.trainer.lr_eta_min);
    const auto m = twin_trainer.train_epoch(twin_loader, opt, schedule, 0);
    gate_same_bits(m.train_loss, hand.loss, "hand epoch vs train_epoch loss");
    gate_same_bits(m.train_accuracy, hand.accuracy,
                   "hand epoch vs train_epoch accuracy");

    std::int64_t spiking = 0;
    for (const auto& layer : eval.record.layers()) {
      if (!layer.spiking) continue;
      gate(spiking < 4, "the CSNN has four LIF stages");
      ctx.layer.add(std::string("snn.firing_rate.") + kLifNames[spiking++],
                    layer.output_density(), "ratio");
    }
    gate(spiking == 4, "the CSNN has four LIF stages");
  }
  return r;
}

/// Host cost of the cycle-level simulator on a trace drawn for the mapped
/// workloads.
void event_sim_probe(const st::exp::ExperimentConfig& cfg,
                     const st::exp::ExperimentResult& r, RunContext& ctx) {
  st::Rng rng(ctx.seed);
  const auto trace =
      st::hw::random_trace(r.mapping.workloads, cfg.trainer.num_steps, rng);
  const auto sim_cfg = st::hw::EventSimConfig::from(
      r.mapping.workloads, r.mapping.allocation, cfg.accel.device);
  std::int64_t events = 0;
  for (const auto& step : trace)
    for (std::int64_t e : step) events += e;
  Span span(*ctx.tracer, "hw.event_sim");
  const double ms = 1e-6 * ns_per_call([&] {
    gate(st::hw::simulate_inference(sim_cfg, trace).total_cycles > 0.0,
         "event simulation ran");
  });
  ctx.layer.add("hw.event_sim_ms", ms, "ms");
  ctx.layer.add("hw.sim_events", static_cast<double>(events), "count");
  ctx.layer.add("hw.host_ns_per_sim_event",
                ms * 1e6 / static_cast<double>(events), "ns");
}

double per_call_ms(const Tracer& tr, const char* name) {
  const std::int64_t n = tr.count(name);
  gate(n > 0, std::string("no spans named ") + name);
  return tr.total_ms(name) / static_cast<double>(n);
}

}  // namespace

TrainPhase::TrainPhase(std::uint64_t seed) : cfg_(point_config(seed)) {}

void TrainPhase::measure(RunContext& ctx, double seconds) {
  // Time owed carries across rounds, so a round that overran its share by
  // part of a point takes it back from the next.
  owed_s_ += seconds;
  const std::int64_t t0 = now_ns();
  double spent = 0.0;
  // Two repeats at least, whatever the time: the repeat gate compares them.
  while (spent < owed_s_ || results_.size() < 2) {
    const std::int64_t start = now_ns();
    results_.push_back(st::exp::run_experiment(cfg_));
    point_s_.push_back(static_cast<double>(now_ns() - start) * 1e-9);
    samples_per_s_.push_back(static_cast<double>(cfg_.train_size) /
                             results_.back().train_seconds);
    ++ctx.attempted;
    spent = static_cast<double>(now_ns() - t0) * 1e-9;
  }
  owed_s_ -= spent;
}

void TrainPhase::finish(RunContext& ctx) {
  const auto& cfg = cfg_;
  gate(results_.size() >= 2, "at least two repeats of the point");
  for (std::size_t i = 1; i < results_.size(); ++i)
    gate_experiment_equal(results_[0], results_[i],
                          "repeat " + std::to_string(i) + " vs repeat 0");
  gate(results_[0].mapping.event_sim.has_value(), "event-sim validation ran");

  const auto hand = hand_point(cfg, ctx);
  gate_experiment_equal(results_[0], hand,
                        "hand-built point vs run_experiment");

  ctx.e2e.add("train_samples_per_s", median(samples_per_s_), "1/s");
  ctx.e2e.add("point_s", median(point_s_), "s");
  if (!ctx.traced()) return;

  const Tracer& tr = *ctx.tracer;
  ctx.layer.add("data.synth_us_per_image",
                tr.total_ms("data.synth") * 1e3 /
                    static_cast<double>(cfg.train_size + cfg.test_size),
                "us");
  ctx.layer.add("data.loader_next_ms_per_batch",
                per_call_ms(tr, "data.loader_next"), "ms");
  ctx.layer.add("data.encode_ms_per_batch", per_call_ms(tr, "data.encode"),
                "ms");
  ctx.layer.add("snn.forward_train_ms_per_batch",
                per_call_ms(tr, "snn.forward_train"), "ms");
  ctx.layer.add("snn.backward_ms_per_batch", per_call_ms(tr, "snn.backward"),
                "ms");
  ctx.layer.add("train.loss_ms_per_batch", per_call_ms(tr, "train.loss"),
                "ms");
  ctx.layer.add("train.optim_step_ms_per_batch",
                per_call_ms(tr, "train.optim_step"), "ms");
  ctx.layer.add("train.evaluate_ms", tr.total_ms("train.evaluate"), "ms");
  const double epoch_ms = tr.total_ms("train.epoch");
  ctx.layer.add("train.epoch_ms", epoch_ms, "ms");
  ctx.layer.add("train.decomp_residual_pct",
                100.0 * (epoch_ms - tr.children_ms("train.epoch")) / epoch_ms,
                "%");
  ctx.layer.add("hw.map_ms", tr.total_ms("hw.map"), "ms");
  ctx.layer.add("hw.sim_cycles", hand.mapping.event_sim->total_cycles,
                "count");
  event_sim_probe(cfg, hand, ctx);
  // Traced point (spans on) against the untraced repeats' median.
  const double traced_s = tr.total_ms("exp.point") * 1e-3;
  ctx.layer.add("trace.overhead_pct.train",
                100.0 * (traced_s - median(point_s_)) / median(point_s_), "%");
}

}  // namespace perfbench
