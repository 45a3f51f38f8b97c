#include "exp/experiment.h"

#include <cctype>
#include <filesystem>
#include <memory>

#include "core/error.h"
#include "core/logging.h"
#include "core/parallel.h"
#include "data/synth_svhn.h"
#include "obs/ledger.h"
#include "obs/profiler.h"
#include "obs/spike_health.h"

namespace spiketune::exp {

Profile profile_by_name(const std::string& name) {
  if (name == "fast") return Profile::kFast;
  if (name == "paper") return Profile::kPaper;
  if (name == "smoke") return Profile::kSmoke;
  throw InvalidArgument("unknown profile: " + name +
                        " (expected fast|paper|smoke)");
}

const char* profile_name(Profile profile) {
  switch (profile) {
    case Profile::kFast:
      return "fast";
    case Profile::kPaper:
      return "paper";
    case Profile::kSmoke:
      return "smoke";
  }
  return "?";
}

std::string sanitize_run_id(const std::string& run_id) {
  std::string out;
  out.reserve(run_id.size());
  for (char c : run_id)
    out += std::isalnum(static_cast<unsigned char>(c)) || c == '.' || c == '-'
               ? c
               : '_';
  return out;
}

ExperimentConfig ExperimentConfig::for_profile(Profile profile) {
  ExperimentConfig cfg;
  switch (profile) {
    case Profile::kSmoke:
      // CI-sized: seconds per point, exercises every code path.
      cfg.train_size = 128;
      cfg.test_size = 64;
      cfg.image_size = 12;
      cfg.trainer.epochs = 3;
      cfg.trainer.num_steps = 4;
      cfg.trainer.batch_size = 16;
      break;
    case Profile::kFast:
      cfg.train_size = 768;
      cfg.test_size = 256;
      cfg.image_size = 16;
      cfg.trainer.epochs = 20;
      cfg.trainer.num_steps = 8;
      cfg.trainer.batch_size = 32;
      break;
    case Profile::kPaper:
      cfg.train_size = 8192;
      cfg.test_size = 2048;
      cfg.image_size = 32;
      cfg.trainer.epochs = 25;  // paper: cosine annealing over 25 epochs
      cfg.trainer.num_steps = 25;
      cfg.trainer.batch_size = 64;
      break;
  }
  cfg.model.image_size = cfg.image_size;
  cfg.trainer.base_lr = 5e-3;
  cfg.trainer.verbose = false;
  return cfg;
}

void validate(const ExperimentConfig& config) {
  ST_REQUIRE(config.train_size > 0 && config.test_size > 0,
             "train_size/test_size must be positive");
  ST_REQUIRE(config.image_size > 0, "image_size must be positive");
  ST_REQUIRE(config.model.image_size == config.image_size,
             "model.image_size must match data image_size");
  ST_REQUIRE(config.model.in_channels == 3,
             "svhn dataset requires model.in_channels == 3");
  ST_REQUIRE(config.encoder == "direct" || config.encoder == "rate" ||
                 config.encoder == "latency",
             "unknown encoder: " + config.encoder +
                 " (expected direct|rate|latency)");
  ST_REQUIRE(config.loss == "rate_ce" || config.loss == "count_mse",
             "unknown loss: " + config.loss +
                 " (expected rate_ce|count_mse)");
  const auto& t = config.trainer;
  ST_REQUIRE(t.epochs > 0 && t.num_steps > 0 && t.batch_size > 0,
             "trainer epochs/num_steps/batch_size must be positive");
  ST_REQUIRE(t.base_lr > 0.0, "trainer base_lr must be positive");
  ST_REQUIRE(t.checkpoint_every >= 1, "checkpoint_every must be >= 1");
  ST_REQUIRE(t.keep_last >= 1, "keep_last must be >= 1");
  ST_REQUIRE(t.stop_after_epochs >= 0, "stop_after_epochs must be >= 0");
  // Note: trainer.resume with an empty checkpoint_dir is a no-op, not an
  // error — sweep drivers pass --resume for the journal alone.
  ST_REQUIRE(config.ledger.dir.empty() || !config.ledger.run_id.empty(),
             "ledger.run_id must not be empty when the ledger is enabled");
}

namespace {

/// Test-loader batches the ledger's per-epoch activity probe reads.
constexpr std::int64_t kProbeBatches = 2;

std::vector<obs::LedgerLayerStat> layer_stats(const snn::SpikeRecord& record) {
  std::vector<obs::LedgerLayerStat> out;
  const auto& layers = record.layers();
  out.reserve(layers.size());
  for (std::size_t i = 0; i < layers.size(); ++i) {
    obs::LedgerLayerStat s;
    s.index = static_cast<std::int64_t>(i);
    s.name = layers[i].layer_name;
    s.spiking = layers[i].spiking;
    s.in_density = layers[i].input_density();
    s.out_density = layers[i].output_density();
    out.push_back(std::move(s));
  }
  return out;
}

/// Opens the run's ledger stream (appending when the run resumes into an
/// existing parseable stream) and writes its manifest.
obs::RunLedger open_run_ledger(const ExperimentConfig& config,
                               train::Trainer& trainer,
                               const data::DataLoader& train_loader) {
  namespace fs = std::filesystem;
  std::error_code ec;
  fs::create_directories(config.ledger.dir, ec);
  ST_REQUIRE(!ec && fs::is_directory(config.ledger.dir),
             "cannot create ledger directory: " + config.ledger.dir);
  const std::string path = config.ledger.dir + "/" +
                           sanitize_run_id(config.ledger.run_id) + ".jsonl";

  // A resumed training run appends to its prior stream and stamps the new
  // manifest with the epoch it continues from; an unparseable or fresh file
  // starts over.
  std::int64_t resumed_from = -1;
  if (config.trainer.resume && fs::exists(path)) {
    try {
      const obs::ParsedLedger prior = obs::parse_ledger(path);
      resumed_from =
          prior.epochs.empty() ? 0 : prior.epochs.back().epoch + 1;
    } catch (const std::exception& ex) {
      ST_LOG_WARN << "ledger " << path
                  << " is not resumable (starting fresh): " << ex.what();
    }
  }
  obs::RunLedger ledger(path, /*append=*/resumed_from >= 0);

  obs::LedgerManifest m;
  m.run_id = config.ledger.run_id;
  m.config_fingerprint = trainer.config_fingerprint(train_loader);
  m.seed = config.data_seed;
  m.threads =
      config.trainer.threads > 0 ? config.trainer.threads : num_threads();
  m.argv = config.ledger.argv;
  m.build = std::string("cxx ") + __VERSION__;
  m.resumed_from = resumed_from;
  m.info = {{"dataset", "svhn"},
            {"encoder", config.encoder},
            {"loss", config.loss},
            {"device", config.accel.device.name},
            {"surrogate", config.model.lif.surrogate.name()},
            {"run_tag", trainer.config().run_tag}};
  m.params = {
      {"epochs", static_cast<double>(config.trainer.epochs)},
      {"num_steps", static_cast<double>(config.trainer.num_steps)},
      {"batch_size", static_cast<double>(config.trainer.batch_size)},
      {"base_lr", config.trainer.base_lr},
      {"beta", static_cast<double>(config.model.lif.beta)},
      {"theta", static_cast<double>(config.model.lif.threshold)},
      {"train_size", static_cast<double>(config.train_size)},
      {"test_size", static_cast<double>(config.test_size)},
      {"image_size", static_cast<double>(config.image_size)},
  };
  ledger.write_manifest(m);
  return ledger;
}

}  // namespace

ExperimentResult run_experiment(const ExperimentConfig& config) {
  validate(config);

  // Data: deterministic synthetic splits, materialized once.
  const auto splits = data::make_synth_svhn_splits(
      config.train_size, config.test_size, config.image_size,
      config.data_seed);
  std::shared_ptr<const data::Dataset> train_ds =
      std::make_shared<data::InMemoryDataset>(
          data::InMemoryDataset::from(splits.train));
  std::shared_ptr<const data::Dataset> test_ds =
      std::make_shared<data::InMemoryDataset>(
          data::InMemoryDataset::from(splits.test));
  if (config.normalize) {
    // Train-split statistics applied to both splits (no test leakage).
    const auto means = data::channel_means(*train_ds);
    const std::vector<float> stds(means.size(), 0.25f);
    train_ds =
        std::make_shared<data::NormalizedDataset>(train_ds, means, stds);
    test_ds = std::make_shared<data::NormalizedDataset>(test_ds, means, stds);
  }
  data::DataLoader train_loader(train_ds, config.trainer.batch_size,
                                /*shuffle=*/true, config.data_seed);
  data::DataLoader test_loader(test_ds, config.trainer.batch_size,
                               /*shuffle=*/false);

  // Model + training stack.
  auto net = snn::make_svhn_csnn(config.model);
  auto encoder = data::make_encoder(config.encoder, config.data_seed ^ 0xE);
  // validate() has accepted the loss name: it is rate_ce or count_mse.
  std::unique_ptr<snn::Loss> loss;
  if (config.loss == "rate_ce")
    loss = std::make_unique<snn::RateCrossEntropyLoss>(
        static_cast<double>(config.trainer.num_steps));
  else
    loss = std::make_unique<snn::CountMseLoss>(config.trainer.num_steps);
  train::Trainer trainer(*net, *encoder, *loss, config.trainer);

  // Run ledger: manifest now, one epoch record per epoch via the fit
  // callback, warnings as the spike-health monitor fires, final at the end.
  obs::RunLedger ledger;
  obs::SpikeHealthMonitor spike_health;
  if (!config.ledger.dir.empty())
    ledger = open_run_ledger(config, trainer, train_loader);

  // PhaseTimer both feeds the profiler/trace and yields the wall time for
  // the result struct, so the report and the telemetry agree by
  // construction.
  obs::PhaseTimer train_timer("experiment.train");
  double final_train_acc = 0.0;
  bool hw_projection_ok = true;
  trainer.fit(train_loader, [&](const train::EpochMetrics& m) {
    final_train_acc = m.train_accuracy;
    if (!ledger.enabled()) return;
    // Cheap activity probe on a few test batches; its encoder streams are
    // namespaced (Trainer::probe_stream) so training numbers are untouched.
    const snn::SpikeRecord record = trainer.record_activity(
        test_loader, m.epoch, kProbeBatches);
    obs::LedgerEpoch e;
    e.epoch = m.epoch;
    e.train_loss = m.train_loss;
    e.train_accuracy = m.train_accuracy;
    e.lr = m.lr;
    e.grad_norm_mean = m.grad_norm_mean;
    e.grad_norm_max = m.grad_norm_max;
    e.firing_rate = record.mean_firing_rate();
    e.layers = layer_stats(record);
    if (hw_projection_ok) {
      try {
        e.hw = hw::projection_values(hw::Accelerator(config.accel).map(
            *net, record, config.trainer.num_steps));
      } catch (const std::exception& ex) {
        // E.g. the model exceeds device BRAM: record epochs without hw
        // trajectories rather than killing the training run.
        hw_projection_ok = false;
        ST_LOG_WARN << "ledger hw projection disabled: " << ex.what();
      }
    }
    ledger.write_epoch(e);
    for (const obs::LedgerWarning& w :
         spike_health.check(m.epoch, e.layers)) {
      ledger.write_warning(w);
      ST_LOG_WARN << "spike-health [" << w.detector << "]: " << w.message;
    }
  });
  const double train_seconds = train_timer.stop();

  train::EvalMetrics eval;
  {
    obs::PhaseTimer eval_timer("experiment.eval");
    eval = trainer.evaluate(test_loader);
  }

  // Hardware mapping from measured activity.
  hw::Accelerator accel(config.accel);
  ExperimentResult result;
  {
    obs::PhaseTimer map_timer("experiment.map");
    result.mapping = accel.map(*net, eval.record, config.trainer.num_steps,
                               config.validate_with_sim);
  }
  result.accuracy = eval.accuracy;
  result.loss = eval.loss;
  result.firing_rate = eval.firing_rate;
  result.sparsity = 1.0 - eval.firing_rate;
  result.latency_us = result.mapping.perf.latency_s * 1e6;
  result.throughput_fps = result.mapping.perf.throughput_fps;
  result.watts = result.mapping.perf.power.total();
  result.fps_per_watt = result.mapping.perf.fps_per_watt;
  result.final_train_accuracy = final_train_acc;
  result.train_seconds = train_seconds;

  if (ledger.enabled()) {
    obs::LedgerFinal f;
    for (const ResultField& field : kResultFields)
      f.values.emplace_back(field.name, result.*field.member);
    ledger.write_final(f);
  }
  return result;
}

}  // namespace spiketune::exp
