// Crash-safety and numerical-guard-rail tests: CRC'd STK2 checkpoints,
// atomic publication, bit-identical training resume, journaled sweeps, and
// the NaN/Inf health policies.
#include <gtest/gtest.h>

#include <cfloat>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <iterator>
#include <limits>
#include <filesystem>
#include <fstream>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/crc32.h"
#include "core/error.h"
#include "core/rng.h"
#include "core/serialize.h"
#include "data/dataloader.h"
#include "data/encoders.h"
#include "exp/journal.h"
#include "exp/report.h"
#include "exp/sweep.h"
#include "snn/checkpoint.h"
#include "snn/layers.h"
#include "snn/lif.h"
#include "snn/linear.h"
#include "snn/loss.h"
#include "train/checkpoint_manager.h"
#include "train/trainer.h"

namespace spiketune {
namespace {

namespace fs = std::filesystem;

std::string tmp_path(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

void write_file(const std::string& path, const std::string& data) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(data.data(), static_cast<std::streamsize>(data.size()));
}

std::vector<NamedTensor> sample_records(float seed) {
  std::vector<NamedTensor> records;
  records.push_back({"layer0.w", Tensor(Shape{2, 2}, {seed, 2, 3, 4})});
  records.push_back({"layer1.b", Tensor(Shape{3}, {5, 6, seed + 1})});
  return records;
}

// ---------------------------------------------------------------------------
// CRC32

TEST(Crc32, KnownAnswer) {
  // The CRC-32/IEEE check value for "123456789".
  const char msg[] = "123456789";
  EXPECT_EQ(crc32(msg, 9), 0xCBF43926u);
  EXPECT_EQ(crc32(msg, 0), 0u);
}

TEST(Crc32, IncrementalMatchesOneShot) {
  const std::string data = "the quick brown fox jumps over the lazy dog";
  std::uint32_t inc = crc32_update(0, data.data(), 10);
  inc = crc32_update(inc, data.data() + 10, data.size() - 10);
  EXPECT_EQ(inc, crc32(data.data(), data.size()));
}

// ---------------------------------------------------------------------------
// FNV-1a

TEST(Fnv1a64, KnownAnswer) {
  // Reference values of the 64-bit FNV-1a test suite.
  EXPECT_EQ(fnv1a64("", 0), 0xcbf29ce484222325ull);
  EXPECT_EQ(fnv1a64("", 0), kFnv1a64Basis);
  EXPECT_EQ(fnv1a64("a", 1), 0xaf63dc4c8601ec8cull);
  EXPECT_EQ(fnv1a64("foobar", 6), 0x85944171f73967e8ull);
}

TEST(Fnv1a64, IncrementalMatchesOneShot) {
  const std::string data = "the quick brown fox jumps over the lazy dog";
  const std::uint64_t inc =
      fnv1a64(data.data() + 10, data.size() - 10, fnv1a64(data.data(), 10));
  EXPECT_EQ(inc, fnv1a64(data.data(), data.size()));
}

// ---------------------------------------------------------------------------
// STK2 container

TEST(CheckpointV2, MetaRoundTrips) {
  const std::string path = tmp_path("meta_rt.stk");
  CheckpointMeta meta;
  meta.epoch = 7;
  meta.opt_step = 91;
  meta.encode_stream = 1234;
  meta.eval_calls = 3;
  meta.loader_seed = 0xda7a;
  meta.config_fingerprint = 0xfeedfacecafef00dull;
  meta.lr_scale = 0.25;
  meta.extra["optimizer"] = "adam";
  meta.extra["note"] = "hello world";
  save_checkpoint(path, sample_records(1.0f), meta);

  const Checkpoint ckpt = load_checkpoint_full(path);
  ASSERT_TRUE(ckpt.meta.present);
  EXPECT_EQ(ckpt.meta.epoch, 7);
  EXPECT_EQ(ckpt.meta.opt_step, 91);
  EXPECT_EQ(ckpt.meta.encode_stream, 1234u);
  EXPECT_EQ(ckpt.meta.eval_calls, 3u);
  EXPECT_EQ(ckpt.meta.loader_seed, 0xda7aull);
  EXPECT_EQ(ckpt.meta.config_fingerprint, 0xfeedfacecafef00dull);
  EXPECT_DOUBLE_EQ(ckpt.meta.lr_scale, 0.25);
  EXPECT_EQ(ckpt.meta.extra.at("optimizer"), "adam");
  EXPECT_EQ(ckpt.meta.extra.at("note"), "hello world");
  ASSERT_EQ(ckpt.records.size(), 2u);
  EXPECT_EQ(ckpt.records[0].name, "layer0.w");
  EXPECT_FLOAT_EQ(ckpt.records[1].value[2], 2.0f);
}

TEST(CheckpointV2, NoMetaSnapshotLoadsWithPresentFalse) {
  const std::string path = tmp_path("nometa.stk");
  save_checkpoint(path, sample_records(1.0f));
  const Checkpoint ckpt = load_checkpoint_full(path);
  EXPECT_FALSE(ckpt.meta.present);
}

TEST(CheckpointV1, LegacyStk1FileIsRejectedByName) {
  // The whole of an empty STK1 file: magic, u32 version 1, u64 count 0.
  const std::uint32_t magic = 0x53544b31;  // "STK1"
  const std::uint32_t version = 1;
  const std::uint64_t count = 0;
  std::string bytes;
  bytes.append(reinterpret_cast<const char*>(&magic), sizeof magic);
  bytes.append(reinterpret_cast<const char*>(&version), sizeof version);
  bytes.append(reinterpret_cast<const char*>(&count), sizeof count);
  const std::string path = tmp_path("legacy.stk");
  write_file(path, bytes);
  try {
    load_checkpoint(path);
    ADD_FAILURE() << "an STK1 file was loaded";
  } catch (const InvalidArgument& e) {
    EXPECT_NE(std::string(e.what()).find("STK1"), std::string::npos)
        << e.what();
  }
}

TEST(CheckpointCorruption, ZeroLengthFileRejected) {
  const std::string path = tmp_path("zero.stk");
  write_file(path, "");
  EXPECT_THROW(load_checkpoint(path), InvalidArgument);
}

TEST(CheckpointCorruption, WrongMagicRejected) {
  const std::string path = tmp_path("magic.stk");
  write_file(path, "NOTACHECKPOINTFILE--------------");
  EXPECT_THROW(load_checkpoint(path), InvalidArgument);
}

TEST(CheckpointCorruption, TruncationRejectedAtEveryLength) {
  const std::string path = tmp_path("trunc.stk");
  save_checkpoint(path, sample_records(1.0f));
  const std::string full = read_file(path);
  ASSERT_GT(full.size(), 16u);
  // Chop at a spread of offsets, including just-shy-of-complete.
  for (std::size_t keep :
       {std::size_t{1}, std::size_t{4}, full.size() / 4, full.size() / 2,
        full.size() - 5, full.size() - 1}) {
    const std::string trunc_path = tmp_path("trunc_cut.stk");
    write_file(trunc_path, full.substr(0, keep));
    EXPECT_THROW(load_checkpoint(trunc_path), InvalidArgument)
        << "kept " << keep << " of " << full.size() << " bytes";
  }
}

TEST(CheckpointCorruption, EveryBitFlipIsCaughtByCrc) {
  const std::string path = tmp_path("flip.stk");
  save_checkpoint(path, sample_records(1.0f));
  const std::string full = read_file(path);
  // Flip one bit in every byte position; the CRC (or a sanity bound hit
  // before it) must reject all of them.
  for (std::size_t i = 0; i < full.size(); ++i) {
    std::string bad = full;
    bad[i] = static_cast<char>(bad[i] ^ 0x10);
    const std::string bad_path = tmp_path("flip_bad.stk");
    write_file(bad_path, bad);
    EXPECT_THROW(load_checkpoint(bad_path), InvalidArgument)
        << "flip at byte " << i;
  }
}

TEST(AtomicCheckpoint, KillBeforeRenameLeavesPreviousFileIntact) {
  const std::string path = tmp_path("atomic.stk");
  save_checkpoint(path, sample_records(1.0f));
  testing::checkpoint_pre_rename_hook = [] {
    throw std::runtime_error("simulated kill before rename");
  };
  EXPECT_THROW(save_checkpoint(path, sample_records(100.0f)),
               std::runtime_error);
  testing::checkpoint_pre_rename_hook = nullptr;

  // The previous checkpoint is fully readable and no temp file is left.
  const auto records = load_checkpoint(path);
  ASSERT_EQ(records.size(), 2u);
  EXPECT_FLOAT_EQ(records[0].value[0], 1.0f);
  EXPECT_FALSE(fs::exists(path + ".tmp"));

  // And a non-killed retry publishes the new contents.
  save_checkpoint(path, sample_records(100.0f));
  EXPECT_FLOAT_EQ(load_checkpoint(path)[0].value[0], 100.0f);
}

// ---------------------------------------------------------------------------
// Checkpoint directory management

TEST(CheckpointManager, NamingListingAndRetention) {
  const std::string dir = tmp_path("mgr_dir");
  fs::remove_all(dir);
  train::CheckpointManager mgr(dir, /*keep_last=*/2);
  ASSERT_TRUE(mgr.enabled());
  EXPECT_EQ(mgr.path_for_epoch(7), dir + "/ckpt-000007.stk");
  EXPECT_EQ(train::CheckpointManager::epoch_of("ckpt-000042.stk"), 42);
  EXPECT_FALSE(train::CheckpointManager::epoch_of("weights.bin").has_value());
  EXPECT_FALSE(mgr.latest().has_value());

  for (std::int64_t e : {3, 1, 2})
    save_checkpoint(mgr.path_for_epoch(e), sample_records(float(e)));
  // A stray non-checkpoint file must never be touched or listed.
  write_file(dir + "/notes.txt", "keep me");

  const auto all = mgr.list();
  ASSERT_EQ(all.size(), 3u);
  EXPECT_EQ(all.front(), mgr.path_for_epoch(1));
  EXPECT_EQ(all.back(), mgr.path_for_epoch(3));
  EXPECT_EQ(mgr.latest(), mgr.path_for_epoch(3));

  mgr.prune();
  const auto kept = mgr.list();
  ASSERT_EQ(kept.size(), 2u);
  EXPECT_EQ(kept.front(), mgr.path_for_epoch(2));
  EXPECT_EQ(kept.back(), mgr.path_for_epoch(3));
  EXPECT_TRUE(fs::exists(dir + "/notes.txt"));
}

// ---------------------------------------------------------------------------
// Optimizer state round trip

TEST(OptimizerState, AdamExportImportContinuesBitIdentically) {
  auto make_param = [] {
    return snn::Param("w", Tensor(Shape{3}, {0.5f, -1.0f, 2.0f}));
  };
  auto step_with_grad = [](train::Adam& opt, snn::Param& p, float g) {
    p.grad = Tensor(Shape{3}, {g, -g, 0.5f * g});
    opt.step();
  };

  // Reference: six uninterrupted steps.
  snn::Param ref = make_param();
  train::Adam ref_opt({&ref}, 1e-2);
  for (int i = 0; i < 6; ++i) step_with_grad(ref_opt, ref, 0.1f * (i + 1));

  // Interrupted: three steps, export, import into a fresh Adam, three more.
  snn::Param p = make_param();
  std::vector<NamedTensor> records;
  {
    train::Adam opt({&p}, 1e-2);
    for (int i = 0; i < 3; ++i) step_with_grad(opt, p, 0.1f * (i + 1));
    opt.export_state("opt.", records);
    EXPECT_EQ(opt.step_count(), 3);
  }
  train::Adam resumed({&p}, 1e-2);
  resumed.import_state("opt.", records);
  resumed.set_step_count(3);
  for (int i = 3; i < 6; ++i) step_with_grad(resumed, p, 0.1f * (i + 1));

  for (int i = 0; i < 3; ++i)
    EXPECT_EQ(p.value[i], ref.value[i]) << "weight " << i;  // bit-identical
}

TEST(OptimizerState, ImportRejectsMismatchedState) {
  snn::Param a("w", Tensor(Shape{3}));
  snn::Param b("w", Tensor(Shape{4}));
  std::vector<NamedTensor> records;
  train::Adam src({&a}, 1e-2);
  src.export_state("opt.", records);
  train::Adam dst({&b}, 1e-2);
  EXPECT_THROW(dst.import_state("opt.", records), InvalidArgument);
}

// ---------------------------------------------------------------------------
// Trainer resume: bit-identical interrupted-vs-straight runs

// Trivially separable task (left half lit = class 0, right half = class 1).
class ToyDataset final : public data::Dataset {
 public:
  explicit ToyDataset(std::int64_t n) : n_(n) {}
  std::int64_t size() const override { return n_; }
  int num_classes() const override { return 2; }
  Shape image_shape() const override { return Shape{1, 4, 4}; }
  data::Example get(std::int64_t i) const override {
    data::Example ex;
    ex.label = static_cast<int>(i % 2);
    ex.image = Tensor(Shape{1, 4, 4});
    Rng rng = Rng(999).fork(static_cast<std::uint64_t>(i));
    for (std::int64_t y = 0; y < 4; ++y)
      for (std::int64_t x = 0; x < 4; ++x) {
        const bool hot = (ex.label == 0) ? (x < 2) : (x >= 2);
        ex.image.at({0, y, x}) =
            hot ? static_cast<float>(rng.uniform(0.7, 1.0))
                : static_cast<float>(rng.uniform(0.0, 0.15));
      }
    return ex;
  }

 private:
  std::int64_t n_;
};

std::unique_ptr<snn::SpikingNetwork> make_toy_net() {
  snn::LifConfig lif;
  lif.beta = 0.5f;
  lif.threshold = 0.5f;
  lif.surrogate = snn::Surrogate::fast_sigmoid(2.0f);
  auto net = std::make_unique<snn::SpikingNetwork>();
  net->add<snn::Flatten>();
  Rng rng(123);
  net->add<snn::Linear>(snn::LinearConfig{16, 16}, rng);
  net->add<snn::Lif>(lif);
  net->add<snn::Linear>(snn::LinearConfig{16, 2}, rng);
  net->add<snn::Lif>(lif);
  return net;
}

train::TrainerConfig toy_trainer_config(int threads) {
  train::TrainerConfig tcfg;
  tcfg.epochs = 6;
  tcfg.num_steps = 8;
  tcfg.batch_size = 16;
  tcfg.base_lr = 5e-3;
  tcfg.verbose = false;
  tcfg.threads = threads;
  return tcfg;
}

std::vector<float> weight_snapshot(snn::SpikingNetwork& net) {
  std::vector<float> out;
  for (snn::Param* p : net.params())
    out.insert(out.end(), p->value.data(), p->value.data() + p->numel());
  return out;
}

struct ToyRunResult {
  std::vector<float> weights;
  train::EvalMetrics eval;
};

// Trains the toy task for 6 epochs; when `interrupt` is set, stops after 3
// epochs and resumes in a fresh Trainer/net/loader (a simulated process
// restart) for the rest.
ToyRunResult run_toy_training(int threads, const std::string& ckpt_dir,
                              bool interrupt) {
  auto ds = std::make_shared<data::InMemoryDataset>(
      data::InMemoryDataset::from(ToyDataset(64)));
  data::RateEncoder encoder(42);
  snn::RateCrossEntropyLoss loss(8.0);
  auto tcfg = toy_trainer_config(threads);
  tcfg.checkpoint_dir = ckpt_dir;
  tcfg.keep_last = 2;

  if (interrupt) {
    data::DataLoader loader(ds, 16, true, 7);
    auto net = make_toy_net();
    auto leg1 = tcfg;
    leg1.stop_after_epochs = 3;
    train::Trainer trainer(*net, encoder, loss, leg1);
    trainer.fit(loader);
  }

  data::DataLoader loader(ds, 16, true, 7);
  auto net = make_toy_net();
  auto leg2 = tcfg;
  leg2.resume = interrupt;
  train::Trainer trainer(*net, encoder, loss, leg2);
  std::vector<std::int64_t> epochs_run;
  trainer.fit(loader, [&](const train::EpochMetrics& m) {
    epochs_run.push_back(m.epoch);
  });
  if (interrupt) {
    // Prove the resume actually restored position: only epochs 3..5 ran in
    // the second leg (guards against silently retraining from scratch,
    // which would also produce matching final weights).
    EXPECT_EQ(epochs_run, (std::vector<std::int64_t>{3, 4, 5}));
  } else {
    EXPECT_EQ(epochs_run.size(), 6u);
  }

  ToyRunResult result;
  result.weights = weight_snapshot(*net);
  data::DataLoader eval_loader(ds, 16, false);
  result.eval = trainer.evaluate(eval_loader);
  return result;
}

TEST(TrainerResume, InterruptedRunIsBitIdenticalAcrossThreadCounts) {
  const std::string base = tmp_path("resume_bitident");
  fs::remove_all(base);

  const auto straight1 = run_toy_training(1, base + "/straight1", false);
  const auto resumed1 = run_toy_training(1, base + "/resumed1", true);
  const auto straight4 = run_toy_training(4, base + "/straight4", false);
  const auto resumed4 = run_toy_training(4, base + "/resumed4", true);

  ASSERT_EQ(straight1.weights.size(), resumed1.weights.size());
  for (std::size_t i = 0; i < straight1.weights.size(); ++i) {
    EXPECT_EQ(straight1.weights[i], resumed1.weights[i]) << "weight " << i;
    EXPECT_EQ(straight1.weights[i], straight4.weights[i]) << "weight " << i;
    EXPECT_EQ(straight1.weights[i], resumed4.weights[i]) << "weight " << i;
  }
  EXPECT_DOUBLE_EQ(straight1.eval.accuracy, resumed1.eval.accuracy);
  EXPECT_DOUBLE_EQ(straight1.eval.loss, resumed1.eval.loss);
  EXPECT_DOUBLE_EQ(straight1.eval.firing_rate, resumed1.eval.firing_rate);
  EXPECT_DOUBLE_EQ(straight1.eval.accuracy, resumed4.eval.accuracy);
  EXPECT_DOUBLE_EQ(straight1.eval.firing_rate, straight4.eval.firing_rate);

  // Retention: keep_last=2 bounds each checkpoint directory.
  train::CheckpointManager mgr(base + "/resumed1", 2);
  EXPECT_LE(mgr.list().size(), 2u);
  EXPECT_TRUE(mgr.latest().has_value());
}

TEST(TrainerResume, FingerprintMismatchRefusesToResume) {
  const std::string dir = tmp_path("resume_fpr");
  fs::remove_all(dir);
  auto ds = std::make_shared<data::InMemoryDataset>(
      data::InMemoryDataset::from(ToyDataset(32)));
  data::RateEncoder encoder(42);
  snn::RateCrossEntropyLoss loss(8.0);

  {
    data::DataLoader loader(ds, 16, true, 7);
    auto net = make_toy_net();
    auto tcfg = toy_trainer_config(1);
    tcfg.checkpoint_dir = dir;
    tcfg.stop_after_epochs = 1;
    train::Trainer trainer(*net, encoder, loss, tcfg);
    trainer.fit(loader);
  }

  data::DataLoader loader(ds, 16, true, 7);
  auto net = make_toy_net();
  auto tcfg = toy_trainer_config(1);
  tcfg.checkpoint_dir = dir;
  tcfg.resume = true;
  tcfg.base_lr = 6e-3;  // a different trajectory: refuse the checkpoint
  train::Trainer trainer(*net, encoder, loss, tcfg);
  EXPECT_THROW(trainer.fit(loader), InvalidArgument);
}

TEST(TrainerResume, PlainWeightSnapshotIsRejected) {
  const std::string dir = tmp_path("resume_plain");
  fs::remove_all(dir);
  fs::create_directories(dir);
  auto net = make_toy_net();
  // A weights-only snapshot (no resume metadata) masquerading as a
  // training checkpoint.
  snn::save_network(dir + "/ckpt-000001.stk", *net);

  auto ds = std::make_shared<data::InMemoryDataset>(
      data::InMemoryDataset::from(ToyDataset(32)));
  data::DataLoader loader(ds, 16, true, 7);
  data::RateEncoder encoder(42);
  snn::RateCrossEntropyLoss loss(8.0);
  auto net2 = make_toy_net();
  auto tcfg = toy_trainer_config(1);
  tcfg.checkpoint_dir = dir;
  tcfg.resume = true;
  train::Trainer trainer(*net2, encoder, loss, tcfg);
  EXPECT_THROW(trainer.fit(loader), InvalidArgument);
}

// ---------------------------------------------------------------------------
// Numerical health monitor

struct ToyTrainingRig {
  std::shared_ptr<data::InMemoryDataset> ds;
  data::RateEncoder encoder{42};
  snn::RateCrossEntropyLoss loss{8.0};
  std::unique_ptr<snn::SpikingNetwork> net;

  ToyTrainingRig()
      : ds(std::make_shared<data::InMemoryDataset>(
            data::InMemoryDataset::from(ToyDataset(32)))),
        net(make_toy_net()) {}

  data::DataLoader loader() { return data::DataLoader(ds, 16, true, 7); }
};

struct HookGuard {
  ~HookGuard() {
    train::testing::force_nan_loss = nullptr;
    train::testing::force_nan_grad = nullptr;
  }
};

TEST(HealthMonitor, ThrowPolicyRaisesOnNanLoss) {
  ToyTrainingRig rig;
  HookGuard guard;
  train::testing::force_nan_loss = [](std::int64_t epoch, std::int64_t batch) {
    return epoch == 0 && batch == 1;
  };
  auto tcfg = toy_trainer_config(1);
  train::Trainer trainer(*rig.net, rig.encoder, rig.loss, tcfg);
  auto loader = rig.loader();
  EXPECT_THROW(trainer.fit(loader), NumericalError);
}

TEST(HealthMonitor, ThrowPolicyRaisesOnInfGradient) {
  ToyTrainingRig rig;
  HookGuard guard;
  train::testing::force_nan_grad = [](std::int64_t epoch, std::int64_t batch) {
    return epoch == 0 && batch == 0;
  };
  auto tcfg = toy_trainer_config(1);
  train::Trainer trainer(*rig.net, rig.encoder, rig.loss, tcfg);
  auto loader = rig.loader();
  EXPECT_THROW(trainer.fit(loader), NumericalError);
}

TEST(HealthMonitor, SkipBatchPolicyDropsTheBatchAndFinishes) {
  ToyTrainingRig rig;
  HookGuard guard;
  int poisoned = 0;
  train::testing::force_nan_loss = [&](std::int64_t epoch,
                                       std::int64_t batch) {
    if (epoch == 1 && batch == 0) {
      ++poisoned;
      return true;
    }
    return false;
  };
  auto tcfg = toy_trainer_config(1);
  tcfg.nan_policy = train::NanPolicy::kSkipBatch;
  train::Trainer trainer(*rig.net, rig.encoder, rig.loss, tcfg);
  auto loader = rig.loader();
  std::size_t epochs_seen = 0;
  trainer.fit(loader, [&](const train::EpochMetrics&) { ++epochs_seen; });
  EXPECT_EQ(poisoned, 1);
  EXPECT_EQ(epochs_seen, 6u);  // the run survives the bad batch
  for (snn::Param* p : rig.net->params())
    for (std::int64_t i = 0; i < p->numel(); ++i)
      ASSERT_TRUE(std::isfinite(p->value.data()[i]));
}

TEST(HealthMonitor, RollbackRestoresCheckpointAndCutsLr) {
  const std::string dir = tmp_path("rollback_dir");
  fs::remove_all(dir);
  ToyTrainingRig rig;
  HookGuard guard;
  bool fired = false;
  train::testing::force_nan_grad = [&](std::int64_t epoch,
                                       std::int64_t batch) {
    if (!fired && epoch == 1 && batch == 0) {
      fired = true;
      return true;
    }
    return false;
  };
  auto tcfg = toy_trainer_config(1);
  tcfg.nan_policy = train::NanPolicy::kRollback;
  tcfg.checkpoint_dir = dir;
  train::Trainer trainer(*rig.net, rig.encoder, rig.loss, tcfg);
  auto loader = rig.loader();
  std::vector<double> lrs;
  trainer.fit(loader, [&](const train::EpochMetrics& m) {
    lrs.push_back(m.lr);
  });
  EXPECT_TRUE(fired);
  ASSERT_EQ(lrs.size(), 6u);  // every epoch completed despite the blow-up

  // Clean reference run: identical schedule, no fault.
  ToyTrainingRig clean;
  auto clean_cfg = toy_trainer_config(1);
  train::Trainer clean_trainer(*clean.net, clean.encoder, clean.loss,
                               clean_cfg);
  auto clean_loader = clean.loader();
  std::vector<double> clean_lrs;
  clean_trainer.fit(clean_loader, [&](const train::EpochMetrics& m) {
    clean_lrs.push_back(m.lr);
  });
  EXPECT_DOUBLE_EQ(lrs[0], clean_lrs[0]);  // before the fault: untouched
  // From the rollback on, the LR runs at half the schedule.
  for (std::size_t e = 1; e < 6; ++e)
    EXPECT_DOUBLE_EQ(lrs[e], train::kRollbackLrCut * clean_lrs[e])
        << "epoch " << e;
}

TEST(HealthMonitor, RollbackWithoutCheckpointFailsLoudly) {
  ToyTrainingRig rig;
  HookGuard guard;
  train::testing::force_nan_grad = [](std::int64_t, std::int64_t) {
    return true;
  };
  auto tcfg = toy_trainer_config(1);
  tcfg.nan_policy = train::NanPolicy::kRollback;  // but no checkpoint_dir
  train::Trainer trainer(*rig.net, rig.encoder, rig.loss, tcfg);
  auto loader = rig.loader();
  EXPECT_THROW(trainer.fit(loader), NumericalError);
}

TEST(HealthMonitor, RollbackLimitExhaustionRaises) {
  const std::string dir = tmp_path("rollback_limit");
  fs::remove_all(dir);
  ToyTrainingRig rig;
  HookGuard guard;
  // Epoch 1 always blows up: rollback can never make progress.
  train::testing::force_nan_grad = [](std::int64_t epoch, std::int64_t) {
    return epoch == 1;
  };
  auto tcfg = toy_trainer_config(1);
  tcfg.nan_policy = train::NanPolicy::kRollback;
  tcfg.checkpoint_dir = dir;
  train::Trainer trainer(*rig.net, rig.encoder, rig.loss, tcfg);
  auto loader = rig.loader();
  try {
    trainer.fit(loader);
    FAIL() << "fit() must give up once the rollback limit is exhausted";
  } catch (const NumericalError& ex) {
    EXPECT_NE(std::string(ex.what()).find(
                  "rollback limit (" +
                  std::to_string(train::kMaxRollbacks) + ") exhausted"),
              std::string::npos)
        << ex.what();
  }
}

TEST(NanPolicy, NamesRoundTrip) {
  EXPECT_EQ(train::nan_policy_by_name("throw"), train::NanPolicy::kThrow);
  EXPECT_EQ(train::nan_policy_by_name("skip-batch"),
            train::NanPolicy::kSkipBatch);
  EXPECT_EQ(train::nan_policy_by_name("rollback"),
            train::NanPolicy::kRollback);
  EXPECT_STREQ(train::nan_policy_name(train::NanPolicy::kSkipBatch),
               "skip-batch");
  EXPECT_THROW(train::nan_policy_by_name("explode"), InvalidArgument);
}

// ---------------------------------------------------------------------------
// Sweep journal

// Resume is bit-identical: every table field of a restored result must
// have the recorded bits, -0.0 and subnormals included.
void expect_result_bits_equal(const exp::ExperimentResult& got,
                              const exp::ExperimentResult& want) {
  for (const exp::ResultField& field : exp::kResultFields)
    EXPECT_EQ(std::memcmp(&(got.*field.member), &(want.*field.member),
                          sizeof(double)),
              0)
        << field.name << ": " << got.*field.member << " vs "
        << want.*field.member;
}

// One distinct awkward value per table field, in table order.
exp::ExperimentResult awkward_result() {
  const double values[] = {-0.0,
                           std::numeric_limits<double>::denorm_min(),
                           0.1,
                           DBL_MAX,
                           1e-300,
                           -DBL_MAX,
                           DBL_MIN - std::numeric_limits<double>::denorm_min(),
                           1.0 / 3.0,
                           -0.1,
                           123456789.123456789};
  static_assert(std::size(values) == std::size(exp::kResultFields),
                "one value per result field");
  exp::ExperimentResult r;
  for (std::size_t i = 0; i < std::size(values); ++i)
    r.*exp::kResultFields[i].member = values[i];
  return r;
}

TEST(SweepJournal, RecordsReplaysAndLastEntryWins) {
  const std::string path = tmp_path("journal_rt.jsonl");
  fs::remove(path);
  exp::ExperimentResult result;
  result.accuracy = 0.75;
  result.loss = 1.25;
  result.fps_per_watt = 321.5;
  {
    exp::SweepJournal journal(path);
    EXPECT_EQ(journal.size(), 0u);
    journal.record_failed("point a", "numerical blow-up \"quoted\"\nline2");
    journal.record_done("point b", result);
    journal.record_done("point a", result);  // later success supersedes
  }
  exp::SweepJournal replay(path);
  EXPECT_EQ(replay.size(), 3u);
  const exp::JournalEntry* a = replay.find("point a");
  ASSERT_NE(a, nullptr);
  EXPECT_EQ(a->status, "done");  // last entry for the key wins
  const exp::JournalEntry* b = replay.find("point b");
  ASSERT_NE(b, nullptr);
  expect_result_bits_equal(b->result, result);
  EXPECT_EQ(replay.find("point c"), nullptr);
}

TEST(SweepJournal, FailedEntryKeepsItsErrorText) {
  const std::string path = tmp_path("journal_failed.jsonl");
  fs::remove(path);
  const std::string error = "numerical blow-up \"quoted\"\nline2\t\x01";
  exp::SweepJournal(path).record_failed("p", error);
  const exp::SweepJournal replay(path);
  const exp::JournalEntry* e = replay.find("p");
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->status, "failed");
  EXPECT_EQ(e->error, error);
}

TEST(SweepJournal, EveryFieldRoundTripsBitwise) {
  const std::string path = tmp_path("journal_bits.jsonl");
  fs::remove(path);
  const exp::ExperimentResult result = awkward_result();
  exp::SweepJournal(path).record_done("p", result);
  const exp::SweepJournal replay(path);
  const exp::JournalEntry* e = replay.find("p");
  ASSERT_NE(e, nullptr);
  expect_result_bits_equal(e->result, result);
}

TEST(SweepJournal, NonFiniteResultIsNullAndReplaysAsNaN) {
  // final_train_accuracy is NaN when every batch of the last epoch was
  // skipped under --nan-policy skip-batch.
  const std::string path = tmp_path("journal_nan.jsonl");
  fs::remove(path);
  exp::ExperimentResult result;
  result.accuracy = 0.5;
  result.final_train_accuracy = std::numeric_limits<double>::quiet_NaN();
  exp::SweepJournal(path).record_done("p", result);
  std::ifstream in(path);
  const std::string text((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
  EXPECT_NE(text.find("\"final_train_accuracy\":null"), std::string::npos)
      << text;
  const exp::SweepJournal replay(path);
  const exp::JournalEntry* e = replay.find("p");
  ASSERT_NE(e, nullptr);
  EXPECT_TRUE(std::isnan(e->result.final_train_accuracy));
  EXPECT_EQ(e->result.accuracy, 0.5);
}

TEST(SweepJournal, ParentFormatLineLoadsToTheSameBits) {
  // A "done" line as the earlier per-journal writer produced it: keys in
  // alphabetical order, numbers printed with %.17g.
  const std::string path = tmp_path("journal_parent_format.jsonl");
  write_file(path,
             "{\"key\":\"beta=0.5 theta=1.5\",\"status\":\"done\","
             "\"accuracy\":-0,"
             "\"final_train_accuracy\":-0.10000000000000001,"
             "\"firing_rate\":0.10000000000000001,"
             "\"fps_per_watt\":0.33333333333333331,"
             "\"latency_us\":1e-300,"
             "\"loss\":4.9406564584124654e-324,"
             "\"sparsity\":1.7976931348623157e+308,"
             "\"throughput_fps\":-1.7976931348623157e+308,"
             "\"train_seconds\":123456789.12345679,"
             "\"watts\":2.2250738585072009e-308}\n");
  const exp::SweepJournal replay(path);
  const exp::JournalEntry* e = replay.find("beta=0.5 theta=1.5");
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->status, "done");
  expect_result_bits_equal(e->result, awkward_result());
}

TEST(SweepJournal, UnknownFieldsIgnoredAbsentFieldsReadZero) {
  const std::string path = tmp_path("journal_fields.jsonl");
  write_file(path,
             "{\"key\":\"a\",\"status\":\"done\",\"accuracy\":0.5,"
             "\"future_metric\":7,\"note\":\"x\"}\n");
  const exp::SweepJournal replay(path);
  const exp::JournalEntry* e = replay.find("a");
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->result.accuracy, 0.5);
  EXPECT_EQ(e->result.latency_us, 0.0);
}

TEST(SweepJournal, BareNanLineIsRefusedWithItsLine) {
  const std::string path = tmp_path("journal_bare_nan.jsonl");
  write_file(path,
             "{\"key\":\"a\",\"status\":\"done\",\"accuracy\":0.5}\n"
             "{\"key\":\"b\",\"status\":\"done\",\"accuracy\":nan}\n");
  try {
    exp::SweepJournal journal(path);
    FAIL() << "a bare nan is not JSON";
  } catch (const InvalidArgument& e) {
    EXPECT_NE(std::string(e.what()).find(path + ":2"), std::string::npos)
        << e.what();
  }
}

TEST(SweepJournal, DisabledJournalIsANoOp) {
  exp::SweepJournal journal;
  EXPECT_FALSE(journal.enabled());
  journal.record_failed("x", "err");
  EXPECT_EQ(journal.size(), 0u);
}

TEST(SweepJournal, TornFinalLineRejectedOnReplay) {
  const std::string path = tmp_path("journal_torn.jsonl");
  write_file(path,
             "{\"key\":\"a\",\"status\":\"done\",\"accuracy\":0.5}\n"
             "{\"key\":\"b\",\"status\":\"do");  // torn mid-write
  EXPECT_THROW(exp::SweepJournal journal(path), InvalidArgument);
}

exp::ExperimentConfig tiny_experiment_config() {
  auto cfg = exp::ExperimentConfig::for_profile(exp::Profile::kSmoke);
  cfg.train_size = 64;
  cfg.test_size = 32;
  cfg.trainer.epochs = 1;
  cfg.trainer.num_steps = 2;
  cfg.model.lif.surrogate = snn::Surrogate::fast_sigmoid(0.25f);
  return cfg;
}

TEST(JournaledSweep, FailedPointIsRecordedAndSweepContinues) {
  const std::string journal = tmp_path("sweep_journal.jsonl");
  const std::string ckpt_root = tmp_path("sweep_ckpts");
  fs::remove(journal);
  fs::remove_all(ckpt_root);
  auto cfg = tiny_experiment_config();
  cfg.trainer.checkpoint_dir = ckpt_root;

  // "bogus" is not a surrogate name: that point must fail without sinking
  // the rest of the sweep.
  const auto points = exp::run_surrogate_sweep(cfg, {"arctan", "bogus"},
                                               {1.0}, {}, journal);
  ASSERT_EQ(points.size(), 2u);
  EXPECT_EQ(points[0].status, "done");
  EXPECT_FALSE(points[0].from_journal);
  EXPECT_GT(points[0].result.accuracy, 0.0);
  EXPECT_EQ(points[1].status, "failed");
  EXPECT_NE(points[1].error.find("bogus"), std::string::npos);
  // Per-point checkpoints landed under a sanitized key directory.
  EXPECT_TRUE(fs::exists(ckpt_root + "/arctan_scale_1"));

  // Restart with resume: the done point is restored, not retrained; the
  // failed point is re-attempted (and fails again).
  cfg.trainer.resume = true;
  const auto again = exp::run_surrogate_sweep(cfg, {"arctan", "bogus"},
                                              {1.0}, {}, journal);
  ASSERT_EQ(again.size(), 2u);
  EXPECT_TRUE(again[0].from_journal);
  expect_result_bits_equal(again[0].result, points[0].result);
  EXPECT_EQ(again[1].status, "failed");

  exp::SweepJournal replay(journal);
  EXPECT_EQ(replay.size(), 3u);  // done + failed + failed-again
}

TEST(JournaledSweep, BetaThetaSweepJournalsToo) {
  const std::string journal = tmp_path("sweep_bt_journal.jsonl");
  fs::remove(journal);
  auto cfg = tiny_experiment_config();
  const auto points =
      exp::run_beta_theta_sweep(cfg, {0.5}, {1.0}, {}, journal);
  ASSERT_EQ(points.size(), 1u);
  EXPECT_EQ(points[0].status, "done");

  cfg.trainer.resume = true;
  const auto again = exp::run_beta_theta_sweep(cfg, {0.5}, {1.0}, {}, journal);
  ASSERT_EQ(again.size(), 1u);
  EXPECT_TRUE(again[0].from_journal);
  expect_result_bits_equal(again[0].result, points[0].result);
}

// ---------------------------------------------------------------------------
// Config validation and failure-aware reporting

TEST(ValidateConfig, RejectsBadSelectionsUpFront) {
  const auto good = tiny_experiment_config();
  EXPECT_NO_THROW(exp::validate(good));

  auto bad = good;
  bad.encoder = "morse";
  EXPECT_THROW(exp::validate(bad), InvalidArgument);

  bad = good;
  bad.loss = "hinge";
  EXPECT_THROW(exp::validate(bad), InvalidArgument);

  bad = good;
  bad.model.in_channels = 1;  // SynthSvhn is 3-channel
  EXPECT_THROW(exp::validate(bad), InvalidArgument);

  bad = good;
  bad.model.image_size = good.image_size + 4;
  EXPECT_THROW(exp::validate(bad), InvalidArgument);

  bad = good;
  bad.trainer.checkpoint_every = 0;
  EXPECT_THROW(exp::validate(bad), InvalidArgument);
}

TEST(ValidateConfig, SweepFailsFastOnInvalidBaseConfig) {
  auto bad = tiny_experiment_config();
  bad.loss = "hinge";
  // The whole sweep must refuse upfront (before training anything), not
  // record every point as failed.
  EXPECT_THROW(exp::run_surrogate_sweep(bad, {"arctan"}, {1.0}),
               InvalidArgument);
}

std::vector<exp::BetaThetaPoint> mixed_status_points() {
  std::vector<exp::BetaThetaPoint> points(3);
  points[0].beta = 0.25;
  points[0].theta = 1.0;
  points[0].result.accuracy = 0.8;
  points[0].result.latency_us = 100.0;
  points[1].beta = 0.5;
  points[1].theta = 1.5;
  points[1].result.accuracy = 0.99;  // would win, but it failed
  points[1].status = "failed";
  points[1].error = "simulated divergence";
  points[2].beta = 0.7;
  points[2].theta = 1.5;
  points[2].result.accuracy = 0.79;
  points[2].result.latency_us = 50.0;
  return points;
}

TEST(FailureAwareReports, SelectionSkipsFailedPoints) {
  const auto points = mixed_status_points();
  EXPECT_EQ(exp::best_accuracy_index(points), 0u);
  EXPECT_EQ(exp::latency_knee_index(points, 0.035), 2u);

  auto all_failed = points;
  for (auto& p : all_failed) p.status = "failed";
  EXPECT_THROW(exp::best_accuracy_index(all_failed), InvalidArgument);
}

TEST(FailureAwareReports, RenderMarksFailuresAndCsvCarriesStatus) {
  const auto points = mixed_status_points();
  const std::string rendered = exp::render_fig2(points);
  EXPECT_NE(rendered.find("fail"), std::string::npos);
  EXPECT_NE(rendered.find("simulated divergence"), std::string::npos);

  const std::string csv_path = tmp_path("fig2_status.csv");
  exp::write_fig2_csv(points, csv_path);
  const std::string csv = read_file(csv_path);
  EXPECT_NE(csv.find("status"), std::string::npos);
  EXPECT_NE(csv.find("failed"), std::string::npos);
}

TEST(SweepFlags, ParseDoubleList) {
  const auto parsed = exp::parse_double_list("0.5,1,32");
  ASSERT_EQ(parsed.size(), 3u);
  EXPECT_DOUBLE_EQ(parsed[0], 0.5);
  EXPECT_DOUBLE_EQ(parsed[2], 32.0);
  EXPECT_THROW(exp::parse_double_list("1,,2"), InvalidArgument);
  EXPECT_THROW(exp::parse_double_list("1,abc"), InvalidArgument);
  EXPECT_THROW(exp::parse_double_list(""), InvalidArgument);
}

}  // namespace
}  // namespace spiketune
