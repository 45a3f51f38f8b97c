// Adam, the cosine LR schedule, and the training loop on a learnable toy
// task.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "core/error.h"
#include "data/dataloader.h"
#include "data/encoders.h"
#include "snn/linear.h"
#include "snn/model_zoo.h"
#include "train/lr_scheduler.h"
#include "train/trainer.h"

namespace spiketune::train {
namespace {

using snn::Param;

TEST(Adam, FirstStepIsLrSizedSignStep) {
  // With bias correction, the very first Adam update is ~ lr * sign(grad).
  Param p("w", Tensor(Shape{2}, {0.0f, 0.0f}));
  p.grad = Tensor(Shape{2}, {0.3f, -7.0f});
  Adam opt({&p}, 0.01);
  opt.step();
  EXPECT_NEAR(p.value[0], -0.01f, 1e-4f);
  EXPECT_NEAR(p.value[1], 0.01f, 1e-4f);
}

TEST(Adam, ConvergesOnQuadratic) {
  // minimize (w - 3)^2 by feeding grad = 2(w - 3).
  Param p("w", Tensor(Shape{1}, {0.0f}));
  Adam opt({&p}, 0.05);
  for (int i = 0; i < 500; ++i) {
    p.grad[0] = 2.0f * (p.value[0] - 3.0f);
    opt.step();
  }
  EXPECT_NEAR(p.value[0], 3.0f, 0.05f);
}

TEST(Adam, ZeroGradClears) {
  Param p("w", Tensor(Shape{2}, {1, 2}));
  p.grad = Tensor(Shape{2}, {5, 5});
  Adam opt({&p}, 0.1);
  opt.zero_grad();
  EXPECT_EQ(p.grad[0], 0.0f);
}

TEST(Adam, Validation) {
  Param p("w", Tensor(Shape{1}));
  EXPECT_THROW(Adam({}, 0.1), InvalidArgument);
  EXPECT_THROW(Adam({&p}, 0.0), InvalidArgument);
  EXPECT_THROW(Adam({&p}, 0.1, 1.0), InvalidArgument);
}

TEST(CosineAnnealing, EndpointsAndMidpoint) {
  CosineAnnealingLr sched(1.0, 10, 0.0);
  EXPECT_NEAR(sched.lr_at(0), 1.0, 1e-9);
  EXPECT_NEAR(sched.lr_at(5), 0.5, 1e-9);
  EXPECT_NEAR(sched.lr_at(10), 0.0, 1e-9);
  EXPECT_NEAR(sched.lr_at(15), 0.0, 1e-9);  // holds after window
}

TEST(CosineAnnealing, RespectsEtaMin) {
  CosineAnnealingLr sched(1.0, 10, 0.1);
  EXPECT_NEAR(sched.lr_at(10), 0.1, 1e-9);
  EXPECT_NEAR(sched.lr_at(0), 1.0, 1e-9);
}

TEST(CosineAnnealing, MonotoneDecreasingWithinWindow) {
  CosineAnnealingLr sched(0.01, 25);
  for (int e = 1; e <= 25; ++e)
    EXPECT_LT(sched.lr_at(e), sched.lr_at(e - 1)) << "epoch " << e;
}

TEST(RunningMean, WeightedMean) {
  RunningMean m;
  m.add(1.0, 1);
  m.add(3.0, 3);
  EXPECT_NEAR(m.mean(), 2.5, 1e-12);
  m.reset();
  EXPECT_THROW(m.mean(), InvalidArgument);
}

TEST(RunningMean, MeanOrDoesNotThrowWhenEmpty) {
  RunningMean m;
  EXPECT_DOUBLE_EQ(m.mean_or(0.0), 0.0);
  EXPECT_DOUBLE_EQ(m.mean_or(-3.5), -3.5);
  m.add(4.0, 2);
  EXPECT_DOUBLE_EQ(m.mean_or(0.0), 4.0);
  m.reset();
  EXPECT_DOUBLE_EQ(m.mean_or(7.0), 7.0);
}

TEST(RunningMean, WeightedMeanEdgeCases) {
  RunningMean m;
  EXPECT_THROW(m.add(1.0, 0), InvalidArgument);
  EXPECT_THROW(m.add(1.0, -2), InvalidArgument);
  // A single huge weight dominates the mean exactly.
  m.add(2.0, 1'000'000'000);
  m.add(100.0, 1);
  EXPECT_NEAR(m.mean(), 2.0, 1e-6);
  EXPECT_EQ(m.count(), 1'000'000'001);
  // Zero-valued samples still count toward the denominator.
  RunningMean z;
  z.add(0.0, 5);
  z.add(10.0, 5);
  EXPECT_NEAR(z.mean(), 5.0, 1e-12);
}

TEST(LatencySummary, RecordsAndSummarizes) {
  LatencySummary lat;
  EXPECT_EQ(lat.count(), 0);
  EXPECT_DOUBLE_EQ(lat.mean_seconds(), 0.0);  // mean_or fallback when empty
  lat.record_seconds(0.010);
  lat.record_seconds(0.010);
  lat.record_seconds(0.010);
  EXPECT_EQ(lat.count(), 3);
  // All identical samples: quantiles clamp to the observed value.
  EXPECT_NEAR(lat.p50_seconds(), 0.010, 1e-9);
  EXPECT_NEAR(lat.p95_seconds(), 0.010, 1e-9);
  EXPECT_NEAR(lat.max_seconds(), 0.010, 1e-9);
  EXPECT_NEAR(lat.mean_seconds(), 0.010, 1e-9);
  EXPECT_THROW(lat.record_seconds(-1.0), InvalidArgument);
  lat.reset();
  EXPECT_EQ(lat.count(), 0);
}

// Trivially separable spiking task: class 0 lights the left half of the
// input, class 1 the right half.  A one-hidden-layer SNN must learn it.
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

TEST(Trainer, LearnsSeparableTask) {
  snn::MlpConfig mcfg;
  mcfg.lif.beta = 0.5f;
  mcfg.lif.threshold = 1.0f;

  auto ds = std::make_shared<data::InMemoryDataset>(
      data::InMemoryDataset::from(ToyDataset(64)));
  data::DataLoader loader(ds, 16, true, 7);
  data::RateEncoder encoder(42);
  snn::RateCrossEntropyLoss loss(8.0);

  TrainerConfig tcfg;
  tcfg.epochs = 15;
  tcfg.num_steps = 8;
  tcfg.batch_size = 16;
  tcfg.base_lr = 5e-3;
  tcfg.verbose = false;

  // Flatten images inside the window by reshaping batch tensors: build a
  // wrapper network with a Flatten front.
  auto wrapped = std::make_unique<snn::SpikingNetwork>();
  wrapped->add<snn::Flatten>();
  Rng wrng(mcfg.weight_seed);
  wrapped->add<snn::Linear>(snn::LinearConfig{16, 24}, wrng);
  wrapped->add<snn::Lif>(mcfg.lif);
  wrapped->add<snn::Linear>(snn::LinearConfig{24, 2}, wrng);
  wrapped->add<snn::Lif>(mcfg.lif);

  Trainer trainer(*wrapped, encoder, loss, tcfg);
  trainer.fit(loader);

  data::DataLoader eval_loader(ds, 16, false);
  const EvalMetrics m = trainer.evaluate(eval_loader);
  EXPECT_GT(m.accuracy, 0.9) << "toy task should be learnable";
  EXPECT_GT(m.firing_rate, 0.0);
  EXPECT_LT(m.firing_rate, 1.0);
}

TEST(Trainer, LossDecreasesOverEpochs) {
  auto ds = std::make_shared<data::InMemoryDataset>(
      data::InMemoryDataset::from(ToyDataset(32)));
  data::DataLoader loader(ds, 16, true, 3);
  data::RateEncoder encoder(5);
  snn::RateCrossEntropyLoss loss(8.0);

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

  TrainerConfig tcfg;
  tcfg.epochs = 10;
  tcfg.num_steps = 8;
  tcfg.batch_size = 16;
  tcfg.base_lr = 5e-3;
  tcfg.verbose = false;
  Trainer trainer(*net, encoder, loss, tcfg);

  std::vector<double> losses;
  trainer.fit(loader, [&](const EpochMetrics& m) {
    losses.push_back(m.train_loss);
  });
  ASSERT_EQ(losses.size(), 10u);
  EXPECT_LT(losses.back(), losses.front());
}

TEST(Trainer, EvaluateRecordsActivity) {
  auto ds = std::make_shared<data::InMemoryDataset>(
      data::InMemoryDataset::from(ToyDataset(16)));
  data::DataLoader loader(ds, 8, false);
  data::RateEncoder encoder(5);
  snn::RateCrossEntropyLoss loss(4.0);

  auto net = std::make_unique<snn::SpikingNetwork>();
  net->add<snn::Flatten>();
  Rng rng(9);
  net->add<snn::Linear>(snn::LinearConfig{16, 8}, rng);
  net->add<snn::Lif>(snn::LifConfig{});

  TrainerConfig tcfg;
  tcfg.num_steps = 4;
  tcfg.batch_size = 8;
  tcfg.verbose = false;
  Trainer trainer(*net, encoder, loss, tcfg);
  const EvalMetrics m = trainer.evaluate(loader);
  EXPECT_EQ(m.num_examples, 16);
  EXPECT_EQ(m.record.total_samples(), 16);
  EXPECT_EQ(m.record.layers().size(), 3u);
  // Linear input elements: 16 samples x 4 steps x 16 features.
  EXPECT_EQ(m.record.layers()[1].input_elements, 16 * 4 * 16);
}

}  // namespace
}  // namespace spiketune::train
