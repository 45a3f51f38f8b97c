// SpikingNetwork: window semantics, spike-count readout, stats recording,
// and BPTT plumbing.  (Full-network finite-difference checks are not
// meaningful through the exact Heaviside forward — surrogate gradients are
// intentionally different from the true a.e.-zero derivative — so network
// level tests assert structure, determinism, and learning-signal liveness;
// per-layer backward math is covered by gradchecks in test_layers/test_lif.)
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

#include "core/error.h"
#include "infer/compiled_model.h"
#include "snn/conv2d.h"
#include "snn/linear.h"
#include "snn/model_zoo.h"
#include "snn/pool.h"
#include "tensor/tensor_ops.h"

namespace spiketune::snn {
namespace {

std::vector<Tensor> constant_window(std::int64_t steps, Shape shape,
                                    float value) {
  return std::vector<Tensor>(static_cast<std::size_t>(steps),
                             Tensor::full(std::move(shape), value));
}

TEST(Network, MlpForwardShapes) {
  MlpConfig cfg;
  cfg.in_features = 8;
  cfg.hidden = 6;
  cfg.num_classes = 4;
  auto net = make_snn_mlp(cfg);
  EXPECT_EQ(net->num_layers(), 4u);
  EXPECT_EQ(net->output_shape(Shape{8}), Shape({4}));

  auto out = net->forward(constant_window(5, Shape{3, 8}, 0.5f));
  EXPECT_EQ(out.spike_counts.shape(), Shape({3, 4}));
  EXPECT_EQ(out.timesteps, 5);
}

TEST(Network, SpikeCountsBounded) {
  MlpConfig cfg;
  cfg.in_features = 8;
  cfg.hidden = 6;
  cfg.num_classes = 4;
  auto net = make_snn_mlp(cfg);
  const std::int64_t T = 7;
  auto out = net->forward(constant_window(T, Shape{2, 8}, 1.0f));
  for (std::int64_t i = 0; i < out.spike_counts.numel(); ++i) {
    EXPECT_GE(out.spike_counts[i], 0.0f);
    EXPECT_LE(out.spike_counts[i], static_cast<float>(T));
  }
}

TEST(Network, DeterministicForward) {
  MlpConfig cfg;
  auto a = make_snn_mlp(cfg);
  auto b = make_snn_mlp(cfg);
  auto window = constant_window(4, Shape{2, 64}, 0.8f);
  auto oa = a->forward(window);
  auto ob = b->forward(window);
  for (std::int64_t i = 0; i < oa.spike_counts.numel(); ++i)
    EXPECT_EQ(oa.spike_counts[i], ob.spike_counts[i]);
}

TEST(Network, WeightSeedChangesModel) {
  MlpConfig a_cfg;
  MlpConfig b_cfg;
  b_cfg.weight_seed = a_cfg.weight_seed + 1;
  auto a = make_snn_mlp(a_cfg);
  auto b = make_snn_mlp(b_cfg);
  auto pa = a->params();
  auto pb = b->params();
  ASSERT_EQ(pa.size(), pb.size());
  bool any_diff = false;
  for (std::size_t i = 0; i < pa.size(); ++i)
    for (std::int64_t k = 0; k < pa[i]->numel(); ++k)
      if (pa[i]->value[k] != pb[i]->value[k]) any_diff = true;
  EXPECT_TRUE(any_diff);
}

TEST(Network, StatsRecordInputAndOutputDensities) {
  MlpConfig cfg;
  cfg.in_features = 16;
  cfg.hidden = 8;
  cfg.num_classes = 4;
  auto net = make_snn_mlp(cfg);
  auto out = net->forward(constant_window(6, Shape{3, 16}, 1.0f),
                          {.record_stats = true});
  const auto& layers = out.stats.layers();
  ASSERT_EQ(layers.size(), 4u);
  // First linear sees the raw (all-ones) input: density 1.
  EXPECT_DOUBLE_EQ(layers[0].input_density(), 1.0);
  // LIF layers marked spiking; linear not.
  EXPECT_FALSE(layers[0].spiking);
  EXPECT_TRUE(layers[1].spiking);
  // Element bookkeeping: 6 steps x 3 samples x 16 features.
  EXPECT_EQ(layers[0].input_elements, 6 * 3 * 16);
  EXPECT_EQ(layers[1].input_elements, 6 * 3 * 8);
}

TEST(Network, BackwardProducesFiniteNonzeroGrads) {
  MlpConfig cfg;
  cfg.in_features = 16;
  cfg.hidden = 12;
  cfg.num_classes = 4;
  cfg.lif.threshold = 0.8f;
  auto net = make_snn_mlp(cfg);
  Rng rng(88);
  std::vector<Tensor> window;
  for (int t = 0; t < 6; ++t)
    window.push_back(Tensor::uniform(Shape{4, 16}, rng, 0.0f, 1.0f));

  net->zero_grad();
  auto out = net->forward(window, {.training = true});
  Tensor g(out.spike_counts.shape());
  g.fill(1.0f);
  net->backward(g);

  double grad_l1 = 0.0;
  for (Param* p : net->params())
    for (std::int64_t i = 0; i < p->numel(); ++i) {
      EXPECT_TRUE(std::isfinite(p->grad[i]));
      grad_l1 += std::fabs(p->grad[i]);
    }
  EXPECT_GT(grad_l1, 0.0);
}

// SpikingNetwork::backward tells layer 0 that its input gradient is
// discarded, so the first conv skips it.  Every parameter gradient must
// come out with the same bits as a sweep in which every layer computes it.
TEST(Network, FirstLayerInputGradSkippedKeepsParamGradsBitwise) {
  CsnnConfig cfg;
  cfg.image_size = 12;
  cfg.lif.threshold = 0.5f;
  auto skip = make_svhn_csnn(cfg);
  auto full = make_svhn_csnn(cfg);
  Rng rng(91);
  std::vector<Tensor> window;
  for (int t = 0; t < 3; ++t)
    window.push_back(Tensor::uniform(Shape{4, 3, 12, 12}, rng, -1.0f, 2.0f));
  skip->zero_grad();
  full->zero_grad();
  const auto out = skip->forward(window, {.training = true});
  full->forward(window, {.training = true});
  const Tensor g =
      Tensor::uniform(out.spike_counts.shape(), rng, -1.0f, 1.0f);
  skip->backward(g);

  for (std::size_t l = 0; l < full->num_layers(); ++l)
    full->layer(l).begin_backward(true);
  for (int t = 2; t >= 0; --t) {
    Tensor x = g;
    for (std::size_t l = full->num_layers(); l-- > 0;)
      x = full->layer(l).backward_step(x);
    EXPECT_EQ(x.shape(), Shape({4, 3, 12, 12}));
  }

  const auto ps = skip->params();
  const auto pf = full->params();
  ASSERT_EQ(ps.size(), pf.size());
  double grad_l1 = 0.0;
  for (std::size_t i = 0; i < ps.size(); ++i) {
    ASSERT_EQ(ps[i]->grad.shape(), pf[i]->grad.shape());
    EXPECT_EQ(std::memcmp(ps[i]->grad.data(), pf[i]->grad.data(),
                          static_cast<std::size_t>(ps[i]->numel()) *
                              sizeof(float)),
              0)
        << ps[i]->name << " (param " << i << ")";
    for (std::int64_t j = 0; j < ps[i]->numel(); ++j)
      grad_l1 += std::fabs(ps[i]->grad[j]);
  }
  EXPECT_GT(grad_l1, 0.0);

  // The skipping layer returns an empty gradient.
  auto& conv1 = dynamic_cast<Conv2d&>(skip->layer(0));
  conv1.begin_window(4, true);
  const Tensor y = conv1.forward_step(window[0]);
  conv1.begin_backward(false);
  EXPECT_EQ(conv1.backward_step(Tensor::full(y.shape(), 0.5f)).numel(), 0);
}

TEST(Network, BackwardWithoutForwardThrows) {
  auto net = make_snn_mlp(MlpConfig{});
  Tensor g(Shape{1, 10});
  EXPECT_THROW(net->backward(g), InvalidArgument);
}

TEST(Network, ZeroGradClears) {
  auto net = make_snn_mlp(MlpConfig{});
  auto out = net->forward(constant_window(3, Shape{2, 64}, 1.0f),
                          {.training = true});
  Tensor g(out.spike_counts.shape());
  g.fill(1.0f);
  net->backward(g);
  net->zero_grad();
  for (Param* p : net->params())
    for (std::int64_t i = 0; i < p->numel(); ++i)
      EXPECT_EQ(p->grad[i], 0.0f);
}

TEST(Network, CsnnTopologyShapes) {
  CsnnConfig cfg;  // paper defaults: 32x32x3
  auto net = make_svhn_csnn(cfg);
  // conv(3->32) lif avgpool conv(32->32) lif maxpool flatten fc lif fc lif
  EXPECT_EQ(net->num_layers(), 11u);
  EXPECT_EQ(net->output_shape(Shape{3, 32, 32}), Shape({10}));
}

TEST(Network, CsnnSmallImageShapes) {
  CsnnConfig cfg;
  cfg.image_size = 16;
  auto net = make_svhn_csnn(cfg);
  EXPECT_EQ(net->output_shape(Shape{3, 16, 16}), Shape({10}));
  auto out = net->forward(constant_window(2, Shape{1, 3, 16, 16}, 0.7f));
  EXPECT_EQ(out.spike_counts.shape(), Shape({1, 10}));
}

TEST(Network, CsnnRejectsTinyImages) {
  CsnnConfig cfg;
  cfg.image_size = 8;
  EXPECT_THROW(make_svhn_csnn(cfg), InvalidArgument);
}

TEST(Network, CsnnParameterCount) {
  CsnnConfig cfg;  // 32x32
  auto net = make_svhn_csnn(cfg);
  // conv1: 32*3*9+32; conv2: 32*32*9+32; fc1: 1152*256+256; fc2: 256*10+10.
  const std::int64_t expected = (32 * 27 + 32) + (32 * 288 + 32) +
                                (1152 * 256 + 256) + (256 * 10 + 10);
  std::int64_t got = 0;
  for (const Param* p : net->params()) got += p->numel();
  EXPECT_EQ(got, expected);
}

TEST(Network, ModelByNameCompilesWithItsShape) {
  LifConfig lif;
  lif.threshold = 1.2f;
  for (const std::string name : {"csnn", "mlp"}) {
    NamedModel zoo = make_model_by_name(name, lif);
    ASSERT_NE(zoo.net, nullptr) << name;
    const auto model = infer::CompiledModel::compile(*zoo.net, zoo.per_sample);
    EXPECT_EQ(model.input_shape(), zoo.per_sample) << name;
    EXPECT_EQ(model.output_shape(), Shape({10})) << name;
  }
  EXPECT_EQ(make_model_by_name("csnn", lif).per_sample, Shape({3, 32, 32}));
  EXPECT_EQ(make_model_by_name("mlp", lif).per_sample, Shape({64}));
  EXPECT_THROW(make_model_by_name("resnet", lif), InvalidArgument);
}

TEST(Network, HigherThresholdFiresLess) {
  // The paper's Fig. 2 mechanism at network level.
  auto rate_for_theta = [](float theta) {
    MlpConfig cfg;
    cfg.lif.threshold = theta;
    auto net = make_snn_mlp(cfg);
    auto out = net->forward(
        std::vector<Tensor>(8, Tensor::full(Shape{4, 64}, 0.9f)),
        {.record_stats = true});
    return out.stats.mean_firing_rate();
  };
  EXPECT_GT(rate_for_theta(0.5f), rate_for_theta(2.0f));
}

}  // namespace
}  // namespace spiketune::snn
