// Dense-vs-session parity for the sparsity-aware inference engine.
//
// InferenceSession promises results *bit-identical* to
// SpikingNetwork::forward — same spike counts, same recorded activity, same
// membrane potentials — for every model-zoo topology, at any thread count
// and any input density.  These tests pin that contract with random
// weights and density-controlled random inputs, and exercise the session
// lifecycle (reuse across windows, buffer growth past max_batch) plus the
// compile-time rejection of unsupported layers.
#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <vector>

#include "core/error.h"
#include "core/parallel.h"
#include "core/rng.h"
#include "data/dataloader.h"
#include "data/encoders.h"
#include "infer/session.h"
#include "snn/loss.h"
#include "snn/model_zoo.h"
#include "snn/network.h"
#include "train/trainer.h"

namespace spiketune::infer {
namespace {

struct ThreadGuard {
  explicit ThreadGuard(int threads) { set_num_threads(threads); }
  ~ThreadGuard() { set_num_threads(1); }
};

// A window of `steps` batches where each element is nonzero with the given
// probability — the kernels see realistic mixed-density inputs.
std::vector<Tensor> random_window(std::int64_t steps, Shape shape,
                                  double density, Rng& rng) {
  std::vector<Tensor> window;
  window.reserve(static_cast<std::size_t>(steps));
  for (std::int64_t t = 0; t < steps; ++t) {
    Tensor x = Tensor::full(shape, 0.0f);
    float* p = x.data();
    for (std::int64_t i = 0; i < x.numel(); ++i) {
      if (rng.uniform() < density) p[i] = static_cast<float>(rng.normal());
    }
    window.push_back(std::move(x));
  }
  return window;
}

void expect_bitwise_equal(const Tensor& want, const Tensor& got) {
  ASSERT_EQ(want.shape(), got.shape());
  EXPECT_EQ(std::memcmp(want.data(), got.data(),
                        static_cast<std::size_t>(want.numel()) * sizeof(float)),
            0)
      << "spike counts differ bitwise";
}

void expect_records_equal(const snn::SpikeRecord& want,
                          const snn::SpikeRecord& got) {
  ASSERT_EQ(want.num_layers(), got.num_layers());
  for (std::size_t i = 0; i < want.num_layers(); ++i) {
    const auto& w = want.layers()[i];
    const auto& g = got.layers()[i];
    EXPECT_EQ(w.layer_name, g.layer_name) << "layer " << i;
    EXPECT_EQ(w.spiking, g.spiking) << "layer " << i;
    EXPECT_EQ(w.input_nonzeros, g.input_nonzeros) << w.layer_name;
    EXPECT_EQ(w.input_elements, g.input_elements) << w.layer_name;
    EXPECT_EQ(w.output_nonzeros, g.output_nonzeros) << w.layer_name;
    EXPECT_EQ(w.output_elements, g.output_elements) << w.layer_name;
  }
  EXPECT_EQ(want.total_samples(), got.total_samples());
  EXPECT_DOUBLE_EQ(want.mean_firing_rate(), got.mean_firing_rate());
}

// Every LIF layer's final membrane in the training net (one [N, ...]
// tensor) must equal, byte for byte, that layer's plane in each stream
// row's arena — a last-bit pre-activation error shows here even when no
// spike flips.
void expect_membranes_equal(const snn::SpikingNetwork& net,
                            const CompiledModel& model,
                            const std::vector<StreamState>& rows) {
  for (std::size_t li = 0; li < model.num_layers(); ++li) {
    const CompiledLayer& l = model.layers()[li];
    if (l.kind != OpKind::kLif) continue;
    const Tensor& want =
        dynamic_cast<const snn::Lif&>(net.layer(li)).membrane();
    const std::int64_t plane = l.out_elems;
    ASSERT_EQ(want.numel(), static_cast<std::int64_t>(rows.size()) * plane)
        << "layer " << li;
    for (std::size_t s = 0; s < rows.size(); ++s)
      EXPECT_EQ(std::memcmp(
                    want.data() + static_cast<std::int64_t>(s) * plane,
                    rows[s].membrane_arena().data() + l.membrane_offset,
                    static_cast<std::size_t>(plane) * sizeof(float)),
                0)
          << "layer " << li << " (" << l.name << ") row " << s
          << ": membrane differs bitwise";
  }
}

// Runs the window, extended by an all-zero step and a step holding one
// spike, through the dense training path once, then through a session on
// explicit stream rows at 1 and 4 threads, asserting bitwise-equal spike
// counts and membranes and identical activity records each time.  The two
// extra steps pin the direct conv at the lowest densities a layer can see.
void check_parity(snn::SpikingNetwork& net, const Shape& per_sample,
                  std::vector<Tensor> window) {
  const Shape shape = window.front().shape();
  window.push_back(Tensor::full(shape, 0.0f));
  Tensor one_spike = Tensor::full(shape, 0.0f);
  one_spike.data()[one_spike.numel() / 2 + 5] = 1.0f;  // mid-batch, interior
  window.push_back(std::move(one_spike));

  const auto dense = net.forward(window, {.record_stats = true});
  const auto model = CompiledModel::compile(net, per_sample);
  const std::int64_t n = shape[0];
  for (int threads : {1, 4}) {
    ThreadGuard guard(threads);
    SCOPED_TRACE("threads=" + std::to_string(threads));
    InferenceSession session(model, {.max_batch = n, .record_stats = true});
    std::vector<StreamState> rows;
    for (std::int64_t s = 0; s < n; ++s) rows.push_back(session.make_stream());
    std::vector<StreamState*> ptrs;
    for (StreamState& r : rows) ptrs.push_back(&r);
    const auto got = session.run(ptrs.data(), n, window);
    EXPECT_EQ(got.timesteps, dense.timesteps);
    expect_bitwise_equal(dense.spike_counts, got.spike_counts);
    expect_records_equal(dense.stats, got.stats);
    expect_membranes_equal(net, model, rows);
    EXPECT_GE(got.mean_input_density, 0.0);
    EXPECT_LE(got.mean_input_density, 1.0);
  }
}

TEST(InferParity, MlpMatchesDenseForwardAtBothDensities) {
  snn::MlpConfig cfg;
  cfg.in_features = 48;
  cfg.hidden = 24;
  cfg.num_classes = 10;
  auto net = snn::make_snn_mlp(cfg);
  Rng rng(0x1f2e3d);
  for (double density : {0.15, 0.85}) {
    SCOPED_TRACE("density=" + std::to_string(density));
    auto window = random_window(6, Shape{5, 48}, density, rng);
    check_parity(*net, Shape{48}, window);
  }
}

TEST(InferParity, CsnnMatchesDenseForwardAtBothDensities) {
  snn::CsnnConfig cfg;
  cfg.image_size = 12;
  cfg.fc_hidden = 32;
  auto net = snn::make_svhn_csnn(cfg);
  Rng rng(0x7a57e);
  for (double density : {0.1, 0.9}) {
    SCOPED_TRACE("density=" + std::to_string(density));
    auto window = random_window(4, Shape{3, 3, 12, 12}, density, rng);
    check_parity(*net, Shape{3, 12, 12}, window);
  }
}

TEST(InferParity, EveryConvLayerStepIsOneDenseDispatch) {
  snn::CsnnConfig cfg;
  cfg.image_size = 12;
  cfg.fc_hidden = 24;
  auto net = snn::make_svhn_csnn(cfg);
  Rng rng(0xc0ffee);
  const std::int64_t steps = 5;
  auto window = random_window(steps, Shape{4, 3, 12, 12}, 0.5, rng);
  const auto dense = net->forward(window, {.record_stats = true});
  const auto model = CompiledModel::compile(*net, Shape{3, 12, 12});
  // Conv layer-steps are the dispatches; the linear layers are not counted.
  const std::int64_t conv_layers = 2;

  InferenceSession session(model, {.max_batch = 4, .record_stats = true});
  const auto got = session.run(window);
  EXPECT_EQ(got.sparse_dispatches, 0);
  EXPECT_EQ(got.dense_dispatches, steps * conv_layers);
  expect_bitwise_equal(dense.spike_counts, got.spike_counts);
  expect_records_equal(dense.stats, got.stats);
}

TEST(InferParity, LinearOnlyModelHasNoDispatches) {
  snn::MlpConfig cfg;
  cfg.in_features = 40;
  cfg.hidden = 20;
  auto net = snn::make_snn_mlp(cfg);
  Rng rng(0xfeed);
  auto window = random_window(5, Shape{4, 40}, 0.5, rng);
  const auto dense = net->forward(window, {.record_stats = true});
  const auto model = CompiledModel::compile(*net, Shape{40});
  InferenceSession session(model, {.max_batch = 4, .record_stats = true});
  const auto got = session.run(window);
  EXPECT_EQ(got.sparse_dispatches, 0);
  EXPECT_EQ(got.dense_dispatches, 0);
  expect_bitwise_equal(dense.spike_counts, got.spike_counts);
  expect_records_equal(dense.stats, got.stats);
}

TEST(InferSession, ReusesStateAcrossWindowsAndGrowsPastMaxBatch) {
  snn::MlpConfig cfg;
  cfg.in_features = 32;
  cfg.hidden = 16;
  auto net = snn::make_snn_mlp(cfg);
  const auto model = CompiledModel::compile(*net, Shape{32});
  Rng rng(0x5e55);

  // Deliberately small capacity: the second window (batch 6) must grow the
  // buffers, and the membrane state must reset between windows.
  InferenceSession session(model, {.max_batch = 2, .record_stats = true});
  auto first = random_window(4, Shape{2, 32}, 0.4, rng);
  auto second = random_window(3, Shape{6, 32}, 0.7, rng);

  const auto got_first = session.run(first);
  const auto got_second = session.run(second);

  const auto want_first = net->forward(first, {.record_stats = true});
  const auto want_second = net->forward(second, {.record_stats = true});
  expect_bitwise_equal(want_first.spike_counts, got_first.spike_counts);
  expect_bitwise_equal(want_second.spike_counts, got_second.spike_counts);
  expect_records_equal(want_second.stats, got_second.stats);
}

TEST(InferSession, InterleavedBatchSizesLeakNoState) {
  // The serving daemon feeds ONE session batches whose size jumps around
  // with traffic (grow, shrink, grow again).  Shrinking is the dangerous
  // direction: rows past the new batch still hold the previous window's
  // membrane potentials and spike indices, and any kernel that iterates by
  // capacity instead of batch would read them.  Every window must match a
  // fresh dense forward bitwise, in any order, at 1 and 4 threads.
  snn::MlpConfig cfg;
  cfg.in_features = 32;
  cfg.hidden = 16;
  auto net = snn::make_snn_mlp(cfg);
  const auto model = CompiledModel::compile(*net, Shape{32});

  const std::int64_t batch_plan[] = {8, 2, 16, 1, 16, 3};
  for (int threads : {1, 4}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    ThreadGuard guard(threads);
    Rng rng(0xbadc0de + static_cast<std::uint64_t>(threads));
    InferenceSession session(model, {.max_batch = 4, .record_stats = true});
    for (std::int64_t n : batch_plan) {
      SCOPED_TRACE("batch=" + std::to_string(n));
      // Varying T and density across windows too, as mixed traffic would.
      const std::int64_t steps = 2 + (n % 3);
      auto window = random_window(steps, Shape{n, 32}, 0.1 + 0.05 * n, rng);
      const auto got = session.run(window);
      const auto want = net->forward(window, {.record_stats = true});
      expect_bitwise_equal(want.spike_counts, got.spike_counts);
      expect_records_equal(want.stats, got.stats);
    }
  }
}

TEST(InferSession, BatchedRowEqualsSoloRunBitwise) {
  // Per-sample batch invariance — the foundation of the serve parity gate:
  // a sample's spike counts in a batch of N equal the counts from running
  // it alone, whatever its batchmates are.
  snn::MlpConfig cfg;
  cfg.in_features = 24;
  cfg.hidden = 12;
  auto net = snn::make_snn_mlp(cfg);
  const auto model = CompiledModel::compile(*net, Shape{24});
  Rng rng(0x0107);
  const std::int64_t batch = 5;
  const std::int64_t steps = 4;
  auto window = random_window(steps, Shape{batch, 24}, 0.3, rng);

  InferenceSession batched(model, {.max_batch = batch});
  const auto all = batched.run(window);
  const std::int64_t out = model.output_shape()[0];

  for (std::int64_t i = 0; i < batch; ++i) {
    SCOPED_TRACE("row=" + std::to_string(i));
    std::vector<Tensor> solo_window;
    for (std::int64_t t = 0; t < steps; ++t) {
      Tensor x{Shape{1, 24}};
      std::memcpy(x.data(), window[static_cast<std::size_t>(t)].data() + i * 24,
                  24 * sizeof(float));
      solo_window.push_back(std::move(x));
    }
    InferenceSession solo(model, {.max_batch = 1});
    const auto one = solo.run(solo_window);
    EXPECT_EQ(std::memcmp(one.spike_counts.data(),
                          all.spike_counts.data() + i * out,
                          static_cast<std::size_t>(out) * sizeof(float)),
              0)
        << "row " << i << " differs from its solo run";
  }
}

TEST(InferCompile, MetadataMirrorsNetwork) {
  snn::CsnnConfig cfg;
  cfg.image_size = 12;
  cfg.fc_hidden = 32;
  auto net = snn::make_svhn_csnn(cfg);
  const auto model = CompiledModel::compile(*net, Shape{3, 12, 12});
  EXPECT_EQ(model.num_layers(), net->num_layers());
  std::int64_t net_params = 0;
  for (const snn::Param* p : net->params()) net_params += p->numel();
  std::int64_t model_params = 0;
  for (const CompiledLayer& l : model.layers())
    model_params += l.weight.numel() + l.bias.numel();
  EXPECT_EQ(model_params, net_params);
  EXPECT_EQ(model.input_shape(), Shape({3, 12, 12}));
  EXPECT_EQ(model.output_shape(), net->output_shape(Shape{3, 12, 12}));

  const auto want = net->make_record();
  const auto got = model.make_record();
  ASSERT_EQ(want.num_layers(), got.num_layers());
  for (std::size_t i = 0; i < want.num_layers(); ++i) {
    EXPECT_EQ(want.layers()[i].layer_name, got.layers()[i].layer_name);
    EXPECT_EQ(want.layers()[i].spiking, got.layers()[i].spiking);
  }
}

// A layer kind the inference compiler has no op for.
class UnknownLayer final : public snn::Layer {
 public:
  void begin_window(std::int64_t, bool) override {}
  Tensor forward_step(const Tensor& input) override { return input; }
  Tensor backward_step(const Tensor& grad_output) override {
    return grad_output;
  }
  Shape output_shape(const Shape& input) const override { return input; }
  std::string name() const override { return "unknown"; }
};

TEST(InferCompile, RejectsUnsupportedLayers) {
  snn::SpikingNetwork net;
  net.add<UnknownLayer>();
  EXPECT_THROW(CompiledModel::compile(net, Shape{8}), InvalidArgument);

  // Evaluation runs on the compiled session too, so the trainer refuses
  // such a network the same way instead of silently taking another path.
  std::vector<data::Example> examples(4);
  for (auto& ex : examples) ex.image = Tensor::full(Shape{8}, 0.5f);
  auto ds = std::make_shared<data::InMemoryDataset>(std::move(examples), 2);
  data::DataLoader loader(ds, 2, false);
  data::DirectEncoder encoder;
  snn::RateCrossEntropyLoss loss(8.0);
  train::TrainerConfig tcfg;
  tcfg.num_steps = 2;
  tcfg.verbose = false;
  train::Trainer trainer(net, encoder, loss, tcfg);
  EXPECT_THROW(trainer.evaluate(loader), InvalidArgument);
}

TEST(InferSession, RejectsMismatchedInputs) {
  snn::MlpConfig cfg;
  cfg.in_features = 16;
  cfg.hidden = 8;
  auto net = snn::make_snn_mlp(cfg);
  const auto model = CompiledModel::compile(*net, Shape{16});
  InferenceSession session(model);
  EXPECT_THROW(session.run({}), InvalidArgument);
  Rng rng(1);
  auto wrong = random_window(2, Shape{3, 17}, 0.5, rng);
  EXPECT_THROW(session.run(wrong), InvalidArgument);
  // Steps with mismatched batch sizes are rejected too.
  std::vector<Tensor> ragged;
  ragged.push_back(Tensor::full(Shape{2, 16}, 0.0f));
  ragged.push_back(Tensor::full(Shape{3, 16}, 0.0f));
  EXPECT_THROW(session.run(ragged), InvalidArgument);
}

}  // namespace
}  // namespace spiketune::infer
