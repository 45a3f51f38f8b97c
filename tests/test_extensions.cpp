// Tests for the extension modules: checkpoint serialization, weight
// quantization, the recurrent LIF layer, and the SynthDigits dataset.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>

#include "core/error.h"
#include "core/parallel.h"
#include "core/serialize.h"
#include "data/synth_digits.h"
#include "snn/checkpoint.h"
#include "snn/model_zoo.h"
#include "snn/quantize.h"
#include "snn/rlif.h"
#include "tensor/gradcheck.h"
#include "tensor/tensor_ops.h"

namespace spiketune {
namespace {

std::string temp_path(const char* name) {
  return ::testing::TempDir() + "/" + name;
}

TEST(Serialize, RoundTripsTensors) {
  const std::string path = temp_path("ckpt_roundtrip.bin");
  Rng rng(1);
  std::vector<NamedTensor> records;
  records.push_back({"a", Tensor::uniform(Shape{3, 4}, rng, -1.0f, 1.0f)});
  records.push_back({"b.weight", Tensor::uniform(Shape{7}, rng, 0.0f, 2.0f)});
  records.push_back({"empty", Tensor(Shape{0})});
  save_checkpoint(path, records);

  const auto loaded = load_checkpoint(path);
  ASSERT_EQ(loaded.size(), 3u);
  for (std::size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(loaded[i].name, records[i].name);
    ASSERT_EQ(loaded[i].value.shape(), records[i].value.shape());
    for (std::int64_t k = 0; k < records[i].value.numel(); ++k)
      EXPECT_EQ(loaded[i].value[k], records[i].value[k]);
  }
  std::remove(path.c_str());
}

TEST(Serialize, RejectsGarbage) {
  const std::string path = temp_path("ckpt_garbage.bin");
  {
    std::ofstream out(path, std::ios::binary);
    out << "this is not a checkpoint at all";
  }
  EXPECT_THROW(load_checkpoint(path), InvalidArgument);
  std::remove(path.c_str());
}

TEST(Serialize, RejectsTruncation) {
  const std::string path = temp_path("ckpt_trunc.bin");
  Rng rng(2);
  save_checkpoint(path,
                  {{"w", Tensor::uniform(Shape{64}, rng, -1.0f, 1.0f)}});
  // Truncate the payload.
  {
    std::ifstream in(path, std::ios::binary);
    std::string content((std::istreambuf_iterator<char>(in)),
                        std::istreambuf_iterator<char>());
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(content.data(),
              static_cast<std::streamsize>(content.size() / 2));
  }
  EXPECT_THROW(load_checkpoint(path), InvalidArgument);
  std::remove(path.c_str());
}

TEST(Checkpoint, NetworkRoundTrip) {
  const std::string path = temp_path("net_ckpt.bin");
  snn::MlpConfig cfg;
  cfg.in_features = 12;
  cfg.hidden = 8;
  cfg.num_classes = 3;
  auto a = snn::make_snn_mlp(cfg);
  cfg.weight_seed += 1;  // different init
  auto b = snn::make_snn_mlp(cfg);

  snn::save_network(path, *a);
  snn::load_network(path, *b);

  auto pa = a->params();
  auto pb = b->params();
  ASSERT_EQ(pa.size(), pb.size());
  for (std::size_t i = 0; i < pa.size(); ++i)
    for (std::int64_t k = 0; k < pa[i]->numel(); ++k)
      EXPECT_EQ(pa[i]->value[k], pb[i]->value[k]);
  std::remove(path.c_str());
}

TEST(Checkpoint, RejectsTopologyMismatch) {
  const std::string path = temp_path("net_mismatch.bin");
  snn::MlpConfig small;
  small.in_features = 12;
  small.hidden = 8;
  auto a = snn::make_snn_mlp(small);
  snn::save_network(path, *a);

  snn::MlpConfig big = small;
  big.hidden = 16;
  auto b = snn::make_snn_mlp(big);
  EXPECT_THROW(snn::load_network(path, *b), InvalidArgument);
  std::remove(path.c_str());
}

TEST(Quantize, IdempotentAndBounded) {
  Rng rng(3);
  Tensor t = Tensor::uniform(Shape{1000}, rng, -2.0f, 2.0f);
  Tensor orig = t;
  snn::quantize_tensor(t, 8);
  // Error bounded by half a quantization step.
  const float max_abs = 2.0f;
  const float step = max_abs / 127.0f;
  for (std::int64_t i = 0; i < t.numel(); ++i)
    EXPECT_LE(std::fabs(t[i] - orig[i]), 0.5f * step + 1e-6f);
  // Idempotent: re-quantizing changes nothing.
  Tensor again = t;
  snn::quantize_tensor(again, 8);
  for (std::int64_t i = 0; i < t.numel(); ++i) EXPECT_EQ(again[i], t[i]);
}

TEST(Quantize, FewerBitsMoreError) {
  Rng rng(4);
  snn::MlpConfig cfg;
  auto net8 = snn::make_snn_mlp(cfg);
  auto net3 = snn::make_snn_mlp(cfg);
  const auto r8 = snn::quantize_network(*net8, 8);
  const auto r3 = snn::quantize_network(*net3, 3);
  EXPECT_GT(r3.mean_abs_error, r8.mean_abs_error);
  EXPECT_GT(r3.max_abs_error, r8.max_abs_error);
  EXPECT_EQ(r8.num_values, net8->num_parameters());
}

TEST(Quantize, ZeroTensorUntouchedAndBadBitsThrow) {
  Tensor z(Shape{5});
  snn::quantize_tensor(z, 8);
  for (std::int64_t i = 0; i < 5; ++i) EXPECT_EQ(z[i], 0.0f);
  Tensor t(Shape{2}, {1.0f, -1.0f});
  EXPECT_THROW(snn::quantize_tensor(t, 1), InvalidArgument);
  EXPECT_THROW(snn::quantize_tensor(t, 17), InvalidArgument);
}

TEST(Rlif, DegeneratesToLifWithZeroRecurrence) {
  snn::RlifConfig rcfg;
  rcfg.features = 6;
  rcfg.lif.beta = 0.6f;
  rcfg.lif.threshold = 1.0f;
  snn::Rlif rlif(rcfg);
  rlif.recurrent().value.fill(0.0f);
  snn::Lif lif(rcfg.lif);

  Rng rng(5);
  rlif.begin_window(2, false);
  lif.begin_window(2, false);
  for (int t = 0; t < 6; ++t) {
    Tensor x = Tensor::uniform(Shape{2, 6}, rng, 0.0f, 1.5f);
    Tensor sr = rlif.forward_step(x);
    Tensor sl = lif.forward_step(x);
    for (std::int64_t i = 0; i < sr.numel(); ++i)
      EXPECT_EQ(sr[i], sl[i]) << "t=" << t << " i=" << i;
  }
}

TEST(Rlif, RecurrenceChangesDynamics) {
  snn::RlifConfig cfg;
  cfg.features = 4;
  cfg.lif.beta = 0.5f;
  cfg.lif.threshold = 1.0f;
  snn::Rlif with(cfg);
  with.recurrent().value.fill(0.5f);  // strong excitatory feedback
  snn::Rlif without(cfg);
  without.recurrent().value.fill(0.0f);

  with.begin_window(1, false);
  without.begin_window(1, false);
  // Sub-threshold drive: only the recurrent current can raise the rate.
  Tensor x = Tensor::full(Shape{1, 4}, 0.6f);
  std::int64_t spikes_with = 0;
  std::int64_t spikes_without = 0;
  for (int t = 0; t < 20; ++t) {
    spikes_with += ops::count_nonzero(with.forward_step(x));
    spikes_without += ops::count_nonzero(without.forward_step(x));
  }
  EXPECT_GT(spikes_with, spikes_without);
}

TEST(Rlif, BackwardAccumulatesRecurrentGrad) {
  snn::RlifConfig cfg;
  cfg.features = 5;
  cfg.lif.beta = 0.5f;
  cfg.lif.threshold = 0.5f;
  cfg.lif.surrogate = snn::Surrogate::fast_sigmoid(2.0f);
  snn::Rlif rlif(cfg);

  Rng rng(6);
  rlif.zero_grad();
  rlif.begin_window(3, true);
  std::vector<Tensor> inputs;
  for (int t = 0; t < 4; ++t) {
    inputs.push_back(Tensor::uniform(Shape{3, 5}, rng, 0.0f, 1.2f));
    rlif.forward_step(inputs.back());
  }
  rlif.begin_backward();
  Tensor g = Tensor::full(Shape{3, 5}, 1.0f);
  for (int t = 3; t >= 0; --t) {
    Tensor gi = rlif.backward_step(g);
    EXPECT_EQ(gi.shape(), Shape({3, 5}));
    for (std::int64_t i = 0; i < gi.numel(); ++i)
      EXPECT_TRUE(std::isfinite(gi[i]));
  }
  EXPECT_GT(ops::l2_norm(rlif.recurrent().grad), 0.0f);
}

// Reference Rlif written as plain loops in the layer's operation order:
// forward u_pre = (I + beta * u_post) + V s[t-1], the recurrent term a dot
// product accumulated from +0 in ascending order; backward with the weight
// gradient and the spike carry in the ascending-k order of gemm_tn / gemm,
// which skip zero left-hand terms.
struct RlifTrace {
  std::vector<std::vector<float>> spikes;      // per step, [batch * n]
  std::vector<std::vector<float>> grad_input;  // per step, [batch * n]
  std::vector<float> grad_v;                   // [n * n]
};

RlifTrace rlif_reference(const snn::RlifConfig& cfg, const Tensor& v,
                         const std::vector<Tensor>& inputs,
                         const std::vector<Tensor>& grads) {
  const std::int64_t n = cfg.features;
  const std::int64_t batch = inputs.front().shape()[0];
  const std::int64_t total = batch * n;
  const float beta = cfg.lif.beta;
  const float theta = cfg.lif.threshold;
  const snn::Surrogate sg = cfg.lif.surrogate;
  const float* vw = v.data();

  RlifTrace trace;
  std::vector<std::vector<float>> u_pre;
  std::vector<float> m(static_cast<std::size_t>(total), 0.0f);
  for (std::size_t t = 0; t < inputs.size(); ++t) {
    const float* in = inputs[t].data();
    std::vector<float> u(in, in + total);
    if (t > 0) {
      const std::vector<float>& prev = trace.spikes[t - 1];
      for (std::int64_t i = 0; i < total; ++i) u[i] += beta * m[i];
      for (std::int64_t b = 0; b < batch; ++b)
        for (std::int64_t j = 0; j < n; ++j) {
          float acc = 0.0f;
          for (std::int64_t p = 0; p < n; ++p)
            acc += prev[b * n + p] * vw[j * n + p];
          u[b * n + j] += 1.0f * acc;
        }
    }
    std::vector<float> s(static_cast<std::size_t>(total));
    for (std::int64_t i = 0; i < total; ++i) {
      const bool fire = u[i] > theta;
      s[i] = fire ? 1.0f : 0.0f;
      m[i] = u[i];
      if (fire) m[i] -= theta;
    }
    u_pre.push_back(std::move(u));
    trace.spikes.push_back(std::move(s));
  }

  trace.grad_input.resize(inputs.size());
  trace.grad_v.assign(static_cast<std::size_t>(n * n), 0.0f);
  std::vector<float> carry;
  std::vector<float> spike_carry;
  for (std::size_t t = inputs.size(); t-- > 0;) {
    const bool has = !carry.empty();
    const float* go = grads[t].data();
    const std::vector<float>& up = u_pre[t];
    std::vector<float> gi(static_cast<std::size_t>(total));
    for (std::int64_t i = 0; i < total; ++i) {
      const float c = has ? carry[i] : 0.0f;
      const float g_s = go[i] + (has ? spike_carry[i] : 0.0f);
      const float spike_path =
          g_s - (cfg.lif.detach_reset ? 0.0f : theta * c);
      gi[i] = c + spike_path * sg.grad(up[i] - theta);
    }
    spike_carry.assign(static_cast<std::size_t>(total), 0.0f);
    if (t > 0) {
      const std::vector<float>& prev = trace.spikes[t - 1];
      for (std::int64_t p = 0; p < batch; ++p)
        for (std::int64_t i = 0; i < n; ++i) {
          const float av = 1.0f * gi[p * n + i];
          if (av == 0.0f) continue;
          for (std::int64_t j = 0; j < n; ++j)
            trace.grad_v[i * n + j] += av * prev[p * n + j];
        }
      for (std::int64_t b = 0; b < batch; ++b)
        for (std::int64_t p = 0; p < n; ++p) {
          const float av = 1.0f * gi[b * n + p];
          if (av == 0.0f) continue;
          for (std::int64_t j = 0; j < n; ++j)
            spike_carry[b * n + j] += av * vw[p * n + j];
        }
    }
    carry = gi;
    for (float& c : carry) c *= beta;
    trace.grad_input[t] = std::move(gi);
  }
  return trace;
}

void expect_bits_equal(const std::vector<float>& want, const Tensor& got,
                       const std::string& what) {
  ASSERT_EQ(static_cast<std::int64_t>(want.size()), got.numel()) << what;
  std::int64_t mismatches = 0;
  for (std::int64_t i = 0; i < got.numel(); ++i)
    if (std::bit_cast<std::uint32_t>(want[i]) !=
        std::bit_cast<std::uint32_t>(got[i]))
      ++mismatches;
  EXPECT_EQ(mismatches, 0) << what;
}

TEST(Rlif, MatchesHandRolledReferenceBitwise) {
  // Wide enough (3 x 700 elements) that the elementwise passes split into
  // several slices at 4 threads.
  const std::int64_t batch = 3;
  const std::int64_t steps = 6;
  snn::RlifConfig cfg;
  cfg.features = 700;
  cfg.lif.beta = 0.5f;
  cfg.lif.threshold = 0.5f;
  cfg.lif.surrogate = snn::Surrogate::fast_sigmoid(2.0f);

  Rng rng(0x71f);
  const Tensor v =
      Tensor::uniform(Shape{cfg.features, cfg.features}, rng, -0.05f, 0.05f);
  std::vector<Tensor> inputs;
  std::vector<Tensor> grads;
  for (std::int64_t t = 0; t < steps; ++t) {
    inputs.push_back(
        Tensor::uniform(Shape{batch, cfg.features}, rng, 0.0f, 1.2f));
    Tensor g = Tensor::normal(Shape{batch, cfg.features}, rng, 0.0f, 1.0f);
    // Signed zeros upstream: the reset-path and carry arithmetic must
    // treat them exactly as the reference does.
    for (std::int64_t i = 0; i < g.numel(); i += 7) g[i] = 0.0f;
    for (std::int64_t i = 3; i < g.numel(); i += 11) g[i] = -0.0f;
    grads.push_back(std::move(g));
  }

  for (bool detach : {false, true}) {
    cfg.lif.detach_reset = detach;
    const RlifTrace want = rlif_reference(cfg, v, inputs, grads);
    std::int64_t fired = 0;
    for (const auto& s : want.spikes)
      for (float x : s) fired += x != 0.0f ? 1 : 0;
    ASSERT_GT(fired, 0);
    ASSERT_LT(fired, steps * batch * cfg.features);

    for (int threads : {1, 4}) {
      SCOPED_TRACE("detach=" + std::to_string(detach) +
                   " threads=" + std::to_string(threads));
      set_num_threads(threads);
      snn::Rlif rlif(cfg);
      rlif.recurrent().value = v;
      rlif.zero_grad();
      rlif.begin_window(batch, true);
      for (std::int64_t t = 0; t < steps; ++t)
        expect_bits_equal(
            want.spikes[static_cast<std::size_t>(t)],
            rlif.forward_step(inputs[static_cast<std::size_t>(t)]),
            "spikes t=" + std::to_string(t));
      rlif.begin_backward();
      for (std::int64_t t = steps - 1; t >= 0; --t)
        expect_bits_equal(
            want.grad_input[static_cast<std::size_t>(t)],
            rlif.backward_step(grads[static_cast<std::size_t>(t)]),
            "grad_input t=" + std::to_string(t));
      expect_bits_equal(want.grad_v, rlif.recurrent().grad, "recurrent grad");
      set_num_threads(1);
    }
  }
}

TEST(Rlif, ShapeValidation) {
  snn::RlifConfig cfg;
  cfg.features = 4;
  snn::Rlif rlif(cfg);
  rlif.begin_window(1, false);
  EXPECT_THROW(rlif.forward_step(Tensor(Shape{1, 5})), InvalidArgument);
  EXPECT_EQ(rlif.output_shape(Shape{4}), Shape({4}));
  EXPECT_THROW(rlif.output_shape(Shape{5}), InvalidArgument);
}

TEST(SynthDigits, ShapeRangeDeterminism) {
  data::SynthDigitsConfig cfg;
  cfg.num_examples = 16;
  cfg.image_size = 14;
  data::SynthDigits a(cfg);
  data::SynthDigits b(cfg);
  EXPECT_EQ(a.image_shape(), Shape({1, 14, 14}));
  for (std::int64_t i = 0; i < a.size(); ++i) {
    const auto ea = a.get(i);
    const auto eb = b.get(i);
    EXPECT_EQ(ea.label, eb.label);
    EXPECT_GE(ops::min(ea.image), 0.0f);
    EXPECT_LE(ops::max(ea.image), 1.0f);
    for (std::int64_t k = 0; k < ea.image.numel(); ++k)
      EXPECT_EQ(ea.image[k], eb.image[k]);
  }
}

TEST(SynthDigits, DigitIsBrighterThanBackground) {
  data::SynthDigitsConfig cfg;
  cfg.num_examples = 8;
  cfg.image_size = 16;
  cfg.noise_stddev = 0.0f;
  data::SynthDigits ds(cfg);
  for (std::int64_t i = 0; i < ds.size(); ++i) {
    const auto ex = ds.get(i);
    // Dark background (a solid zero fraction even with anti-aliased ink
    // spreading); digit ink is bright.
    EXPECT_GT(ops::zero_fraction(ex.image), 0.3);
    EXPECT_LT(ops::mean(ex.image), 0.5f);
    EXPECT_GT(ops::max(ex.image), 0.7f);
  }
}

TEST(SynthDigits, SplitsDisjoint) {
  auto splits = data::make_synth_digits_splits(8, 8, 12, 99);
  int identical = 0;
  for (std::int64_t i = 0; i < 8; ++i) {
    const auto tr = splits.train.get(i);
    const auto te = splits.test.get(i);
    bool same = true;
    for (std::int64_t k = 0; k < tr.image.numel(); ++k)
      if (tr.image[k] != te.image[k]) {
        same = false;
        break;
      }
    identical += same;
  }
  EXPECT_EQ(identical, 0);
}

}  // namespace
}  // namespace spiketune
