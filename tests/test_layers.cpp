// Conv2d / Linear / Pool / Flatten layers: forward semantics and numeric
// gradient checks of every backward path.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/error.h"
#include "core/parallel.h"
#include "conv_oracle.h"
#include "core/rng.h"
#include "snn/conv2d.h"
#include "snn/linear.h"
#include "snn/pool.h"
#include "tensor/gemm.h"
#include "tensor/gradcheck.h"
#include "tensor/im2col.h"
#include "tensor/tensor_ops.h"

namespace spiketune::snn {
namespace {

// Scalar objective used in gradient checks: weighted sum of the output so
// every output element receives a distinct gradient.
Tensor probe_weights(const Shape& shape, std::uint64_t seed) {
  Rng rng(seed);
  return Tensor::uniform(shape, rng, -1.0f, 1.0f);
}

double weighted_sum(const Tensor& out, const Tensor& probe) {
  double acc = 0.0;
  for (std::int64_t i = 0; i < out.numel(); ++i)
    acc += static_cast<double>(out[i]) * probe[i];
  return acc;
}

struct ThreadGuard {
  explicit ThreadGuard(int threads) { set_num_threads(threads); }
  ~ThreadGuard() { set_num_threads(1); }
};

void expect_bitwise_equal(const Tensor& want, const Tensor& got) {
  ASSERT_EQ(want.shape(), got.shape());
  if (want.numel() == 0) return;  // an empty tensor may have no data
  EXPECT_EQ(std::memcmp(want.data(), got.data(),
                        static_cast<std::size_t>(want.numel()) * sizeof(float)),
            0);
}

// y = x W^T + b as the strict gemm_nt dot product: the reference the
// zero-skipping Linear forward must reproduce byte for byte.
Tensor gemm_nt_reference(const Linear& fc, const Tensor& x) {
  const std::int64_t n = x.shape()[0];
  const std::int64_t out_f = fc.config().out_features;
  Tensor y(Shape{n, out_f});
  oracle::gemm_nt_serial(n, out_f, fc.config().in_features, 1.0f, x.data(),
          fc.weight().value.data(), 0.0f, y.data());
  for (std::int64_t i = 0; i < n; ++i)
    for (std::int64_t j = 0; j < out_f; ++j)
      y[i * out_f + j] += fc.bias().value[j];
  return y;
}

TEST(Linear, ForwardMatchesManual) {
  Rng rng(1);
  Linear fc(LinearConfig{2, 3}, rng);
  fc.weight().value = Tensor(Shape{3, 2}, {1, 2, 3, 4, 5, 6});
  fc.bias().value = Tensor(Shape{3}, {0.1f, 0.2f, 0.3f});
  fc.begin_window(1, false);
  Tensor out = fc.forward_step(Tensor(Shape{1, 2}, {1.0f, -1.0f}));
  EXPECT_NEAR(out[0], 1 - 2 + 0.1f, 1e-6f);
  EXPECT_NEAR(out[1], 3 - 4 + 0.2f, 1e-6f);
  EXPECT_NEAR(out[2], 5 - 6 + 0.3f, 1e-6f);
}

TEST(Linear, InputGradCheck) {
  Rng rng(2);
  Linear fc(LinearConfig{5, 4}, rng);
  Tensor x = Tensor::uniform(Shape{3, 5}, rng, -1.0f, 1.0f);
  const Tensor probe = probe_weights(Shape{3, 4}, 11);

  fc.begin_window(3, true);
  Tensor out = fc.forward_step(x);
  Tensor gin = fc.backward_step(probe);

  auto f = [&](const Tensor& xin) {
    Linear fc2(LinearConfig{5, 4}, rng);
    fc2.weight().value = fc.weight().value;
    fc2.bias().value = fc.bias().value;
    fc2.begin_window(3, false);
    return weighted_sum(fc2.forward_step(xin), probe);
  };
  const auto res = check_gradient(f, x, gin, 1e-2);
  EXPECT_TRUE(res.ok(2e-2, 1e-4)) << res.max_rel_error;
}

TEST(Linear, WeightGradCheck) {
  Rng rng(3);
  Linear fc(LinearConfig{4, 3}, rng);
  Tensor x = Tensor::uniform(Shape{2, 4}, rng, -1.0f, 1.0f);
  const Tensor probe = probe_weights(Shape{2, 3}, 13);

  fc.zero_grad();
  fc.begin_window(2, true);
  fc.forward_step(x);
  fc.backward_step(probe);

  const Tensor w0 = fc.weight().value;
  auto f = [&](const Tensor& w) {
    Linear fc2(LinearConfig{4, 3}, rng);
    fc2.weight().value = w;
    fc2.bias().value = fc.bias().value;
    fc2.begin_window(2, false);
    return weighted_sum(fc2.forward_step(x), probe);
  };
  const auto res = check_gradient(f, w0, fc.weight().grad, 1e-2);
  EXPECT_TRUE(res.ok(2e-2, 1e-4)) << res.max_rel_error;
}

TEST(Linear, BiasGradCheck) {
  Rng rng(4);
  Linear fc(LinearConfig{3, 2}, rng);
  Tensor x = Tensor::uniform(Shape{2, 3}, rng, -1.0f, 1.0f);
  const Tensor probe = probe_weights(Shape{2, 2}, 17);

  fc.zero_grad();
  fc.begin_window(2, true);
  fc.forward_step(x);
  fc.backward_step(probe);

  const Tensor b0 = fc.bias().value;
  auto f = [&](const Tensor& b) {
    Linear fc2(LinearConfig{3, 2}, rng);
    fc2.weight().value = fc.weight().value;
    fc2.bias().value = b;
    fc2.begin_window(2, false);
    return weighted_sum(fc2.forward_step(x), probe);
  };
  const auto res = check_gradient(f, b0, fc.bias().grad, 1e-2);
  EXPECT_TRUE(res.ok(2e-2, 1e-4)) << res.max_rel_error;
}

TEST(Linear, GradAccumulatesAcrossSteps) {
  Rng rng(5);
  Linear fc(LinearConfig{2, 2}, rng);
  Tensor x = Tensor::full(Shape{1, 2}, 1.0f);
  Tensor g = Tensor::full(Shape{1, 2}, 1.0f);
  fc.zero_grad();
  fc.begin_window(1, true);
  fc.forward_step(x);
  fc.forward_step(x);
  fc.backward_step(g);
  const float after_one = fc.weight().grad[0];
  fc.backward_step(g);
  EXPECT_NEAR(fc.weight().grad[0], 2.0f * after_one, 1e-6f);
}

TEST(Linear, ForwardIsBitwiseTheGemmNtProductAtAnyThreadCount) {
  Rng rng(21);
  Linear fc(LinearConfig{37, 19}, rng);
  // Every fifth weight is tiny, so products with small inputs land in the
  // subnormal range or underflow to +-0.
  Tensor& w = fc.weight().value;
  for (std::int64_t i = 0; i < w.numel(); i += 5) w[i] *= 1e-36f;
  Tensor x = Tensor::uniform(Shape{9, 37}, rng, -2.0f, 2.0f);
  for (std::int64_t i = 0; i < x.numel(); ++i) {
    switch (i % 6) {
      case 0: x[i] = 0.0f; break;
      case 1: x[i] = -0.0f; break;
      case 2: x[i] = 3e-6f; break;
      case 3: x[i] = -2e-9f; break;
      default: break;  // uniform, about half negative
    }
  }
  for (std::int64_t j = 0; j < 37; ++j) {
    x[2 * 37 + j] = 0.0f;   // an all-zero row
    x[5 * 37 + j] = -0.0f;  // an all-negative-zero row
  }
  const Tensor want = gemm_nt_reference(fc, x);
  for (int threads : {1, 4}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    ThreadGuard guard(threads);
    fc.begin_window(9, false);
    expect_bitwise_equal(want, fc.forward_step(x));
  }
}

TEST(Linear, WeightEditBetweenWindowsReachesNextWindow) {
  Rng rng(22);
  Linear fc(LinearConfig{4, 3}, rng);
  const Tensor x = Tensor::uniform(Shape{2, 4}, rng, -1.0f, 1.0f);
  fc.begin_window(2, false);
  const Tensor before = fc.forward_step(x);
  // As an optimizer step would, between windows.
  fc.weight().value[0] += 1.0f;
  fc.begin_window(2, false);
  const Tensor after = fc.forward_step(x);
  EXPECT_NE(after[0], before[0]);
  expect_bitwise_equal(gemm_nt_reference(fc, x), after);
}

TEST(Conv2d, ForwardMatchesManualKernel) {
  Rng rng(6);
  Conv2d conv(Conv2dConfig{1, 1, 3, 0, /*bias=*/false}, rng);
  // Identity-ish kernel: only center tap = 2.
  conv.weight().value.fill(0.0f);
  conv.weight().value[4] = 2.0f;
  Tensor x(Shape{1, 1, 4, 4});
  for (std::int64_t i = 0; i < 16; ++i) x[i] = static_cast<float>(i);
  conv.begin_window(1, false);
  Tensor out = conv.forward_step(x);
  EXPECT_EQ(out.shape(), Shape({1, 1, 2, 2}));
  EXPECT_FLOAT_EQ(out.at({0, 0, 0, 0}), 2.0f * x.at({0, 0, 1, 1}));
  EXPECT_FLOAT_EQ(out.at({0, 0, 1, 1}), 2.0f * x.at({0, 0, 2, 2}));
}

// The dense conv body the direct conv replaced: per sample, im2col, then
// out = W * cols by gemm, then + bias per channel.  This is the oracle
// that Conv2d::forward_samples must reproduce byte for byte.
Tensor im2col_gemm_reference(const ConvGeom& g, const Tensor& weight,
                             const Tensor& bias, const Tensor& x) {
  const std::int64_t n = x.shape()[0];
  const std::int64_t ocn = weight.shape()[0];
  const std::int64_t spatial = g.col_cols();
  Tensor out(Shape{n, ocn, g.out_h(), g.out_w()});
  std::vector<float> cols(static_cast<std::size_t>(g.col_rows() * spatial));
  for (std::int64_t s = 0; s < n; ++s) {
    float* o = out.data() + s * ocn * spatial;
    im2col(g, x.data() + s * g.channels * g.height * g.width, cols.data());
    gemm(ocn, spatial, g.col_rows(), 1.0f, weight.data(), cols.data(), 0.0f,
         o);
    if (bias.numel() == 0) continue;
    for (std::int64_t oc = 0; oc < ocn; ++oc)
      for (std::int64_t i = 0; i < spatial; ++i) o[oc * spatial + i] += bias[oc];
  }
  return out;
}

TEST(Conv2d, ForwardSampleMatchesIm2colGemmBitwise) {
  Rng rng(30);
  int combo = 0;
  for (std::int64_t ic : {1, 3, 32})
    for (std::int64_t oc : {1, 5, 16, 32, 33, 48})
      for (std::int64_t hw : {1, 3, 7, 16, 33})
        for (std::int64_t k : {1, 3, 5})
          for (std::int64_t pad : {0, 1, 2}) {
            if (hw + 2 * pad - k + 1 <= 0) continue;
            const bool with_bias = combo++ % 2 == 0;
            SCOPED_TRACE("ic=" + std::to_string(ic) + " oc=" +
                         std::to_string(oc) + " hw=" + std::to_string(hw) +
                         " k=" + std::to_string(k) + " pad=" +
                         std::to_string(pad) +
                         " bias=" + std::to_string(with_bias));
            const ConvGeom g{ic, hw, hw, k, k, pad, pad};
            // Exact +-0 weights (which gemm skips) and tiny ones, whose
            // products with small inputs are subnormal or underflow.
            Tensor w = Tensor::uniform(Shape{oc, ic * k * k}, rng, -1, 1);
            for (std::int64_t i = 0; i < w.numel(); ++i) {
              if (i % 7 == 0) w[i] = 0.0f;
              if (i % 7 == 1) w[i] = -0.0f;
              if (i % 7 == 2) w[i] *= 1e-36f;
            }
            const Tensor b = with_bias
                                 ? Tensor::uniform(Shape{oc}, rng, -1, 1)
                                 : Tensor(Shape{0});
            // The full-size images run as one sample to keep the oracle
            // cheap; the rest as two.
            const std::int64_t n = hw == 33 ? 1 : 2;
            Tensor x = Tensor::uniform(Shape{n, ic, hw, hw}, rng, -2, 2);
            for (std::int64_t i = 0; i < x.numel(); ++i) {
              switch (i % 6) {
                case 0: x[i] = 0.0f; break;
                case 1: x[i] = -0.0f; break;
                case 2: x[i] = 3e-6f; break;
                case 3: x[i] = -2e-9f; break;
                default: break;  // uniform, about half negative
              }
            }
            const Tensor want = im2col_gemm_reference(g, w, b, x);
            const Tensor wt = ops::transpose_2d(w);
            std::vector<float> padded(
                static_cast<std::size_t>(n * Conv2d::padded_elems(g)));
            for (int threads : {1, 4}) {
              ThreadGuard guard(threads);
              // The whole batch and, split across threads, its first
              // sample as a batch of one.
              for (std::int64_t rows : {n, std::int64_t{1}}) {
                if (rows == 1 && (n == 1 || threads == 1)) continue;
                Tensor got(Shape{rows, oc, g.out_h(), g.out_w()});
                Conv2d::forward_samples(g, wt, b, x.data(), rows,
                                        padded.data(), got.data());
                ASSERT_EQ(std::memcmp(want.data(), got.data(),
                                      static_cast<std::size_t>(got.numel()) *
                                          sizeof(float)),
                          0)
                    << "threads=" << threads << " rows=" << rows;
              }
            }
          }
}

TEST(Conv2d, WeightEditBetweenWindowsReachesNextWindow) {
  Rng rng(32);
  Conv2d conv(Conv2dConfig{2, 3, 3, /*pad=*/1}, rng);
  const Tensor x = Tensor::uniform(Shape{2, 2, 5, 5}, rng, -1.0f, 1.0f);
  conv.begin_window(2, false);
  const Tensor before = conv.forward_step(x);
  // As an optimizer step would, between windows: the centre tap of
  // filter 0, which output (0, 0, 0) reads from x[0, 0, 0, 0].
  conv.weight().value[4] += 1.0f;
  conv.begin_window(2, false);
  const Tensor after = conv.forward_step(x);
  EXPECT_NE(after[0], before[0]);
  const ConvGeom g{2, 5, 5, 3, 3, 1, 1};
  expect_bitwise_equal(
      im2col_gemm_reference(g, conv.weight().value, conv.bias().value, x),
      after);
}

TEST(Conv2d, InputGradCheck) {
  Rng rng(7);
  Conv2d conv(Conv2dConfig{2, 3, 3}, rng);
  Tensor x = Tensor::uniform(Shape{2, 2, 5, 5}, rng, -1.0f, 1.0f);
  const Tensor probe = probe_weights(Shape{2, 3, 3, 3}, 23);

  conv.begin_window(2, true);
  conv.forward_step(x);
  Tensor gin = conv.backward_step(probe);

  auto f = [&](const Tensor& xin) {
    Conv2d c2(Conv2dConfig{2, 3, 3}, rng);
    c2.weight().value = conv.weight().value;
    c2.bias().value = conv.bias().value;
    c2.begin_window(2, false);
    return weighted_sum(c2.forward_step(xin), probe);
  };
  const auto res = check_gradient(f, x, gin, 1e-2);
  EXPECT_TRUE(res.ok(2e-2, 1e-4)) << res.max_rel_error;
}

TEST(Conv2d, WeightGradCheck) {
  Rng rng(8);
  Conv2d conv(Conv2dConfig{2, 2, 3}, rng);
  Tensor x = Tensor::uniform(Shape{1, 2, 5, 5}, rng, -1.0f, 1.0f);
  const Tensor probe = probe_weights(Shape{1, 2, 3, 3}, 29);

  conv.zero_grad();
  conv.begin_window(1, true);
  conv.forward_step(x);
  conv.backward_step(probe);

  const Tensor w0 = conv.weight().value;
  auto f = [&](const Tensor& w) {
    Conv2d c2(Conv2dConfig{2, 2, 3}, rng);
    c2.weight().value = w;
    c2.bias().value = conv.bias().value;
    c2.begin_window(1, false);
    return weighted_sum(c2.forward_step(x), probe);
  };
  const auto res = check_gradient(f, w0, conv.weight().grad, 1e-2);
  EXPECT_TRUE(res.ok(2e-2, 1e-4)) << res.max_rel_error;
}

TEST(Conv2d, BiasGradIsSpatialSumOfProbe) {
  Rng rng(9);
  Conv2d conv(Conv2dConfig{1, 2, 3}, rng);
  Tensor x = Tensor::uniform(Shape{1, 1, 4, 4}, rng, -1.0f, 1.0f);
  Tensor probe(Shape{1, 2, 2, 2});
  probe.fill(1.0f);
  conv.zero_grad();
  conv.begin_window(1, true);
  conv.forward_step(x);
  conv.backward_step(probe);
  EXPECT_NEAR(conv.bias().grad[0], 4.0f, 1e-5f);
  EXPECT_NEAR(conv.bias().grad[1], 4.0f, 1e-5f);
}

// Overwrites a regular pattern of `t` with +0, -0, a spike, and tiny
// magnitudes whose products with other tiny values are subnormal or
// underflow to +-0; the rest stays as drawn (about half negative).
void season(Tensor& t, std::int64_t phase) {
  for (std::int64_t i = 0; i < t.numel(); ++i) {
    switch ((i + phase) % 9) {
      case 0: t[i] = 0.0f; break;
      case 1: t[i] = -0.0f; break;
      case 2: t[i] = 1.0f; break;
      case 3: t[i] = 3e-20f; break;
      case 4: t[i] = -2e-22f; break;
      default: break;
    }
  }
}

// Runs a two-step window through `conv` at `threads` and returns the
// per-step input gradients in backward order.  The parameter gradients
// start from `wg0` / `bg0`, as they do on every step after the first.
std::vector<Tensor> run_conv_backward(Conv2d& conv, int threads,
                                      const std::vector<Tensor>& xs,
                                      const std::vector<Tensor>& gos,
                                      const Tensor& wg0, const Tensor& bg0) {
  ThreadGuard guard(threads);
  conv.weight().grad = wg0;
  conv.bias().grad = bg0;
  conv.begin_window(xs[0].shape()[0], true);
  for (const Tensor& x : xs) conv.forward_step(x);
  std::vector<Tensor> gis;
  for (std::size_t t = gos.size(); t-- > 0;)
    gis.push_back(conv.backward_step(gos[t]));
  return gis;
}

TEST(Conv2d, BackwardMatchesIm2colGemmOracleBitwise) {
  Rng rng(40);
  // The CSNN's two conv shapes (16x16 images) and one whose channel counts
  // fill no vector and whose planes are not square.
  const struct {
    std::int64_t ic, oc, h, w;
  } shapes[] = {{3, 32, 16, 16}, {32, 32, 7, 7}, {5, 7, 9, 11}};
  for (const auto& sh : shapes)
    for (std::int64_t pad : {0, 1})
      for (bool with_bias : {true, false})
        for (std::int64_t n : {1, 5}) {
          SCOPED_TRACE("ic=" + std::to_string(sh.ic) + " oc=" +
                       std::to_string(sh.oc) + " pad=" + std::to_string(pad) +
                       " bias=" + std::to_string(with_bias) +
                       " n=" + std::to_string(n));
          Conv2d conv(Conv2dConfig{sh.ic, sh.oc, 3, pad, with_bias}, rng);
          season(conv.weight().value, 5);
          const ConvGeom g{sh.ic, sh.h, sh.w, 3, 3, pad, pad};
          const Shape out{n, sh.oc, g.out_h(), g.out_w()};
          std::vector<Tensor> xs;
          std::vector<Tensor> gos;
          for (std::int64_t t = 0; t < 2; ++t) {
            xs.push_back(Tensor::uniform(Shape{n, sh.ic, sh.h, sh.w}, rng,
                                         -2.0f, 2.0f));
            season(xs.back(), t);
            gos.push_back(Tensor::uniform(out, rng, -1.0f, 1.0f));
            season(gos.back(), t + 3);
          }
          const Tensor wg0 =
              Tensor::uniform(conv.weight().value.shape(), rng, -1.0f, 1.0f);
          const Tensor bg0 =
              Tensor::uniform(conv.bias().value.shape(), rng, -1.0f, 1.0f);

          Tensor want_wg = wg0;
          Tensor want_bg = bg0;
          std::vector<Tensor> want_gi;
          for (std::size_t t = gos.size(); t-- > 0;) {
            want_gi.emplace_back(xs[t].shape());
            oracle::conv_backward_oracle(
                g, sh.oc, conv.weight().value.data(), xs[t].data(),
                gos[t].data(), n, want_gi.back().data(), want_wg.data(),
                with_bias ? want_bg.data() : nullptr);
          }
          for (int threads : {1, 2, 4}) {
            SCOPED_TRACE("threads=" + std::to_string(threads));
            const std::vector<Tensor> gis =
                run_conv_backward(conv, threads, xs, gos, wg0, bg0);
            ASSERT_EQ(gis.size(), want_gi.size());
            for (std::size_t t = 0; t < gis.size(); ++t)
              expect_bitwise_equal(want_gi[t], gis[t]);
            expect_bitwise_equal(want_wg, conv.weight().grad);
            expect_bitwise_equal(want_bg, conv.bias().grad);
          }
        }
}

// An overflowed or NaN gradient must still reach the bias gradient as a
// non-finite value, so the trainer's --nan-policy sees it as before.
TEST(Conv2d, NonFiniteGradOutputLeavesNonFiniteBiasGrad) {
  Rng rng(41);
  Conv2d conv(Conv2dConfig{4, 6, 3}, rng);
  const ConvGeom g{4, 8, 8, 3, 3};
  const std::vector<Tensor> xs{
      Tensor::uniform(Shape{3, 4, 8, 8}, rng, -1.0f, 1.0f)};
  Tensor go = Tensor::uniform(Shape{3, 6, 6, 6}, rng, -1.0f, 1.0f);
  go[1 * 36 + 7] = INFINITY;                  // sample 0, channel 1
  go[(2 * 6 + 4) * 36 + 20] = -INFINITY;      // sample 2, channel 4
  go[(1 * 6 + 2) * 36 + 3] = std::nanf("");  // sample 1, channel 2
  const Tensor wg0(conv.weight().value.shape());
  const Tensor bg0(conv.bias().value.shape());
  Tensor want_gi(xs[0].shape());
  Tensor want_wg = wg0;
  Tensor want_bg = bg0;
  oracle::conv_backward_oracle(g, 6, conv.weight().value.data(),
                               xs[0].data(), go.data(), 3, want_gi.data(),
                               want_wg.data(), want_bg.data());
  for (int threads : {1, 4}) {
    run_conv_backward(conv, threads, xs, {go}, wg0, bg0);
    expect_bitwise_equal(want_bg, conv.bias().grad);
    for (std::int64_t oc = 0; oc < 6; ++oc)
      EXPECT_EQ(std::isfinite(conv.bias().grad[oc]),
                oc != 1 && oc != 2 && oc != 4)
          << "oc=" << oc;
    for (std::int64_t i = 0; i < want_wg.numel(); ++i)
      ASSERT_EQ(std::isfinite(want_wg[i]),
                std::isfinite(conv.weight().grad[i]))
          << "weight grad " << i;
  }
}

TEST(Conv2d, PaddingGeometry) {
  Rng rng(10);
  Conv2d conv(Conv2dConfig{1, 1, 3, /*pad=*/1}, rng);
  EXPECT_EQ(conv.output_shape(Shape{1, 8, 8}), Shape({1, 8, 8}));
  Tensor x(Shape{1, 1, 8, 8});
  conv.begin_window(1, false);
  EXPECT_EQ(conv.forward_step(x).shape(), Shape({1, 1, 8, 8}));
}

TEST(Conv2d, FanoutPerSpike) {
  Rng rng(11);
  Conv2d conv(Conv2dConfig{3, 32, 3}, rng);
  EXPECT_EQ(conv.fanout_per_spike(), 32 * 9);
}

TEST(Conv2d, ChannelMismatchThrows) {
  Rng rng(12);
  Conv2d conv(Conv2dConfig{3, 4, 3}, rng);
  conv.begin_window(1, false);
  EXPECT_THROW(conv.forward_step(Tensor(Shape{1, 2, 8, 8})),
               InvalidArgument);
}

TEST(MaxPool, ForwardSelectsMaxima) {
  MaxPool2d pool(2);
  Tensor x(Shape{1, 1, 2, 4}, {1, 5, 2, 0, 3, 4, 9, 1});
  pool.begin_window(1, false);
  Tensor out = pool.forward_step(x);
  EXPECT_EQ(out.shape(), Shape({1, 1, 1, 2}));
  EXPECT_EQ(out[0], 5.0f);
  EXPECT_EQ(out[1], 9.0f);
}

TEST(MaxPool, BackwardRoutesToArgmax) {
  MaxPool2d pool(2);
  Tensor x(Shape{1, 1, 2, 2}, {1, 7, 3, 2});
  pool.begin_window(1, true);
  pool.forward_step(x);
  Tensor g(Shape{1, 1, 1, 1}, {5.0f});
  Tensor gin = pool.backward_step(g);
  EXPECT_EQ(gin[0], 0.0f);
  EXPECT_EQ(gin[1], 5.0f);
  EXPECT_EQ(gin[2], 0.0f);
  EXPECT_EQ(gin[3], 0.0f);
}

TEST(MaxPool, TruncatesRaggedBorder) {
  MaxPool2d pool(2);
  Tensor x(Shape{1, 1, 5, 5});
  pool.begin_window(1, false);
  EXPECT_EQ(pool.forward_step(x).shape(), Shape({1, 1, 2, 2}));
}

TEST(MaxPool, GradCheckOnDistinctValues) {
  // Finite differences are valid when no two window entries tie.
  Rng rng(13);
  MaxPool2d pool(2);
  Tensor x(Shape{1, 2, 4, 4});
  for (std::int64_t i = 0; i < x.numel(); ++i)
    x[i] = static_cast<float>(i) * 0.37f;
  const Tensor probe = probe_weights(Shape{1, 2, 2, 2}, 31);
  pool.begin_window(1, true);
  pool.forward_step(x);
  Tensor gin = pool.backward_step(probe);
  auto f = [&](const Tensor& xin) {
    MaxPool2d p2(2);
    p2.begin_window(1, false);
    return weighted_sum(p2.forward_step(xin), probe);
  };
  const auto res = check_gradient(f, x, gin, 1e-3);
  EXPECT_TRUE(res.ok(1e-2, 1e-4)) << res.max_rel_error;
}

TEST(MaxPool, TiedMaximaRouteToFirstIndex) {
  MaxPool2d pool(2);
  Tensor x(Shape{1, 1, 2, 2}, {3, 3, 3, 3});
  pool.begin_window(1, true);
  pool.forward_step(x);
  Tensor gin = pool.backward_step(Tensor(Shape{1, 1, 1, 1}, {5.0f}));
  EXPECT_EQ(gin[0], 5.0f);
  EXPECT_EQ(gin[1], 0.0f);
  EXPECT_EQ(gin[2], 0.0f);
  EXPECT_EQ(gin[3], 0.0f);
}

// Forward then backward of one pool layer at `threads` participants.
template <class Pool>
std::pair<Tensor, Tensor> pool_round_trip(const Tensor& x, const Tensor& g,
                                          int threads) {
  ThreadGuard guard(threads);
  Pool pool(2);
  pool.begin_window(x.shape()[0], true);
  Tensor out = pool.forward_step(x);
  Tensor gin = pool.backward_step(g);
  return {std::move(out), std::move(gin)};
}

TEST(Pool, ForwardAndBackwardAreBitwiseEqualAcrossThreadCounts) {
  Rng rng(23);
  // Values from {-1, 0, 1, 2}: most windows hold tied maxima, so the
  // first-max rule decides where max-pool gradients land.  The 7-wide
  // planes leave a ragged border.
  Tensor x(Shape{3, 5, 6, 7});
  for (std::int64_t i = 0; i < x.numel(); ++i)
    x[i] = static_cast<float>(rng.uniform_int(4)) - 1.0f;
  const Tensor g = Tensor::uniform(Shape{3, 5, 3, 3}, rng, -1.0f, 1.0f);
  const auto max1 = pool_round_trip<MaxPool2d>(x, g, 1);
  const auto max4 = pool_round_trip<MaxPool2d>(x, g, 4);
  expect_bitwise_equal(max1.first, max4.first);
  expect_bitwise_equal(max1.second, max4.second);
  const auto avg1 = pool_round_trip<AvgPool2d>(x, g, 1);
  const auto avg4 = pool_round_trip<AvgPool2d>(x, g, 4);
  expect_bitwise_equal(avg1.first, avg4.first);
  expect_bitwise_equal(avg1.second, avg4.second);
}

TEST(AvgPool, ForwardAverages) {
  AvgPool2d pool(2);
  Tensor x(Shape{1, 1, 2, 2}, {1, 3, 5, 7});
  pool.begin_window(1, false);
  Tensor out = pool.forward_step(x);
  EXPECT_FLOAT_EQ(out[0], 4.0f);
}

TEST(AvgPool, GradCheck) {
  Rng rng(14);
  AvgPool2d pool(2);
  Tensor x = Tensor::uniform(Shape{2, 2, 4, 4}, rng, -1.0f, 1.0f);
  const Tensor probe = probe_weights(Shape{2, 2, 2, 2}, 37);
  pool.begin_window(2, true);
  pool.forward_step(x);
  Tensor gin = pool.backward_step(probe);
  auto f = [&](const Tensor& xin) {
    AvgPool2d p2(2);
    p2.begin_window(2, false);
    return weighted_sum(p2.forward_step(xin), probe);
  };
  const auto res = check_gradient(f, x, gin, 1e-3);
  EXPECT_TRUE(res.ok(1e-2, 1e-4)) << res.max_rel_error;
}

TEST(Flatten, RoundTripsShape) {
  Flatten flat;
  flat.begin_window(2, true);
  Tensor x(Shape{2, 3, 4, 5});
  Tensor out = flat.forward_step(x);
  EXPECT_EQ(out.shape(), Shape({2, 60}));
  Tensor g(Shape{2, 60});
  Tensor gin = flat.backward_step(g);
  EXPECT_EQ(gin.shape(), x.shape());
}

TEST(Flatten, OutputShapePerSample) {
  Flatten flat;
  EXPECT_EQ(flat.output_shape(Shape{3, 4, 5}), Shape({60}));
}

TEST(Layers, ParamListArity) {
  Rng rng(15);
  Conv2d conv(Conv2dConfig{1, 1, 3}, rng);
  EXPECT_EQ(conv.params().size(), 2u);
  Conv2d conv_nb(Conv2dConfig{1, 1, 3, 0, /*bias=*/false}, rng);
  EXPECT_EQ(conv_nb.params().size(), 1u);
  Linear fc(LinearConfig{2, 2}, rng);
  EXPECT_EQ(fc.params().size(), 2u);
  MaxPool2d pool(2);
  EXPECT_TRUE(pool.params().empty());
}

}  // namespace
}  // namespace spiketune::snn
