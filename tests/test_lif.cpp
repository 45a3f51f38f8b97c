// LIF neuron dynamics (paper Eq. 1-2) and BPTT gradient checks.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>

#include "core/error.h"
#include "snn/lif.h"
#include "tensor/gradcheck.h"
#include "tensor/tensor_ops.h"

namespace spiketune::snn {
namespace {

LifConfig config(float beta, float theta,
                 Surrogate sg = Surrogate::fast_sigmoid(25.0f)) {
  LifConfig c;
  c.beta = beta;
  c.threshold = theta;
  c.surrogate = sg;
  return c;
}

Tensor scalar_input(float v) { return Tensor(Shape{1, 1}, {v}); }

std::uint32_t bits(float v) { return std::bit_cast<std::uint32_t>(v); }

TEST(Lif, SubThresholdIntegrationDecays) {
  // With theta = 10, constant input 1 never fires: u_t = sum beta^i.
  Lif lif(config(0.5f, 10.0f));
  lif.begin_window(1, false);
  float expected = 0.0f;
  for (int t = 0; t < 5; ++t) {
    Tensor s = lif.forward_step(scalar_input(1.0f));
    expected = 0.5f * expected + 1.0f;
    EXPECT_EQ(s[0], 0.0f) << "unexpected spike at t=" << t;
  }
  EXPECT_EQ(lif.window_spike_count(), 0);
}

TEST(Lif, FiresWhenAboveThreshold) {
  Lif lif(config(0.0f, 0.5f));
  lif.begin_window(1, false);
  Tensor s = lif.forward_step(scalar_input(1.0f));
  EXPECT_EQ(s[0], 1.0f);
  EXPECT_EQ(lif.window_spike_count(), 1);
}

TEST(Lif, StrictThresholdComparison) {
  // Eq. 2: spike iff u > theta (strict).
  Lif lif(config(0.0f, 1.0f));
  lif.begin_window(1, false);
  EXPECT_EQ(lif.forward_step(scalar_input(1.0f))[0], 0.0f);
  lif.begin_window(1, false);
  EXPECT_EQ(lif.forward_step(scalar_input(1.0f + 1e-4f))[0], 1.0f);
}

TEST(Lif, ResetBySubtractionKeepsResidual) {
  // u = 1.7, theta = 1 -> spike; residual u_post = 0.7 carried via beta = 1.
  Lif lif(config(1.0f, 1.0f));
  lif.begin_window(1, false);
  Tensor s1 = lif.forward_step(scalar_input(1.7f));
  EXPECT_EQ(s1[0], 1.0f);
  // Next step zero input: u = 0.7 -> no spike; then +0.4 -> 1.1 -> spike.
  Tensor s2 = lif.forward_step(scalar_input(0.0f));
  EXPECT_EQ(s2[0], 0.0f);
  Tensor s3 = lif.forward_step(scalar_input(0.4f));
  EXPECT_EQ(s3[0], 1.0f);
}

TEST(Lif, HigherBetaFiresMoreWithSameInput) {
  // Paper: higher beta retains more state -> more likely to fire.
  auto spikes_with_beta = [](float beta) {
    Lif lif(config(beta, 1.0f));
    lif.begin_window(1, false);
    std::int64_t count = 0;
    for (int t = 0; t < 50; ++t)
      count += static_cast<std::int64_t>(
          lif.forward_step(scalar_input(0.3f))[0]);
    return count;
  };
  EXPECT_GT(spikes_with_beta(0.9f), spikes_with_beta(0.3f));
}

TEST(Lif, LowerThresholdFiresMore) {
  // Paper: lower theta reduces the potential required to fire.
  auto spikes_with_theta = [](float theta) {
    Lif lif(config(0.5f, theta));
    lif.begin_window(1, false);
    std::int64_t count = 0;
    for (int t = 0; t < 50; ++t)
      count += static_cast<std::int64_t>(
          lif.forward_step(scalar_input(0.6f))[0]);
    return count;
  };
  EXPECT_GT(spikes_with_theta(0.8f), spikes_with_theta(2.0f));
}

TEST(Lif, PeriodicFiringRateMatchesTheory) {
  // beta = 1 (no leak), constant input c < theta: fires every
  // ceil(theta/c) steps asymptotically (reset by subtraction conserves
  // charge).  Rate over a long window -> c / theta.
  Lif lif(config(1.0f, 1.0f));
  lif.begin_window(1, false);
  const int T = 1000;
  const float c = 0.24f;
  std::int64_t count = 0;
  for (int t = 0; t < T; ++t)
    count += static_cast<std::int64_t>(lif.forward_step(scalar_input(c))[0]);
  EXPECT_NEAR(static_cast<double>(count) / T, 0.24, 0.01);
}

TEST(Lif, WindowStateResets) {
  Lif lif(config(1.0f, 1.0f));
  lif.begin_window(1, false);
  lif.forward_step(scalar_input(0.9f));
  // New window: membrane must start from zero again.
  lif.begin_window(1, false);
  Tensor s = lif.forward_step(scalar_input(0.9f));
  EXPECT_EQ(s[0], 0.0f);
  EXPECT_EQ(lif.window_spike_count(), 0);
}

TEST(Lif, InputShapeChangeMidWindowThrows) {
  Lif lif(config(0.5f, 1.0f));
  lif.begin_window(1, false);
  lif.forward_step(Tensor(Shape{1, 2}));
  EXPECT_THROW(lif.forward_step(Tensor(Shape{1, 3})), InvalidArgument);
}

TEST(Lif, ConfigValidation) {
  EXPECT_THROW(Lif(config(-0.1f, 1.0f)), InvalidArgument);
  EXPECT_THROW(Lif(config(1.1f, 1.0f)), InvalidArgument);
  EXPECT_THROW(Lif(config(0.5f, 0.0f)), InvalidArgument);
}

// BPTT gradient check: the LIF backward must equal the finite-difference
// gradient of the *surrogate-relaxed* dynamics.  We verify against the
// analytically-derived recurrence instead: run backward on a 3-step window
// and compare with a hand-rolled reference implementation of
//   dL/du_pre[t] = c[t] + (g_s[t] - theta c[t]) sg'(u_pre[t]-theta),
//   c[t-1] = beta dL/du_pre[t].
// The reference performs the layer's operations in the layer's order, so
// the gradients must agree bit for bit, not just to a tolerance.
TEST(Lif, BackwardMatchesHandRolledRecurrence) {
  const float beta = 0.6f;
  const float theta = 1.0f;
  const Surrogate sg = Surrogate::fast_sigmoid(5.0f);
  Lif lif(config(beta, theta, sg));

  const std::vector<float> inputs{0.8f, 0.9f, 0.4f};
  const std::vector<float> gout{0.3f, -0.2f, 0.5f};

  lif.begin_window(1, true);
  std::vector<float> u_pre(3);
  float u_post = 0.0f;
  for (int t = 0; t < 3; ++t) {
    lif.forward_step(scalar_input(inputs[static_cast<std::size_t>(t)]));
    const float up =
        beta * u_post + inputs[static_cast<std::size_t>(t)];
    u_pre[static_cast<std::size_t>(t)] = up;
    u_post = up - (up > theta ? theta : 0.0f);
  }

  lif.begin_backward();
  std::vector<float> got(3);
  for (int t = 2; t >= 0; --t) {
    Tensor g = lif.backward_step(
        scalar_input(gout[static_cast<std::size_t>(t)]));
    got[static_cast<std::size_t>(t)] = g[0];
  }

  float carry = 0.0f;
  std::vector<float> expect(3);
  for (int t = 2; t >= 0; --t) {
    const float spike_path = gout[static_cast<std::size_t>(t)] -
                             theta * carry;
    const float gi =
        carry + spike_path * sg.grad(u_pre[static_cast<std::size_t>(t)] -
                                     theta);
    expect[static_cast<std::size_t>(t)] = gi;
    carry = beta * gi;
  }
  for (int t = 0; t < 3; ++t)
    EXPECT_EQ(bits(got[static_cast<std::size_t>(t)]),
              bits(expect[static_cast<std::size_t>(t)]))
        << "t=" << t << ": " << got[static_cast<std::size_t>(t)] << " vs "
        << expect[static_cast<std::size_t>(t)];
}

TEST(Lif, BackwardWithoutForwardThrows) {
  Lif lif(config(0.5f, 1.0f));
  lif.begin_window(1, true);
  lif.begin_backward();
  EXPECT_THROW(lif.backward_step(scalar_input(1.0f)), InvalidArgument);
}

TEST(Lif, InferenceWindowCachesNothing) {
  Lif lif(config(0.5f, 1.0f));
  lif.begin_window(1, false);
  lif.forward_step(scalar_input(2.0f));
  lif.begin_backward();
  EXPECT_THROW(lif.backward_step(scalar_input(1.0f)), InvalidArgument);
}

TEST(Lif, SpikeAndElementCountsTrack) {
  Lif lif(config(0.0f, 0.5f));
  lif.begin_window(4, false);
  Tensor batch(Shape{4, 2});
  batch.fill(1.0f);  // all fire
  lif.forward_step(batch);
  batch.fill(0.0f);  // none fire
  lif.forward_step(batch);
  EXPECT_EQ(lif.window_spike_count(), 8);
  EXPECT_EQ(lif.window_element_count(), 16);
}

}  // namespace
}  // namespace spiketune::snn
