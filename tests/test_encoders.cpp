// Spike encoder tests: statistics, determinism, binary-ness.
#include <gtest/gtest.h>

#include "core/error.h"
#include "data/encoders.h"
#include "tensor/tensor_ops.h"

namespace spiketune::data {
namespace {

Tensor constant_batch(float value, Shape shape = Shape{2, 1, 4, 4}) {
  return Tensor::full(std::move(shape), value);
}

TEST(RateEncoder, MeanMatchesIntensity) {
  RateEncoder enc(123);
  const Tensor batch = constant_batch(0.3f, Shape{4, 1, 8, 8});
  const auto steps = enc.encode(batch, 200, 0);
  double total = 0.0;
  double n = 0.0;
  for (const auto& s : steps) {
    total += static_cast<double>(ops::count_nonzero(s));
    n += static_cast<double>(s.numel());
  }
  EXPECT_NEAR(total / n, 0.3, 0.02);
}

TEST(RateEncoder, OutputIsBinary) {
  RateEncoder enc;
  const Tensor batch = constant_batch(0.5f);
  for (const auto& s : enc.encode(batch, 10, 1)) {
    for (std::int64_t i = 0; i < s.numel(); ++i)
      EXPECT_TRUE(s[i] == 0.0f || s[i] == 1.0f);
  }
  EXPECT_TRUE(enc.binary());
}

TEST(RateEncoder, ExtremesAreDeterministic) {
  RateEncoder enc;
  const auto zeros = enc.encode(constant_batch(0.0f), 5, 0);
  const auto ones = enc.encode(constant_batch(1.0f), 5, 0);
  for (const auto& s : zeros) EXPECT_EQ(ops::count_nonzero(s), 0);
  for (const auto& s : ones)
    EXPECT_EQ(ops::count_nonzero(s), s.numel());
}

TEST(RateEncoder, GainScalesProbability) {
  RateEncoder enc(7, /*gain=*/0.5f);
  const auto steps = enc.encode(constant_batch(1.0f, Shape{4, 1, 8, 8}), 100, 0);
  double total = 0.0, n = 0.0;
  for (const auto& s : steps) {
    total += static_cast<double>(ops::count_nonzero(s));
    n += static_cast<double>(s.numel());
  }
  EXPECT_NEAR(total / n, 0.5, 0.03);
}

TEST(RateEncoder, StreamsDecorrelate) {
  RateEncoder enc(9);
  const Tensor batch = constant_batch(0.5f);
  const auto a = enc.encode(batch, 1, 0);
  const auto b = enc.encode(batch, 1, 1);
  int diff = 0;
  for (std::int64_t i = 0; i < a[0].numel(); ++i)
    diff += (a[0][i] != b[0][i]);
  EXPECT_GT(diff, 0);
}

TEST(RateEncoder, SameStreamReproduces) {
  RateEncoder e1(9), e2(9);
  const Tensor batch = constant_batch(0.5f);
  const auto a = e1.encode(batch, 3, 5);
  const auto b = e2.encode(batch, 3, 5);
  for (std::size_t t = 0; t < a.size(); ++t)
    for (std::int64_t i = 0; i < a[t].numel(); ++i)
      EXPECT_EQ(a[t][i], b[t][i]);
}

TEST(DirectEncoder, RepeatsAnalogInput) {
  DirectEncoder enc;
  const Tensor batch = constant_batch(0.37f);
  const auto steps = enc.encode(batch, 4, 0);
  ASSERT_EQ(steps.size(), 4u);
  for (const auto& s : steps)
    for (std::int64_t i = 0; i < s.numel(); ++i) EXPECT_EQ(s[i], 0.37f);
  EXPECT_FALSE(enc.binary());
}

TEST(LatencyEncoder, OneSpikePerActivePixel) {
  LatencyEncoder enc;
  Tensor batch(Shape{1, 1, 2, 2}, {1.0f, 0.5f, 0.25f, 0.0f});
  const auto steps = enc.encode(batch, 8, 0);
  std::vector<int> fire_count(4, 0);
  for (const auto& s : steps)
    for (int i = 0; i < 4; ++i) fire_count[i] += (s[i] != 0.0f);
  EXPECT_EQ(fire_count[0], 1);
  EXPECT_EQ(fire_count[1], 1);
  EXPECT_EQ(fire_count[2], 1);
  EXPECT_EQ(fire_count[3], 0);  // below threshold: silent
}

TEST(LatencyEncoder, BrighterFiresEarlier) {
  LatencyEncoder enc;
  Tensor batch(Shape{1, 1, 1, 3}, {1.0f, 0.6f, 0.2f});
  const auto steps = enc.encode(batch, 10, 0);
  auto first_spike = [&](int idx) {
    for (std::size_t t = 0; t < steps.size(); ++t)
      if (steps[t][idx] != 0.0f) return static_cast<int>(t);
    return -1;
  };
  EXPECT_EQ(first_spike(0), 0);  // max intensity -> immediately
  EXPECT_LT(first_spike(0), first_spike(1));
  EXPECT_LT(first_spike(1), first_spike(2));
}

TEST(MakeEncoder, FactoryNames) {
  EXPECT_EQ(make_encoder("rate")->name(), "rate");
  EXPECT_EQ(make_encoder("direct")->name(), "direct");
  EXPECT_EQ(make_encoder("latency")->name(), "latency");
  EXPECT_THROW(make_encoder("poisson2"), InvalidArgument);
}

TEST(Encoders, RejectNonPositiveSteps) {
  RateEncoder enc;
  EXPECT_THROW(enc.encode(constant_batch(0.5f), 0, 0), InvalidArgument);
}

}  // namespace
}  // namespace spiketune::data
