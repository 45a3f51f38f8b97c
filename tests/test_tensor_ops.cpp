// Unit tests for elementwise/reduction/nn kernels.
#include <gtest/gtest.h>

#include <cmath>

#include "core/error.h"
#include "tensor/tensor_ops.h"

namespace spiketune {
namespace {

TEST(Ops, AddScale) {
  Tensor a(Shape{3}, {1, 2, 3});
  Tensor b(Shape{3}, {10, 20, 30});
  ops::add_(b, a);
  EXPECT_EQ(b[0], 11.0f);
  EXPECT_EQ(b[2], 33.0f);
  Tensor c = ops::scale(a, -2.0f);
  EXPECT_EQ(c[0], -2.0f);
  ops::scale_(a, 0.5f);
  EXPECT_EQ(a[1], 1.0f);
}

TEST(Ops, ShapeMismatchThrows) {
  Tensor a(Shape{3});
  Tensor b(Shape{4});
  EXPECT_THROW(ops::add_(a, b), InvalidArgument);
}

TEST(Ops, Reductions) {
  Tensor t(Shape{4}, {-1, 3, 0, 2});
  EXPECT_FLOAT_EQ(ops::sum(t), 4.0f);
  EXPECT_FLOAT_EQ(ops::mean(t), 1.0f);
  EXPECT_FLOAT_EQ(ops::max(t), 3.0f);
  EXPECT_FLOAT_EQ(ops::min(t), -1.0f);
  EXPECT_EQ(ops::count_nonzero(t), 3);
  EXPECT_DOUBLE_EQ(ops::zero_fraction(t), 0.25);
  EXPECT_NEAR(ops::l2_norm(t), std::sqrt(14.0f), 1e-5);
}

TEST(Ops, SoftmaxRowsNormalized) {
  Tensor logits(Shape{2, 3}, {1, 2, 3, -1, 0, 1});
  Tensor p = ops::softmax_rows(logits, 3);
  for (int r = 0; r < 2; ++r) {
    float sum = 0.0f;
    for (int c = 0; c < 3; ++c) sum += p.at({r, c});
    EXPECT_NEAR(sum, 1.0f, 1e-6);
  }
  // monotone in logits
  EXPECT_LT(p.at({0, 0}), p.at({0, 1}));
  EXPECT_LT(p.at({0, 1}), p.at({0, 2}));
}

TEST(Ops, SoftmaxStableForLargeLogits) {
  Tensor logits(Shape{1, 2}, {1000.0f, 1001.0f});
  Tensor p = ops::softmax_rows(logits, 2);
  EXPECT_FALSE(std::isnan(p[0]));
  EXPECT_NEAR(p[0] + p[1], 1.0f, 1e-6);
  EXPECT_GT(p[1], p[0]);
}

TEST(Ops, ArgmaxRows) {
  Tensor m(Shape{2, 3}, {1, 9, 2, 7, 1, 3});
  const auto idx = ops::argmax_rows(m, 3);
  ASSERT_EQ(idx.size(), 2u);
  EXPECT_EQ(idx[0], 1);
  EXPECT_EQ(idx[1], 0);
}

TEST(Ops, EmptyReductionsThrow) {
  Tensor t(Shape{0});
  EXPECT_THROW(ops::mean(t), InvalidArgument);
}

}  // namespace
}  // namespace spiketune
