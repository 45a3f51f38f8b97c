// im2col vs direct convolution, the tests' col2im as its adjoint, plus
// gradcheck self-tests.
#include <gtest/gtest.h>

#include <vector>

#include "conv_oracle.h"
#include "core/error.h"
#include "core/rng.h"
#include "tensor/gemm.h"
#include "tensor/gradcheck.h"
#include "tensor/im2col.h"
#include "tensor/tensor_ops.h"

namespace spiketune {
namespace {

TEST(ConvGeom, OutputDims) {
  EXPECT_EQ(conv_out_dim(32, 3, 0, 1), 30);
  EXPECT_EQ(conv_out_dim(32, 3, 1, 1), 32);
  EXPECT_EQ(conv_out_dim(5, 5, 0, 1), 1);
  EXPECT_THROW(conv_out_dim(2, 5, 0, 1), InvalidArgument);
}

TEST(Im2col, IdentityKernel) {
  // 1x1 kernel: columns == flattened image.
  ConvGeom g{2, 3, 3, 1, 1, 0, 0, 1, 1};
  std::vector<float> img(18);
  for (std::size_t i = 0; i < img.size(); ++i) img[i] = static_cast<float>(i);
  std::vector<float> cols(static_cast<std::size_t>(g.col_rows() * g.col_cols()));
  im2col(g, img.data(), cols.data());
  for (std::size_t i = 0; i < img.size(); ++i) EXPECT_EQ(cols[i], img[i]);
}

TEST(Im2col, KnownPatch) {
  // 1 channel 3x3 image, 2x2 kernel -> 4 rows x 4 cols.
  ConvGeom g{1, 3, 3, 2, 2, 0, 0, 1, 1};
  const std::vector<float> img{0, 1, 2, 3, 4, 5, 6, 7, 8};
  std::vector<float> cols(16);
  im2col(g, img.data(), cols.data());
  // Row 0 is kernel tap (0,0): top-left value of each window.
  EXPECT_EQ(cols[0], 0.0f);
  EXPECT_EQ(cols[1], 1.0f);
  EXPECT_EQ(cols[2], 3.0f);
  EXPECT_EQ(cols[3], 4.0f);
  // Row 3 is kernel tap (1,1): bottom-right value of each window.
  EXPECT_EQ(cols[12], 4.0f);
  EXPECT_EQ(cols[15], 8.0f);
}

TEST(Im2col, PaddingReadsZero) {
  ConvGeom g{1, 2, 2, 3, 3, 1, 1, 1, 1};
  const std::vector<float> img{1, 2, 3, 4};
  std::vector<float> cols(static_cast<std::size_t>(g.col_rows() * g.col_cols()));
  im2col(g, img.data(), cols.data());
  // Kernel tap (0,0) for output (0,0) reads img(-1,-1) == 0.
  EXPECT_EQ(cols[0], 0.0f);
  // Kernel tap (1,1) (center) for output (0,0) reads img(0,0) == 1.
  const std::int64_t center_row = 4;  // taps ordered (kh,kw): (1,1) is 4th
  EXPECT_EQ(cols[static_cast<std::size_t>(center_row * g.col_cols())], 1.0f);
}

// im2col + GEMM must equal a naive direct convolution.
TEST(Im2col, GemmConvMatchesDirect) {
  const std::int64_t C = 3, H = 7, W = 6, OC = 4, K = 3;
  ConvGeom g{C, H, W, K, K, 0, 0, 1, 1};
  Rng rng(21);
  std::vector<float> img(static_cast<std::size_t>(C * H * W));
  for (auto& v : img) v = static_cast<float>(rng.uniform(-1.0, 1.0));
  std::vector<float> weight(static_cast<std::size_t>(OC * C * K * K));
  for (auto& v : weight) v = static_cast<float>(rng.uniform(-1.0, 1.0));

  const std::int64_t oh = g.out_h(), ow = g.out_w();
  std::vector<float> cols(static_cast<std::size_t>(g.col_rows() * oh * ow));
  im2col(g, img.data(), cols.data());
  std::vector<float> out(static_cast<std::size_t>(OC * oh * ow), 0.0f);
  gemm(OC, oh * ow, g.col_rows(), 1.0f, weight.data(), cols.data(), 0.0f,
       out.data());

  for (std::int64_t oc = 0; oc < OC; ++oc) {
    for (std::int64_t y = 0; y < oh; ++y) {
      for (std::int64_t x = 0; x < ow; ++x) {
        double acc = 0.0;
        for (std::int64_t c = 0; c < C; ++c)
          for (std::int64_t kh = 0; kh < K; ++kh)
            for (std::int64_t kw = 0; kw < K; ++kw)
              acc += static_cast<double>(
                         img[(c * H + y + kh) * W + x + kw]) *
                     weight[((oc * C + c) * K + kh) * K + kw];
        EXPECT_NEAR(out[(oc * oh + y) * ow + x], acc, 1e-4)
            << oc << "," << y << "," << x;
      }
    }
  }
}

// col2im is the adjoint of im2col: <im2col(x), y> == <x, col2im(y)>.
TEST(Im2col, Col2ImIsAdjoint) {
  ConvGeom g{2, 5, 4, 3, 3, 1, 1, 1, 1};
  Rng rng(31);
  const std::int64_t img_n = g.channels * g.height * g.width;
  const std::int64_t col_n = g.col_rows() * g.col_cols();
  std::vector<float> x(static_cast<std::size_t>(img_n));
  std::vector<float> y(static_cast<std::size_t>(col_n));
  for (auto& v : x) v = static_cast<float>(rng.uniform(-1.0, 1.0));
  for (auto& v : y) v = static_cast<float>(rng.uniform(-1.0, 1.0));

  std::vector<float> ax(static_cast<std::size_t>(col_n));
  im2col(g, x.data(), ax.data());
  std::vector<float> aty(static_cast<std::size_t>(img_n), 0.0f);
  oracle::col2im_serial(g, y.data(), aty.data());

  double lhs = 0.0, rhs = 0.0;
  for (std::int64_t i = 0; i < col_n; ++i)
    lhs += static_cast<double>(ax[static_cast<std::size_t>(i)]) *
           y[static_cast<std::size_t>(i)];
  for (std::int64_t i = 0; i < img_n; ++i)
    rhs += static_cast<double>(x[static_cast<std::size_t>(i)]) *
           aty[static_cast<std::size_t>(i)];
  EXPECT_NEAR(lhs, rhs, 1e-3);
}

TEST(GradCheck, AcceptsCorrectGradient) {
  // f(x) = sum(x^2) -> grad = 2x.
  Tensor x(Shape{5}, {1, -2, 3, 0.5f, -0.25f});
  Tensor grad = ops::scale(x, 2.0f);
  auto f = [](const Tensor& t) {
    double s = 0.0;
    for (std::int64_t i = 0; i < t.numel(); ++i)
      s += static_cast<double>(t[i]) * t[i];
    return s;
  };
  const auto res = check_gradient(f, x, grad, 1e-3);
  EXPECT_TRUE(res.ok(1e-3, 1e-5)) << res.max_rel_error;
}

TEST(GradCheck, RejectsWrongGradient) {
  Tensor x(Shape{3}, {1, 2, 3});
  Tensor wrong = Tensor::full(Shape{3}, 100.0f);
  auto f = [](const Tensor& t) {
    double s = 0.0;
    for (std::int64_t i = 0; i < t.numel(); ++i) s += t[i];
    return s;
  };
  const auto res = check_gradient(f, x, wrong, 1e-3);
  EXPECT_FALSE(res.ok(1e-2, 1e-4));
  EXPECT_GE(res.worst_index, 0);
}

}  // namespace
}  // namespace spiketune
