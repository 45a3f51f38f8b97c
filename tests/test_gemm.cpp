// GEMM kernels (and the tests' serial gemm_nt) vs a naive reference,
// including a property-style sweep over shapes (parameterized) and
// alpha/beta handling.
#include <gtest/gtest.h>

#include <tuple>
#include <vector>

#include "conv_oracle.h"
#include "core/rng.h"
#include "tensor/gemm.h"

namespace spiketune {
namespace {

std::vector<float> random_matrix(std::int64_t n, Rng& rng) {
  std::vector<float> m(static_cast<std::size_t>(n));
  for (auto& v : m) v = static_cast<float>(rng.uniform(-1.0, 1.0));
  return m;
}

void reference_gemm(std::int64_t m, std::int64_t n, std::int64_t k,
                    float alpha, const float* a, const float* b, float beta,
                    float* c) {
  for (std::int64_t i = 0; i < m; ++i)
    for (std::int64_t j = 0; j < n; ++j) {
      double acc = 0.0;
      for (std::int64_t p = 0; p < k; ++p)
        acc += static_cast<double>(a[i * k + p]) * b[p * n + j];
      c[i * n + j] = static_cast<float>(alpha * acc + beta * c[i * n + j]);
    }
}

class GemmShapes
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(GemmShapes, MatchesReference) {
  const auto [m, n, k] = GetParam();
  Rng rng(static_cast<std::uint64_t>(m * 10007 + n * 101 + k));
  const auto a = random_matrix(m * k, rng);
  const auto b = random_matrix(k * n, rng);
  std::vector<float> c(static_cast<std::size_t>(m * n), 0.5f);
  std::vector<float> ref = c;

  gemm(m, n, k, 1.0f, a.data(), b.data(), 0.0f, c.data());
  reference_gemm(m, n, k, 1.0f, a.data(), b.data(), 0.0f, ref.data());
  for (std::size_t i = 0; i < c.size(); ++i)
    EXPECT_NEAR(c[i], ref[i], 1e-3f) << "at " << i;
}

TEST_P(GemmShapes, TransposedAMatchesReference) {
  const auto [m, n, k] = GetParam();
  Rng rng(static_cast<std::uint64_t>(m * 7 + n * 13 + k * 17));
  // A stored as [k, m]; reference computes with A'[m, k].
  const auto a_t = random_matrix(k * m, rng);
  const auto b = random_matrix(k * n, rng);
  std::vector<float> a(static_cast<std::size_t>(m * k));
  for (std::int64_t p = 0; p < k; ++p)
    for (std::int64_t i = 0; i < m; ++i) a[i * k + p] = a_t[p * m + i];

  std::vector<float> c(static_cast<std::size_t>(m * n), 0.0f);
  std::vector<float> ref = c;
  gemm_tn(m, n, k, 1.0f, a_t.data(), b.data(), 0.0f, c.data());
  reference_gemm(m, n, k, 1.0f, a.data(), b.data(), 0.0f, ref.data());
  for (std::size_t i = 0; i < c.size(); ++i)
    EXPECT_NEAR(c[i], ref[i], 1e-3f) << "at " << i;
}

// The tests' serial gemm_nt (the conv backward oracle's weight-gradient
// product) against the same reference.
TEST_P(GemmShapes, TransposedBMatchesReference) {
  const auto [m, n, k] = GetParam();
  Rng rng(static_cast<std::uint64_t>(m * 3 + n * 5 + k * 7));
  const auto a = random_matrix(m * k, rng);
  // B stored as [n, k]; reference computes with B'[k, n].
  const auto b_t = random_matrix(n * k, rng);
  std::vector<float> b(static_cast<std::size_t>(k * n));
  for (std::int64_t j = 0; j < n; ++j)
    for (std::int64_t p = 0; p < k; ++p) b[p * n + j] = b_t[j * k + p];

  std::vector<float> c(static_cast<std::size_t>(m * n), 0.0f);
  std::vector<float> ref = c;
  oracle::gemm_nt_serial(m, n, k, 1.0f, a.data(), b_t.data(), 0.0f,
                         c.data());
  reference_gemm(m, n, k, 1.0f, a.data(), b.data(), 0.0f, ref.data());
  for (std::size_t i = 0; i < c.size(); ++i)
    EXPECT_NEAR(c[i], ref[i], 1e-3f) << "at " << i;
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, GemmShapes,
    ::testing::Values(std::make_tuple(1, 1, 1), std::make_tuple(3, 5, 7),
                      std::make_tuple(16, 16, 16), std::make_tuple(1, 64, 9),
                      std::make_tuple(65, 3, 130), std::make_tuple(70, 300, 2),
                      std::make_tuple(128, 33, 257)));

TEST(Gemm, AlphaBetaComposition) {
  const std::int64_t m = 4, n = 3, k = 5;
  Rng rng(9);
  const auto a = random_matrix(m * k, rng);
  const auto b = random_matrix(k * n, rng);
  std::vector<float> c(static_cast<std::size_t>(m * n), 2.0f);
  std::vector<float> ref = c;
  gemm(m, n, k, 0.5f, a.data(), b.data(), 0.25f, c.data());
  reference_gemm(m, n, k, 0.5f, a.data(), b.data(), 0.25f, ref.data());
  for (std::size_t i = 0; i < c.size(); ++i) EXPECT_NEAR(c[i], ref[i], 1e-4f);
}

TEST(Gemm, BetaOnePreservesAccumulator) {
  const std::int64_t m = 2, n = 2, k = 2;
  const std::vector<float> a{1, 0, 0, 1};
  const std::vector<float> b{1, 2, 3, 4};
  std::vector<float> c{10, 10, 10, 10};
  gemm(m, n, k, 1.0f, a.data(), b.data(), 1.0f, c.data());
  EXPECT_FLOAT_EQ(c[0], 11.0f);
  EXPECT_FLOAT_EQ(c[3], 14.0f);
}

TEST(Gemm, AlphaZeroOnlyScalesC) {
  const std::int64_t m = 2, n = 2, k = 2;
  const std::vector<float> a{1, 2, 3, 4};
  const std::vector<float> b{5, 6, 7, 8};
  std::vector<float> c{1, 2, 3, 4};
  gemm(m, n, k, 0.0f, a.data(), b.data(), 0.5f, c.data());
  EXPECT_FLOAT_EQ(c[0], 0.5f);
  EXPECT_FLOAT_EQ(c[3], 2.0f);
}

TEST(Gemm, SparseInputCorrect) {
  // Exercise the zero-skip fast path with a mostly-zero (spike-like) A.
  const std::int64_t m = 8, n = 16, k = 32;
  Rng rng(5);
  std::vector<float> a(static_cast<std::size_t>(m * k), 0.0f);
  for (auto& v : a)
    if (rng.bernoulli(0.1)) v = 1.0f;
  const auto b = random_matrix(k * n, rng);
  std::vector<float> c(static_cast<std::size_t>(m * n), 0.0f);
  std::vector<float> ref = c;
  gemm(m, n, k, 1.0f, a.data(), b.data(), 0.0f, c.data());
  reference_gemm(m, n, k, 1.0f, a.data(), b.data(), 0.0f, ref.data());
  for (std::size_t i = 0; i < c.size(); ++i) EXPECT_NEAR(c[i], ref[i], 1e-4f);
}

}  // namespace
}  // namespace spiketune
