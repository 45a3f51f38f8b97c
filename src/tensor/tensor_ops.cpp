#include "tensor/tensor_ops.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <limits>

#include "core/error.h"
#include "core/parallel.h"

namespace spiketune::ops {

namespace {
void require_same_shape(const Tensor& a, const Tensor& b, const char* op) {
  ST_REQUIRE(a.same_shape(b), std::string(op) + ": shape mismatch " +
                                  a.shape().str() + " vs " + b.shape().str());
}
}  // namespace

Tensor scale(const Tensor& a, float s) {
  Tensor out = a;
  scale_(out, s);
  return out;
}

void add_(Tensor& a, const Tensor& b) {
  require_same_shape(a, b, "add");
  float* pa = a.data();
  const float* pb = b.data();
  for (std::int64_t i = 0, n = a.numel(); i < n; ++i) pa[i] += pb[i];
}

void scale_(Tensor& a, float s) {
  float* pa = a.data();
  for (std::int64_t i = 0, n = a.numel(); i < n; ++i) pa[i] *= s;
}

float sum(const Tensor& a) {
  // Pairwise-ish accumulation in double to keep large reductions accurate.
  double acc = 0.0;
  const float* p = a.data();
  for (std::int64_t i = 0, n = a.numel(); i < n; ++i) acc += p[i];
  return static_cast<float>(acc);
}

float mean(const Tensor& a) {
  ST_REQUIRE(a.numel() > 0, "mean of empty tensor");
  return sum(a) / static_cast<float>(a.numel());
}

float max(const Tensor& a) {
  ST_REQUIRE(a.numel() > 0, "max of empty tensor");
  return *std::max_element(a.data(), a.data() + a.numel());
}

float min(const Tensor& a) {
  ST_REQUIRE(a.numel() > 0, "min of empty tensor");
  return *std::min_element(a.data(), a.data() + a.numel());
}

double zero_fraction(const Tensor& a) {
  if (a.numel() == 0) return 0.0;
  return 1.0 - static_cast<double>(count_nonzero(a)) /
                   static_cast<double>(a.numel());
}

std::int64_t count_nonzero(const float* p, std::int64_t n) {
  std::atomic<std::int64_t> total{0};
  parallel_for(0, n, kElemGrain, [&](std::int64_t b, std::int64_t e) {
    std::int64_t local = 0;
    for (std::int64_t i = b; i < e; ++i) local += (p[i] != 0.0f);
    total.fetch_add(local, std::memory_order_relaxed);
  });
  return total.load(std::memory_order_relaxed);
}

std::int64_t count_nonzero(const Tensor& a) {
  return count_nonzero(a.data(), a.numel());
}

float l2_norm(const Tensor& a) {
  double acc = 0.0;
  const float* p = a.data();
  for (std::int64_t i = 0, n = a.numel(); i < n; ++i)
    acc += static_cast<double>(p[i]) * p[i];
  return static_cast<float>(std::sqrt(acc));
}

Tensor transpose_2d(const Tensor& m) {
  ST_REQUIRE(m.shape().rank() == 2,
             "transpose_2d expects [rows, cols], got " + m.shape().str());
  const std::int64_t rows = m.shape()[0];
  const std::int64_t cols = m.shape()[1];
  Tensor t(Shape{cols, rows});
  const float* src = m.data();
  float* dst = t.data();
  for (std::int64_t r = 0; r < rows; ++r)
    for (std::int64_t c = 0; c < cols; ++c) dst[c * rows + r] = src[r * cols + c];
  return t;
}

Tensor softmax_rows(const Tensor& logits, std::int64_t cols) {
  ST_REQUIRE(cols > 0 && logits.numel() % cols == 0,
             "softmax_rows: cols must divide matrix size");
  const std::int64_t rows = logits.numel() / cols;
  Tensor out = logits;
  float* p = out.data();
  for (std::int64_t r = 0; r < rows; ++r) {
    float* row = p + r * cols;
    const float m = *std::max_element(row, row + cols);
    double denom = 0.0;
    for (std::int64_t c = 0; c < cols; ++c) {
      row[c] = std::exp(row[c] - m);
      denom += row[c];
    }
    const float inv = static_cast<float>(1.0 / denom);
    for (std::int64_t c = 0; c < cols; ++c) row[c] *= inv;
  }
  return out;
}

std::vector<std::int64_t> argmax_rows(const Tensor& m, std::int64_t cols) {
  ST_REQUIRE(cols > 0 && m.numel() % cols == 0,
             "argmax_rows: cols must divide matrix size");
  const std::int64_t rows = m.numel() / cols;
  std::vector<std::int64_t> out(static_cast<std::size_t>(rows));
  const float* p = m.data();
  for (std::int64_t r = 0; r < rows; ++r) {
    const float* row = p + r * cols;
    out[static_cast<std::size_t>(r)] =
        std::max_element(row, row + cols) - row;
  }
  return out;
}

}  // namespace spiketune::ops
