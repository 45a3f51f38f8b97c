// Elementwise, reduction, and activation kernels on Tensor.
//
// All binary ops require exactly matching shapes (no implicit broadcasting;
// the explicit *_rowwise variants cover the bias-add patterns the SNN stack
// needs).  In-place variants are suffixed `_` like PyTorch.
#pragma once

#include <cstdint>
#include <vector>

#include "tensor/tensor.h"

namespace spiketune::ops {

// ---- elementwise ----------------------------------------------------------

Tensor add(const Tensor& a, const Tensor& b);
Tensor sub(const Tensor& a, const Tensor& b);
Tensor mul(const Tensor& a, const Tensor& b);
Tensor scale(const Tensor& a, float s);
void add_(Tensor& a, const Tensor& b);
void sub_(Tensor& a, const Tensor& b);
void mul_(Tensor& a, const Tensor& b);
void scale_(Tensor& a, float s);
/// a += s * b  (axpy)
void axpy_(Tensor& a, float s, const Tensor& b);

// ---- row-wise broadcasting (matrix [n, m] with vector [m]) ----------------

/// out[i, j] = a[i, j] + v[j]; `a` is interpreted as [rows, cols] where
/// cols == v.numel() and rows * cols == a.numel().
void add_rowwise_(Tensor& a, const Tensor& v);
/// out[j] = sum_i a[i, j]; same interpretation as add_rowwise_.
Tensor sum_rows(const Tensor& a, std::int64_t cols);

// ---- reductions -----------------------------------------------------------

float sum(const Tensor& a);
float mean(const Tensor& a);
float max(const Tensor& a);
float min(const Tensor& a);
/// Index of the maximum element (first on ties); requires numel > 0.
std::int64_t argmax(const Tensor& a);
/// Fraction of elements equal to zero.
double zero_fraction(const Tensor& a);
/// Number of nonzero elements.  Runs in parallel; per-slice integer tallies
/// sum exactly, so the count is the same at any thread count.
std::int64_t count_nonzero(const float* p, std::int64_t n);
std::int64_t count_nonzero(const Tensor& a);
/// sqrt(sum of squares)
float l2_norm(const Tensor& a);

// ---- nn helpers ------------------------------------------------------------

/// Transpose of a rank-2 [rows, cols] tensor, as [cols, rows].
Tensor transpose_2d(const Tensor& m);

/// Numerically stable row-wise softmax of a [rows, cols] matrix.
Tensor softmax_rows(const Tensor& logits, std::int64_t cols);

/// Row-wise argmax of a [rows, cols] matrix -> vector of class indices.
std::vector<std::int64_t> argmax_rows(const Tensor& m, std::int64_t cols);

/// Clamps every element to [lo, hi] in place.
void clamp_(Tensor& a, float lo, float hi);

}  // namespace spiketune::ops
