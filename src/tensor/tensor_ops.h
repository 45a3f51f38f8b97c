// Elementwise, reduction, and activation kernels on Tensor.
//
// Binary ops require exactly matching shapes (no implicit broadcasting).
// In-place variants are suffixed `_` like PyTorch.
#pragma once

#include <cstdint>
#include <vector>

#include "tensor/tensor.h"

namespace spiketune::ops {

// ---- elementwise ----------------------------------------------------------

Tensor scale(const Tensor& a, float s);
void add_(Tensor& a, const Tensor& b);
void scale_(Tensor& a, float s);

// ---- reductions -----------------------------------------------------------

/// Number of nonzero elements.  Runs in parallel; per-slice integer tallies
/// sum exactly, so the count is the same at any thread count.
std::int64_t count_nonzero(const float* p, std::int64_t n);
std::int64_t count_nonzero(const Tensor& a);

// ---- nn helpers ------------------------------------------------------------

/// Transpose of a rank-2 [rows, cols] tensor, as [cols, rows].
Tensor transpose_2d(const Tensor& m);

/// Numerically stable row-wise softmax of a [rows, cols] matrix.
Tensor softmax_rows(const Tensor& logits, std::int64_t cols);

/// Row-wise argmax of a [rows, cols] matrix -> vector of class indices.
std::vector<std::int64_t> argmax_rows(const Tensor& m, std::int64_t cols);

}  // namespace spiketune::ops
