// Blocked single-precision GEMM kernels.
//
// The linear backward pass lowers onto these two primitives:
//   gemm       : C  = alpha * A  * B  + beta * C      [m,k]x[k,n]
//   gemm_tn    : C  = alpha * A' * B  + beta * C      [k,m]'x[k,n]
// All matrices are dense row-major.  The kernels are cache-blocked and
// written so GCC auto-vectorizes the inner loops; they are not a BLAS
// replacement but reach a few GFLOP/s on one core, which is what the
// laptop-scale experiments need.
#pragma once

#include <cstdint>

namespace spiketune {

/// C[m,n] = alpha * A[m,k] * B[k,n] + beta * C[m,n]
void gemm(std::int64_t m, std::int64_t n, std::int64_t k, float alpha,
          const float* a, const float* b, float beta, float* c);

/// C[m,n] = alpha * A[k,m]^T * B[k,n] + beta * C[m,n]
void gemm_tn(std::int64_t m, std::int64_t n, std::int64_t k, float alpha,
             const float* a, const float* b, float beta, float* c);

}  // namespace spiketune
