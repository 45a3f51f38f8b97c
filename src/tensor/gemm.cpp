#include "tensor/gemm.h"

#include <algorithm>

#include "core/error.h"
#include "core/parallel.h"
#include "obs/metrics.h"
#include "obs/profiler.h"

namespace spiketune {

namespace {

/// Counts a GEMM call and its nominal FLOPs (2mnk; the zero-skip makes the
/// executed count lower — that gap is exactly the sparsity win).
void count_gemm(std::int64_t m, std::int64_t n, std::int64_t k) {
  if (!obs::metrics_enabled()) return;
  static const obs::MetricId kCalls = obs::counter("gemm.calls");
  static const obs::MetricId kFlops = obs::counter("gemm.flops");
  obs::add(kCalls);
  obs::add(kFlops, 2 * m * n * k);
}
// Block sizes sized for a typical 32 KiB L1 / 1 MiB L2 on one core.
constexpr std::int64_t kBlockM = 64;
constexpr std::int64_t kBlockN = 256;
constexpr std::int64_t kBlockK = 256;
// Minimum C rows per thread slice: small enough that the linear backward's
// GEMMs split across threads, large enough to amortize the fork-join
// handshake.
constexpr std::int64_t kRowGrain = 8;

void require_args(std::int64_t m, std::int64_t n, std::int64_t k,
                  const float* a, const float* b, const float* c) {
  ST_REQUIRE(m >= 0 && n >= 0 && k >= 0, "gemm dims must be non-negative");
  ST_REQUIRE(a != nullptr && b != nullptr && c != nullptr,
             "gemm pointers must be non-null");
}

void scale_c(std::int64_t mn, float beta, float* c) {
  if (beta == 1.0f) return;
  if (beta == 0.0f) {
    std::fill(c, c + mn, 0.0f);
    return;
  }
  for (std::int64_t i = 0; i < mn; ++i) c[i] *= beta;
}
}  // namespace

// Threading: both kernels are parallelized over rows of C, so each
// slice owns a disjoint block of the output.  For any fixed C element the
// reduction over k runs in ascending-p order regardless of where the slice
// boundaries fall, so results are bit-identical to the serial path for any
// thread count (the determinism contract in core/parallel.h).

void gemm(std::int64_t m, std::int64_t n, std::int64_t k, float alpha,
          const float* a, const float* b, float beta, float* c) {
  ST_PROF_SCOPE("gemm");
  require_args(m, n, k, a, b, c);
  if (m == 0 || n == 0) return;
  count_gemm(m, n, k);

  parallel_for(0, m, kRowGrain, [&](std::int64_t rb, std::int64_t re) {
    scale_c((re - rb) * n, beta, c + rb * n);
    if (alpha == 0.0f || k == 0) return;
    for (std::int64_t i0 = rb; i0 < re; i0 += kBlockM) {
      const std::int64_t i1 = std::min(i0 + kBlockM, re);
      for (std::int64_t p0 = 0; p0 < k; p0 += kBlockK) {
        const std::int64_t p1 = std::min(p0 + kBlockK, k);
        for (std::int64_t j0 = 0; j0 < n; j0 += kBlockN) {
          const std::int64_t j1 = std::min(j0 + kBlockN, n);
          for (std::int64_t i = i0; i < i1; ++i) {
            float* crow = c + i * n;
            const float* arow = a + i * k;
            for (std::int64_t p = p0; p < p1; ++p) {
              const float av = alpha * arow[p];
              if (av == 0.0f) continue;  // spikes make A genuinely sparse
              const float* brow = b + p * n;
              for (std::int64_t j = j0; j < j1; ++j) crow[j] += av * brow[j];
            }
          }
        }
      }
    }
  });
}

void gemm_tn(std::int64_t m, std::int64_t n, std::int64_t k, float alpha,
             const float* a, const float* b, float beta, float* c) {
  ST_PROF_SCOPE("gemm_tn");
  require_args(m, n, k, a, b, c);
  if (m == 0 || n == 0) return;
  count_gemm(m, n, k);

  // A is [k, m]; k stays the inner streaming loop within each row block so
  // both A and B rows stream while the C block stays hot.
  parallel_for(0, m, kRowGrain, [&](std::int64_t rb, std::int64_t re) {
    scale_c((re - rb) * n, beta, c + rb * n);
    if (alpha == 0.0f || k == 0) return;
    for (std::int64_t i0 = rb; i0 < re; i0 += kBlockM) {
      const std::int64_t i1 = std::min(i0 + kBlockM, re);
      for (std::int64_t p0 = 0; p0 < k; p0 += kBlockK) {
        const std::int64_t p1 = std::min(p0 + kBlockK, k);
        for (std::int64_t p = p0; p < p1; ++p) {
          const float* arow = a + p * m;
          const float* brow = b + p * n;
          for (std::int64_t i = i0; i < i1; ++i) {
            const float av = alpha * arow[i];
            if (av == 0.0f) continue;
            float* crow = c + i * n;
            for (std::int64_t j = 0; j < n; ++j) crow[j] += av * brow[j];
          }
        }
      }
    }
  });
}

}  // namespace spiketune
