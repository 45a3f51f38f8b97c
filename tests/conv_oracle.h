// The conv backward's reference arithmetic, kept next to the tests.
//
// `conv_backward_oracle` is the per-sample loop snn::Conv2d::backward_step
// ran before its register-tiled kernels: im2col, `gemm_nt` into the weight
// gradient, `gemm_tn` + col2im into the input gradient and a double sum
// into the bias gradient.  `gemm_nt_serial` and `col2im_serial` are serial
// copies of the library kernels that loop used; nothing in src/ calls
// either any more.  tests/test_layers.cpp and bench/micro_kernels.cpp
// compare the layer against this byte for byte.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "tensor/gemm.h"
#include "tensor/im2col.h"

namespace spiketune::oracle {

/// C[m,n] = alpha * A[m,k] * B[n,k]^T + beta * C[m,n], each element one
/// strict dot product over ascending p from +0.
inline void gemm_nt_serial(std::int64_t m, std::int64_t n, std::int64_t k,
                           float alpha, const float* a, const float* b,
                           float beta, float* c) {
  for (std::int64_t i = 0; i < m; ++i)
    for (std::int64_t j = 0; j < n; ++j) {
      float& cij = c[i * n + j];
      if (beta == 0.0f)
        cij = 0.0f;
      else if (beta != 1.0f)
        cij *= beta;
      if (alpha == 0.0f || k == 0) continue;
      float acc = 0.0f;
      for (std::int64_t p = 0; p < k; ++p) acc += a[i * k + p] * b[j * k + p];
      cij += alpha * acc;
    }
}

/// Accumulates `columns` [C*KH*KW, OH*OW] back into `image` [C,H,W] in
/// (c, kh, kw, y, x) order; the adjoint of im2col.
inline void col2im_serial(const ConvGeom& g, const float* columns,
                          float* image) {
  const std::int64_t oh = g.out_h();
  const std::int64_t ow = g.out_w();
  std::int64_t row = 0;
  for (std::int64_t c = 0; c < g.channels; ++c) {
    float* plane = image + c * g.height * g.width;
    for (std::int64_t kh = 0; kh < g.kernel_h; ++kh)
      for (std::int64_t kw = 0; kw < g.kernel_w; ++kw, ++row) {
        const float* in = columns + row * oh * ow;
        for (std::int64_t y = 0; y < oh; ++y) {
          const std::int64_t sy = y * g.stride_h + kh - g.pad_h;
          if (sy < 0 || sy >= g.height) continue;
          for (std::int64_t x = 0; x < ow; ++x) {
            const std::int64_t sx = x * g.stride_w + kw - g.pad_w;
            if (sx >= 0 && sx < g.width)
              plane[sy * g.width + sx] += in[y * ow + x];
          }
        }
      }
  }
}

/// One conv backward step over n samples: adds into `weight_grad`
/// ([OC, C*KH*KW]) and, when non-null, `bias_grad` ([OC]); writes
/// `grad_input` ([n, C, H, W]), which starts zeroed.
inline void conv_backward_oracle(const ConvGeom& g, std::int64_t ocn,
                                 const float* weight, const float* input,
                                 const float* grad_output, std::int64_t n,
                                 float* grad_input, float* weight_grad,
                                 float* bias_grad) {
  const std::int64_t kk = g.col_rows();
  const std::int64_t spatial = g.col_cols();
  const std::int64_t in_stride = g.channels * g.height * g.width;
  std::vector<float> cols(static_cast<std::size_t>(kk * spatial));
  std::vector<float> grad_cols(cols.size());
  std::fill(grad_input, grad_input + n * in_stride, 0.0f);
  for (std::int64_t i = 0; i < n; ++i) {
    const float* go = grad_output + i * ocn * spatial;
    im2col(g, input + i * in_stride, cols.data());
    gemm_nt_serial(ocn, kk, spatial, 1.0f, go, cols.data(), 1.0f,
                   weight_grad);
    gemm_tn(kk, spatial, ocn, 1.0f, weight, go, 0.0f, grad_cols.data());
    col2im_serial(g, grad_cols.data(), grad_input + i * in_stride);
    if (bias_grad == nullptr) continue;
    for (std::int64_t oc = 0; oc < ocn; ++oc) {
      double acc = 0.0;
      for (std::int64_t s = 0; s < spatial; ++s) acc += go[oc * spatial + s];
      bias_grad[oc] += static_cast<float>(acc);
    }
  }
}

}  // namespace spiketune::oracle
