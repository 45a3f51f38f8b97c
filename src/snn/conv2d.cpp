#include "snn/conv2d.h"

#include <algorithm>
#include <cstring>
#include <vector>

#include "core/error.h"
#include "core/parallel.h"
#include "obs/profiler.h"
#include "tensor/gemm.h"
#include "tensor/tensor_ops.h"

namespace spiketune::snn {

Conv2d::Conv2d(Conv2dConfig config, Rng& rng)
    : config_(config),
      weight_("conv.weight",
              Tensor::kaiming_uniform(
                  Shape{config.out_channels,
                        config.in_channels * config.kernel * config.kernel},
                  rng, config.in_channels * config.kernel * config.kernel)),
      bias_("conv.bias",
            config.bias
                ? Tensor::kaiming_uniform(
                      Shape{config.out_channels}, rng,
                      config.in_channels * config.kernel * config.kernel)
                : Tensor(Shape{0})) {
  ST_REQUIRE(config_.in_channels > 0 && config_.out_channels > 0,
             "conv channels must be positive");
  ST_REQUIRE(config_.kernel > 0 && config_.pad >= 0, "bad conv geometry");
}

ConvGeom Conv2d::geom_for(const Shape& input) const {
  ST_REQUIRE(input.rank() == 4, "conv expects [N, C, H, W]");
  ST_REQUIRE(input[1] == config_.in_channels,
             "conv input channel mismatch: got " + input.str());
  return ConvGeom{config_.in_channels, input[2],      input[3],
                  config_.kernel,      config_.kernel, config_.pad,
                  config_.pad,         1,              1};
}

void Conv2d::begin_window(std::int64_t, bool training) {
  training_ = training;
  input_cache_.clear();
  weight_t_ = ops::transpose_2d(weight_.value);
}

namespace {

// One vector of output channels: the generic vector type lowers to one
// register of the target (zmm with AVX-512, ymm with AVX, xmm otherwise).
// A tile of kTileR pixels x kTileV vectors keeps its kTileR * kTileV
// accumulators, the kTileV weight vectors and one broadcast input in the
// register file (32 vector registers with AVX-512, 16 without).
#if defined(__AVX512F__)
constexpr int kLanes = 16;
constexpr int kTileR = 8;
#elif defined(__AVX__)
constexpr int kLanes = 8;
constexpr int kTileR = 4;
#else
constexpr int kLanes = 4;
constexpr int kTileR = 4;
#endif
constexpr int kTileV = 2;
using Vec = float __attribute__((vector_size(kLanes * sizeof(float))));

// Where one output row's tiles read and write.  `x` is the (padded) input
// at (ic 0, row oy, column 0), with `row` floats per input row and `plane`
// per channel; `out` is the output at (oc 0, oy, 0) with `spatial` floats
// per channel plane.  `wt` is the [K, ocn] weight transpose.
struct RowArgs {
  const float* x;
  std::int64_t row;
  std::int64_t plane;
  std::int64_t channels;
  std::int64_t kernel_h;
  std::int64_t kernel_w;
  const float* wt;
  std::int64_t ocn;
  const float* bias;  // null = none
  float* out;
  std::int64_t spatial;
};

// R pixels (columns ox .. ox+R-1) x V channel vectors starting at channel
// ob.  Each accumulator lane starts at +0 and adds x * w for ascending
// p = (ic, kh, kw), then the bias: exactly the im2col + gemm + bias
// arithmetic per output.  kPartial is the one-vector tile for fewer than
// kLanes channels: its dead lanes read whatever finite weights follow the
// row (zeros where a whole-vector load would leave the tensor) and are
// never stored.
template <int R, int V, bool kPartial>
void conv_tile(const RowArgs& a, std::int64_t ox, std::int64_t ob) {
  static_assert(!kPartial || V == 1, "a partial tile is one vector wide");
  Vec acc[R][V] = {};
  const float* w = a.wt + ob;
  const float* const w_end =
      a.wt + a.ocn * a.channels * a.kernel_h * a.kernel_w;
  for (std::int64_t ic = 0; ic < a.channels; ++ic) {
    const float* xc = a.x + ic * a.plane + ox;
    for (std::int64_t kh = 0; kh < a.kernel_h; ++kh) {
      const float* xr = xc + kh * a.row;
      for (std::int64_t kw = 0; kw < a.kernel_w; ++kw, w += a.ocn) {
        Vec wv[V];
        if (kPartial && w_end - w < kLanes) {
          wv[0] = Vec{};
          for (std::int64_t j = 0; j < a.ocn; ++j) wv[0][j] = w[j];
        } else {
#pragma GCC unroll 8
          for (int v = 0; v < V; ++v)
            std::memcpy(&wv[v], w + v * kLanes, sizeof(Vec));
        }
#pragma GCC unroll 16
        for (int r = 0; r < R; ++r) {
          const float xv = xr[kw + r];
#pragma GCC unroll 8
          for (int v = 0; v < V; ++v) acc[r][v] += xv * wv[v];
        }
      }
    }
  }
  // Stage the tile pixel-major with whole-vector stores, then copy it out
  // channel by channel into the [OC, OH, OW] planes.
  const std::int64_t width = kPartial ? a.ocn : V * kLanes;
  Vec b[V] = {};
  if (a.bias != nullptr)
    for (std::int64_t c = 0; c < width; ++c)
      b[c / kLanes][c % kLanes] = a.bias[ob + c];
  alignas(64) float tile[R][V * kLanes];
#pragma GCC unroll 16
  for (int r = 0; r < R; ++r)
#pragma GCC unroll 8
    for (int v = 0; v < V; ++v) {
      const Vec y = a.bias != nullptr ? acc[r][v] + b[v] : acc[r][v];
      std::memcpy(&tile[r][v * kLanes], &y, sizeof(Vec));
    }
  float* o = a.out + ob * a.spatial + ox;
  for (std::int64_t c = 0; c < width; ++c, o += a.spatial)
#pragma GCC unroll 16
    for (int r = 0; r < R; ++r) o[r] = tile[r][c];
}

// The remainder of a row: one tile exactly `width` (< kTileR) pixels wide.
template <int V, bool kPartial, int R = kTileR - 1>
void conv_tail(const RowArgs& a, std::int64_t ox, std::int64_t ob,
               std::int64_t width) {
  if constexpr (R > 0) {
    if (width == R)
      conv_tile<R, V, kPartial>(a, ox, ob);
    else
      conv_tail<V, kPartial, R - 1>(a, ox, ob, width);
  }
}

// One channel block across a whole output row: full kTileR-pixel tiles,
// then one narrower tile for the remainder, kept out of the full-tile loop.
template <int V, bool kPartial = false>
void conv_row_block(const RowArgs& a, std::int64_t ow, std::int64_t ob) {
  std::int64_t ox = 0;
  for (; ox + kTileR <= ow; ox += kTileR)
    conv_tile<kTileR, V, kPartial>(a, ox, ob);
  conv_tail<V, kPartial>(a, ox, ob, ow - ox);
}

// Channel blocks of kTileV vectors, then single vectors.  A channel count
// that is not a multiple of kLanes ends with a whole vector overlapping
// the previous block: its shared channels are computed twice, to the same
// bits, by the same thread.
void conv_row(const RowArgs& a, std::int64_t ow) {
  if (a.ocn < kLanes) {
    conv_row_block<1, true>(a, ow, 0);
    return;
  }
  std::int64_t ob = 0;
  for (; ob + kTileV * kLanes <= a.ocn; ob += kTileV * kLanes)
    conv_row_block<kTileV>(a, ow, ob);
  for (; ob + kLanes <= a.ocn; ob += kLanes) conv_row_block<1>(a, ow, ob);
  if (ob < a.ocn) conv_row_block<1>(a, ow, a.ocn - kLanes);
}

// Output rows per parallel slice: enough multiply-adds (about 64k) to
// amortize the fork-join handshake.
std::int64_t row_grain(std::int64_t macs_per_row) {
  constexpr std::int64_t kSliceMacs = std::int64_t{1} << 16;
  return std::max<std::int64_t>(1, kSliceMacs / std::max<std::int64_t>(
                                                    1, macs_per_row));
}

}  // namespace

std::int64_t Conv2d::padded_elems(const ConvGeom& g) {
  if (g.pad_h == 0 && g.pad_w == 0) return 0;
  return g.channels * (g.height + 2 * g.pad_h) * (g.width + 2 * g.pad_w);
}

void Conv2d::forward_samples(const ConvGeom& g, const Tensor& weight_t,
                             const Tensor& bias, const float* in,
                             std::int64_t n, float* padded, float* out) {
  ST_REQUIRE(g.stride_h == 1 && g.stride_w == 1, "conv is stride-1 only");
  ST_REQUIRE(weight_t.shape().rank() == 2 &&
                 weight_t.shape()[0] == g.col_rows(),
             "conv weight_t must be [IC*KH*KW, OC]");
  const std::int64_t ocn = weight_t.shape()[1];
  ST_REQUIRE(bias.numel() == 0 || bias.numel() == ocn,
             "conv bias must be empty or [OC]");
  const std::int64_t oh = g.out_h();
  const std::int64_t ow = g.out_w();
  const std::int64_t row = g.width + 2 * g.pad_w;
  const std::int64_t plane = (g.height + 2 * g.pad_h) * row;

  // Zero-padded copy, so the tiles read every tap without bounds tests.
  const float* x = in;
  if (padded_elems(g) > 0) {
    ST_REQUIRE(padded != nullptr, "padded conv needs its scratch planes");
    const std::int64_t hw = g.height * g.width;
    parallel_for(0, n * g.channels, 1, [&](std::int64_t pb, std::int64_t pe) {
      for (std::int64_t c = pb; c < pe; ++c) {
        float* dst = padded + c * plane;
        const float* src = in + c * hw;
        std::fill(dst, dst + plane, 0.0f);
        for (std::int64_t y = 0; y < g.height; ++y)
          std::copy(src + y * g.width, src + (y + 1) * g.width,
                    dst + (y + g.pad_h) * row + g.pad_w);
      }
    });
    x = padded;
  }

  const RowArgs args{.x = x,
                     .row = row,
                     .plane = plane,
                     .channels = g.channels,
                     .kernel_h = g.kernel_h,
                     .kernel_w = g.kernel_w,
                     .wt = weight_t.data(),
                     .ocn = ocn,
                     .bias = bias.numel() > 0 ? bias.data() : nullptr,
                     .out = out,
                     .spatial = oh * ow};
  parallel_for(0, n * oh, row_grain(ow * ocn * g.col_rows()),
               [&](std::int64_t ub, std::int64_t ue) {
                 RowArgs a = args;
                 for (std::int64_t u = ub; u < ue; ++u) {
                   const std::int64_t s = u / oh;
                   const std::int64_t oy = u - s * oh;
                   a.x = x + (s * g.channels * plane + oy * row);
                   a.out = out + (s * ocn * oh * ow + oy * ow);
                   conv_row(a, ow);
                 }
               });
}

Tensor Conv2d::forward_step(const Tensor& input) {
  ST_PROF_SCOPE("conv2d.fwd");
  ST_REQUIRE(weight_t_.numel() == weight_.value.numel(),
             "conv forward_step before begin_window");
  const ConvGeom g = geom_for(input.shape());
  const std::int64_t n = input.shape()[0];

  Tensor output(Shape{n, config_.out_channels, g.out_h(), g.out_w()});
  pad_buf_.resize(static_cast<std::size_t>(n * padded_elems(g)));
  forward_samples(g, weight_t_, bias_.value, input.data(), n, pad_buf_.data(),
                  output.data());

  if (training_) input_cache_.push_back(input);
  return output;
}

Tensor Conv2d::backward_step(const Tensor& grad_output) {
  ST_PROF_SCOPE("conv2d.bwd");
  ST_REQUIRE(!input_cache_.empty(),
             "conv backward without matching cached forward step");
  Tensor input = std::move(input_cache_.back());
  input_cache_.pop_back();

  const ConvGeom g = geom_for(input.shape());
  const std::int64_t n = input.shape()[0];
  const std::int64_t oh = g.out_h();
  const std::int64_t ow = g.out_w();
  const std::int64_t kk = g.col_rows();
  const std::int64_t spatial = oh * ow;
  ST_REQUIRE(grad_output.shape() ==
                 Shape({n, config_.out_channels, oh, ow}),
             "conv grad_output shape mismatch");

  Tensor grad_input(input.shape());
  std::vector<float> grad_cols(static_cast<std::size_t>(kk * spatial));
  col_buf_.resize(static_cast<std::size_t>(kk * spatial));

  const std::int64_t in_stride = g.channels * g.height * g.width;
  const std::int64_t out_stride = config_.out_channels * spatial;
  // The weight gradient accumulates across samples, so the sample loop
  // stays serial to preserve the serial path's summation order exactly;
  // the per-sample im2col/gemm/col2im kernels parallelize internally over
  // disjoint output rows instead.
  for (std::int64_t i = 0; i < n; ++i) {
    const float* go = grad_output.data() + i * out_stride;
    // Weight gradient: gW[OC, K] += go[OC, OHW] * cols[K, OHW]^T.
    im2col(g, input.data() + i * in_stride, col_buf_.data());
    gemm_nt(config_.out_channels, kk, spatial, 1.0f, go, col_buf_.data(),
            1.0f, weight_.grad.data());
    // Input gradient: gCols[K, OHW] = W[OC, K]^T * go[OC, OHW].
    gemm_tn(kk, spatial, config_.out_channels, 1.0f, weight_.value.data(), go,
            0.0f, grad_cols.data());
    col2im(g, grad_cols.data(), grad_input.data() + i * in_stride);
    // Bias gradient: sum over spatial positions (disjoint per channel).
    if (config_.bias) {
      float* gb = bias_.grad.data();
      parallel_for(0, config_.out_channels, 4,
                   [&](std::int64_t ob, std::int64_t oe) {
                     for (std::int64_t oc = ob; oc < oe; ++oc) {
                       const float* plane = go + oc * spatial;
                       double acc = 0.0;
                       for (std::int64_t s = 0; s < spatial; ++s)
                         acc += plane[s];
                       gb[oc] += static_cast<float>(acc);
                     }
                   });
    }
  }
  return grad_input;
}

std::vector<Param*> Conv2d::params() {
  if (config_.bias) return {&weight_, &bias_};
  return {&weight_};
}

Shape Conv2d::output_shape(const Shape& input) const {
  ST_REQUIRE(input.rank() == 3, "output_shape expects per-sample [C, H, W]");
  const std::int64_t oh =
      conv_out_dim(input[1], config_.kernel, config_.pad, 1);
  const std::int64_t ow =
      conv_out_dim(input[2], config_.kernel, config_.pad, 1);
  return Shape{config_.out_channels, oh, ow};
}

}  // namespace spiketune::snn
