#include "snn/conv2d.h"

#include <algorithm>
#include <cstring>
#include <vector>

#include "core/error.h"
#include "core/parallel.h"
#include "obs/profiler.h"
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
  input_grad_ = true;
  input_cache_.clear();
  weight_bwd_.clear();
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

// Walks `rows` rows in tiles of kR: full tiles, then one narrower tile for
// the remainder, kept out of the full-tile loop.  Calls
// fn.template operator()<R>(first row) per tile.  The rows are output
// pixels (forward), taps (weight gradient) or input pixels (input
// gradient).
template <int R, typename Fn>
void tile_tail(std::int64_t width, std::int64_t r0, Fn& fn) {
  if constexpr (R > 0) {
    if (width == R)
      fn.template operator()<R>(r0);
    else
      tile_tail<R - 1>(width, r0, fn);
  }
}

template <int kR, typename Fn>
void for_row_tiles(std::int64_t rows, Fn fn) {
  std::int64_t r0 = 0;
  for (; r0 + kR <= rows; r0 += kR) fn.template operator()<kR>(r0);
  tile_tail<kR - 1>(rows - r0, r0, fn);
}

// One channel block across a whole output row.
template <int V, bool kPartial = false>
void conv_row_block(const RowArgs& a, std::int64_t ow, std::int64_t ob) {
  for_row_tiles<kTileR>(ow, [&]<int R>(std::int64_t ox) {
    conv_tile<R, V, kPartial>(a, ox, ob);
  });
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

// Copies one [H, W] plane into the interior of a zeroed
// [H + 2*pad_h, W + 2*pad_w] plane.
void pad_plane(const ConvGeom& g, const float* src, float* dst) {
  const std::int64_t row = g.width + 2 * g.pad_w;
  std::fill(dst, dst + (g.height + 2 * g.pad_h) * row, 0.0f);
  for (std::int64_t y = 0; y < g.height; ++y)
    std::copy(src + y * g.width, src + (y + 1) * g.width,
              dst + (y + g.pad_h) * row + g.pad_w);
}

// One sample's weight gradient, dW[oc, p] = sum_s go[oc, s] * x(p, s), read
// from the (padded) input in place.  `got` is the [S, ocp] transpose of go,
// each row zero beyond ocn so every channel vector loads whole.
struct WeightGradArgs {
  const float* x;
  std::int64_t row;    // floats per (padded) input row
  std::int64_t plane;  // floats per (padded) input channel
  std::int64_t kernel_h;
  std::int64_t kernel_w;
  std::int64_t oh;
  std::int64_t ow;
  const float* got;
  std::int64_t ocp;  // row stride of got, a multiple of kLanes
  std::int64_t ocn;
  std::int64_t taps;  // IC*KH*KW: the row stride of dw
  float* dw;          // [ocn, taps]
};

// R taps x V channel vectors starting at channel ob.  Each accumulator
// starts at +0 and adds x * go over ascending s = (oy, ox): the gemm_nt dot
// product over im2col's row p, term for term, zero inputs included.
template <int R, int V>
void weight_grad_tile(const WeightGradArgs& a, std::int64_t p0,
                      std::int64_t ob) {
  const std::int64_t kk = a.kernel_h * a.kernel_w;
  const float* xr[R];
  for (int r = 0; r < R; ++r) {
    const std::int64_t t = (p0 + r) % kk;
    xr[r] = a.x + ((p0 + r) / kk * a.plane + t / a.kernel_w * a.row +
                   t % a.kernel_w);
  }
  Vec acc[R][V] = {};
  const float* g = a.got + ob;
  for (std::int64_t oy = 0; oy < a.oh; ++oy) {
    const std::int64_t base = oy * a.row;
    for (std::int64_t ox = 0; ox < a.ow; ++ox, g += a.ocp) {
      Vec gv[V];
#pragma GCC unroll 8
      for (int v = 0; v < V; ++v)
        std::memcpy(&gv[v], g + v * kLanes, sizeof(Vec));
#pragma GCC unroll 16
      for (int r = 0; r < R; ++r) {
        const float xv = xr[r][base + ox];
#pragma GCC unroll 8
        for (int v = 0; v < V; ++v) acc[r][v] += xv * gv[v];
      }
    }
  }
  alignas(64) float tile[R][V * kLanes];
#pragma GCC unroll 16
  for (int r = 0; r < R; ++r)
#pragma GCC unroll 8
    for (int v = 0; v < V; ++v)
      std::memcpy(&tile[r][v * kLanes], &acc[r][v], sizeof(Vec));
  const std::int64_t width = std::min<std::int64_t>(V * kLanes, a.ocn - ob);
  for (std::int64_t c = 0; c < width; ++c) {
    float* d = a.dw + (ob + c) * a.taps + p0;
#pragma GCC unroll 16
    for (int r = 0; r < R; ++r) d[r] = tile[r][c];
  }
}

template <int R>
void weight_grad_taps(const WeightGradArgs& a, std::int64_t p0) {
  std::int64_t ob = 0;
  for (; ob + kTileV * kLanes <= a.ocp; ob += kTileV * kLanes)
    weight_grad_tile<R, kTileV>(a, p0, ob);
  for (; ob < a.ocp; ob += kLanes) weight_grad_tile<R, 1>(a, p0, ob);
}

// One sample's input gradient as a transposed direct conv, read from go
// and the weights in place of gemm_tn's columns and col2im's scatter.
// `go` is zero-padded by kernel_w - 1 columns on each side; `wb` is the
// [KH, KW, OC, cp] weight, zero beyond the input channels.
struct InputGradArgs {
  const float* go;
  std::int64_t go_row;    // ow + 2 * (kernel_w - 1)
  std::int64_t go_plane;  // oh * go_row
  const float* wb;
  std::int64_t cp;  // channel stride of wb, a multiple of kLanes
  std::int64_t ocn;
  std::int64_t oh;
  ConvGeom g;
  float* gi;  // [C, H, W]
};

// Input pixels (iy, ix0 .. ix0+R-1) x V channel vectors from cb.  For each
// tap (kh, kw) in ascending order, t sums W * go over ascending oc from +0
// (one element of gemm_tn's column matrix, whose skipped zero weights are
// exact +-0 products here), and acc adds t, starting from +0 as col2im's
// zeroed image did.  A tap whose output row lies outside go is skipped, as
// in col2im; one whose output column does reads the zero padding, so its t
// is +0, which leaves acc unchanged.
template <int R, int V>
void input_grad_tile(const InputGradArgs& a, std::int64_t iy,
                     std::int64_t ix0, std::int64_t cb) {
  const ConvGeom& g = a.g;
  Vec acc[R][V] = {};
  for (std::int64_t kh = 0; kh < g.kernel_h; ++kh) {
    const std::int64_t oy = iy + g.pad_h - kh;
    if (oy < 0 || oy >= a.oh) continue;
    for (std::int64_t kw = 0; kw < g.kernel_w; ++kw) {
      const float* go =
          a.go + oy * a.go_row + ix0 + g.pad_w - kw + g.kernel_w - 1;
      const float* w = a.wb + (kh * g.kernel_w + kw) * a.ocn * a.cp + cb;
      Vec t[R][V] = {};
      for (std::int64_t oc = 0; oc < a.ocn;
           ++oc, go += a.go_plane, w += a.cp) {
        Vec wv[V];
#pragma GCC unroll 8
        for (int v = 0; v < V; ++v)
          std::memcpy(&wv[v], w + v * kLanes, sizeof(Vec));
#pragma GCC unroll 16
        for (int r = 0; r < R; ++r) {
          const float gs = go[r];
#pragma GCC unroll 8
          for (int v = 0; v < V; ++v) t[r][v] += wv[v] * gs;
        }
      }
#pragma GCC unroll 16
      for (int r = 0; r < R; ++r)
#pragma GCC unroll 8
        for (int v = 0; v < V; ++v) acc[r][v] += t[r][v];
    }
  }
  alignas(64) float tile[R][V * kLanes];
#pragma GCC unroll 16
  for (int r = 0; r < R; ++r)
#pragma GCC unroll 8
    for (int v = 0; v < V; ++v)
      std::memcpy(&tile[r][v * kLanes], &acc[r][v], sizeof(Vec));
  const std::int64_t width =
      std::min<std::int64_t>(V * kLanes, g.channels - cb);
  float* d = a.gi + cb * g.height * g.width + iy * g.width + ix0;
  for (std::int64_t c = 0; c < width; ++c, d += g.height * g.width)
#pragma GCC unroll 16
    for (int r = 0; r < R; ++r) d[r] = tile[r][c];
}

// Half-height pixel tiles: each keeps both t and acc in registers.
constexpr int kGradPixels = kTileR / 2;

void input_grad_sample(const InputGradArgs& a) {
  for (std::int64_t iy = 0; iy < a.g.height; ++iy)
    for_row_tiles<kGradPixels>(a.g.width, [&]<int R>(std::int64_t ix0) {
      std::int64_t cb = 0;
      for (; cb + kTileV * kLanes <= a.cp; cb += kTileV * kLanes)
        input_grad_tile<R, kTileV>(a, iy, ix0, cb);
      for (; cb < a.cp; cb += kLanes) input_grad_tile<R, 1>(a, iy, ix0, cb);
    });
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
      for (std::int64_t c = pb; c < pe; ++c)
        pad_plane(g, in + c * hw, padded + c * plane);
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
  const std::int64_t ocn = config_.out_channels;
  const std::int64_t oh = g.out_h();
  const std::int64_t ow = g.out_w();
  const std::int64_t kk = g.col_rows();
  const std::int64_t spatial = oh * ow;
  ST_REQUIRE(grad_output.shape() == Shape({n, ocn, oh, ow}),
             "conv grad_output shape mismatch");

  // Scratch per chunk of samples: go's transpose, a padded input copy and
  // a column-padded go.  Partials per sample: the weight gradient, then
  // the bias gradient.
  const std::int64_t ocp = (ocn + kLanes - 1) / kLanes * kLanes;
  const std::int64_t row = g.width + 2 * g.pad_w;
  const std::int64_t plane = (g.height + 2 * g.pad_h) * row;
  const std::int64_t padded = padded_elems(g);
  const std::int64_t go_row = ow + 2 * (g.kernel_w - 1);
  const std::int64_t go_elems = input_grad_ ? ocn * oh * go_row : 0;
  const std::int64_t scratch = spatial * ocp + padded + go_elems;
  const std::int64_t part = ocn * kk + ocn;
  const std::int64_t chunks = std::min<std::int64_t>(n, num_threads());
  bwd_scratch_.resize(static_cast<std::size_t>(chunks * scratch));
  grad_partial_.resize(static_cast<std::size_t>(n * part));
  Tensor grad_input;
  const std::int64_t cp = (g.channels + kLanes - 1) / kLanes * kLanes;
  if (input_grad_) {
    grad_input = Tensor(input.shape());
    // The weight as [KH*KW, OC, cp], on the window's first backward step.
    const std::int64_t taps = g.kernel_h * g.kernel_w;
    if (weight_bwd_.empty()) {
      weight_bwd_.assign(static_cast<std::size_t>(taps * ocn * cp), 0.0f);
      const float* w = weight_.value.data();
      for (std::int64_t oc = 0; oc < ocn; ++oc)
        for (std::int64_t p = 0; p < kk; ++p)
          weight_bwd_[static_cast<std::size_t>(
              (p % taps * ocn + oc) * cp + p / taps)] = w[oc * kk + p];
    }
  }

  const std::int64_t in_stride = g.channels * g.height * g.width;
  const std::int64_t out_stride = ocn * spatial;
  const auto sample = [&](std::int64_t i, float* buf) {
    const float* go = grad_output.data() + i * out_stride;
    float* got = buf;
    const float* x = input.data() + i * in_stride;
    if (padded > 0) {
      float* xp = got + spatial * ocp;
      for (std::int64_t c = 0; c < g.channels; ++c)
        pad_plane(g, x + c * g.height * g.width, xp + c * plane);
      x = xp;
    }
    for (std::int64_t s = 0; s < spatial; ++s) {
      float* t = got + s * ocp;
      for (std::int64_t oc = 0; oc < ocn; ++oc) t[oc] = go[oc * spatial + s];
      std::fill(t + ocn, t + ocp, 0.0f);
    }
    float* dw = grad_partial_.data() + i * part;
    const WeightGradArgs wa{.x = x,
                            .row = row,
                            .plane = plane,
                            .kernel_h = g.kernel_h,
                            .kernel_w = g.kernel_w,
                            .oh = oh,
                            .ow = ow,
                            .got = got,
                            .ocp = ocp,
                            .ocn = ocn,
                            .taps = kk,
                            .dw = dw};
    for_row_tiles<kTileR>(kk, [&]<int R>(std::int64_t p0) {
      weight_grad_taps<R>(wa, p0);
    });
    // Bias gradient: each channel's spatial sum, in double over ascending
    // s, kLanes channels at a time so the sums run side by side.
    if (config_.bias)
      for (std::int64_t ob = 0; ob < ocn; ob += kLanes) {
        double acc[kLanes] = {};
        for (std::int64_t s = 0; s < spatial; ++s)
          for (int j = 0; j < kLanes; ++j) acc[j] += got[s * ocp + ob + j];
        for (std::int64_t j = 0; j < std::min<std::int64_t>(kLanes, ocn - ob);
             ++j)
          dw[ocn * kk + ob + j] = static_cast<float>(acc[j]);
      }
    if (!input_grad_) return;
    float* gp = got + spatial * ocp + padded;
    std::fill(gp, gp + go_elems, 0.0f);
    for (std::int64_t r = 0; r < ocn * oh; ++r)
      std::copy(go + r * ow, go + (r + 1) * ow,
                gp + r * go_row + g.kernel_w - 1);
    input_grad_sample(InputGradArgs{.go = gp,
                                    .go_row = go_row,
                                    .go_plane = oh * go_row,
                                    .wb = weight_bwd_.data(),
                                    .cp = cp,
                                    .ocn = ocn,
                                    .oh = oh,
                                    .g = g,
                                    .gi = grad_input.data() + i * in_stride});
  };
  // One fork per layer-step: chunk c runs its samples serially in its own
  // scratch, and each sample writes only its own partial and grad_input.
  parallel_for(0, chunks, 1, [&](std::int64_t cb, std::int64_t ce) {
    for (std::int64_t c = cb; c < ce; ++c)
      for (std::int64_t i = c * n / chunks; i < (c + 1) * n / chunks; ++i)
        sample(i, bwd_scratch_.data() + c * scratch);
  });

  // Each gradient element adds its per-sample partials in ascending sample
  // order, as the serial loop added each sample's dot product.
  float* gw = weight_.grad.data();
  parallel_for(0, ocn * kk, kElemGrain, [&](std::int64_t eb, std::int64_t ee) {
    for (std::int64_t i = 0; i < n; ++i) {
      const float* src = grad_partial_.data() + i * part;
      for (std::int64_t e = eb; e < ee; ++e) gw[e] += src[e];
    }
  });
  if (config_.bias) {
    float* gb = bias_.grad.data();
    for (std::int64_t i = 0; i < n; ++i) {
      const float* src = grad_partial_.data() + i * part + ocn * kk;
      for (std::int64_t oc = 0; oc < ocn; ++oc) gb[oc] += src[oc];
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
