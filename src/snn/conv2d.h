// 2-D convolution layer (stride-1, optional zero padding).
//
// Input  per step: [N, IC, H, W]
// Output per step: [N, OC, OH, OW]
// Weight: [OC, IC*KH*KW] (filter-major, im2col order), bias: [OC].
//
// The forward pass is a register-tiled direct convolution over the
// [IC*KH*KW, OC] weight transpose, refreshed in begin_window, so after
// every optimizer step.  The backward pass is register-tiled as well, with
// no im2col: one parallel_for over the samples of a step, each writing its
// own weight and bias partial, which are then added in ascending sample
// order.
#pragma once

#include "core/rng.h"
#include "snn/layers.h"
#include "tensor/im2col.h"

namespace spiketune::snn {

struct Conv2dConfig {
  std::int64_t in_channels;
  std::int64_t out_channels;
  std::int64_t kernel = 3;
  std::int64_t pad = 0;
  bool bias = true;
};

class Conv2d final : public Layer {
 public:
  Conv2d(Conv2dConfig config, Rng& rng);

  void begin_window(std::int64_t batch_size, bool training) override;
  Tensor forward_step(const Tensor& input) override;
  void begin_backward(bool input_grad) override { input_grad_ = input_grad; }
  /// Bit-identical to the per-sample im2col, gemm_nt (weight), gemm_tn +
  /// col2im (input) and double-sum (bias) loop of tests/conv_oracle.h, at
  /// any thread count (DESIGN.md §10).
  Tensor backward_step(const Tensor& grad_output) override;

  std::vector<Param*> params() override;
  Shape output_shape(const Shape& input) const override;
  std::string name() const override { return "conv2d"; }

  const Conv2dConfig& config() const { return config_; }
  Param& weight() { return weight_; }
  Param& bias() { return bias_; }
  const Param& weight() const { return weight_; }
  const Param& bias() const { return bias_; }

  /// The one dense conv forward body, shared with infer::InferenceSession:
  /// out[s] ([OC, OH, OW]) = conv(in[s] ([IC, H, W])) + bias (an empty bias
  /// means none) for n samples, reading `weight_t` ([IC*KH*KW, OC], the
  /// weight transpose).  Each tile of consecutive output pixels in one row
  /// keeps its [pixels, OC] accumulator in registers and reuses every
  /// weight row across the tile.  Every output sums its terms in ascending
  /// p = (ic, kh, kw) from +0, then adds the bias: bit-identical to
  /// im2col + gemm + bias, whose skipped zero-weight and padding terms are
  /// exact +-0 products (DESIGN.md §10).  `padded` holds
  /// n * padded_elems(g) floats of scratch (none without padding).  Runs in
  /// parallel over (sample, output row); results do not depend on the
  /// thread count.
  static void forward_samples(const ConvGeom& g, const Tensor& weight_t,
                              const Tensor& bias, const float* in,
                              std::int64_t n, float* padded, float* out);
  /// Scratch floats per sample forward_samples needs for a zero-padded
  /// [IC, H+2*pad_h, W+2*pad_w] copy of its input; 0 without padding.
  static std::int64_t padded_elems(const ConvGeom& g);

  /// Synaptic fan-out of one input spike: the number of MACs it triggers
  /// (= OC * KH * KW for interior pixels); used by the hardware workload
  /// extractor.
  std::int64_t fanout_per_spike() const {
    return config_.out_channels * config_.kernel * config_.kernel;
  }

 private:
  ConvGeom geom_for(const Shape& input) const;

  Conv2dConfig config_;
  Param weight_;
  Param bias_;
  bool training_ = false;
  bool input_grad_ = true;  // set by begin_backward, reset by begin_window
  Tensor weight_t_;  // [IC*KH*KW, OC] transpose of weight_, set in begin_window
  std::vector<Tensor> input_cache_;  // per-step inputs (training only)
  std::vector<float> pad_buf_;       // forward padded-plane scratch
  std::vector<float> weight_bwd_;    // [KH*KW, OC, C padded], per window
  std::vector<float> bwd_scratch_;   // backward scratch, one block per chunk
  std::vector<float> grad_partial_;  // backward [weight | bias] per sample
};

}  // namespace spiketune::snn
