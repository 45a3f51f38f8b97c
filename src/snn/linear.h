// Fully-connected layer.
//
// Input per step: [N, in_features]; output [N, out_features].
// Weight: [out_features, in_features]; y = x W^T + b.
// The forward reads an [in, out] transpose of the weight, refreshed in
// begin_window, so after every optimizer step.
#pragma once

#include "core/rng.h"
#include "snn/layers.h"

namespace spiketune::snn {

struct LinearConfig {
  std::int64_t in_features;
  std::int64_t out_features;
  bool bias = true;
};

class Linear final : public Layer {
 public:
  Linear(LinearConfig config, Rng& rng);

  void begin_window(std::int64_t batch_size, bool training) override;
  Tensor forward_step(const Tensor& input) override;
  Tensor backward_step(const Tensor& grad_output) override;

  std::vector<Param*> params() override;
  Shape output_shape(const Shape& input) const override;
  std::string name() const override { return "linear"; }

  const LinearConfig& config() const { return config_; }
  Param& weight() { return weight_; }
  Param& bias() { return bias_; }
  const Param& weight() const { return weight_; }
  const Param& bias() const { return bias_; }

  /// The one linear forward body, shared with infer::InferenceSession:
  /// out[i, :] = sum over nonzero x[i, f], ascending f, of x[i, f] *
  /// weight_t[f, :], then + bias (null = none).  x is [n, in_f], weight_t
  /// [in_f, out_f], out [n, out_f].  Rows run in parallel; returns the
  /// exact count of nonzero inputs.  Bit-identical to the gemm_nt dot
  /// product x * W^T: the same ascending-f order per output, and every
  /// skipped term is an exact +-0 product (DESIGN.md §10).
  static std::int64_t forward_rows(const float* x, std::int64_t n,
                                   std::int64_t in_f, std::int64_t out_f,
                                   const float* weight_t, const float* bias,
                                   float* out);

  /// MACs triggered by one input spike (= out_features).
  std::int64_t fanout_per_spike() const { return config_.out_features; }

 private:
  LinearConfig config_;
  Param weight_;
  Param bias_;
  Tensor weight_t_;  // [in, out] transpose of weight_, set in begin_window
  bool training_ = false;
  std::vector<Tensor> input_cache_;
};

}  // namespace spiketune::snn
