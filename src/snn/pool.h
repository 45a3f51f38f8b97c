// Spatial pooling layers over [N, C, H, W].
//
// MaxPool2d caches the argmax index per output cell for backward routing;
// AvgPool2d distributes gradient uniformly over its window.  Both use
// non-overlapping windows (kernel == stride), truncating ragged borders
// like PyTorch's default (floor division).
//
// Each forward_planes is the layer's one forward body, shared with
// infer::InferenceSession.  It runs in parallel over [H, W] planes; every
// plane is computed on its own, so results do not depend on thread count.
#pragma once

#include "snn/layers.h"

namespace spiketune::snn {

class MaxPool2d final : public Layer {
 public:
  explicit MaxPool2d(std::int64_t kernel);

  void begin_window(std::int64_t batch_size, bool training) override;
  Tensor forward_step(const Tensor& input) override;
  Tensor backward_step(const Tensor& grad_output) override;

  Shape output_shape(const Shape& input) const override;
  std::string name() const override { return "maxpool2d"; }
  std::int64_t kernel() const { return kernel_; }

  /// Max over each k x k window of `planes` [h, w] planes into [h/k, w/k]
  /// planes: first element first, replaced only by a strictly greater one,
  /// so ties keep the earliest index.  When `argmax` is non-null it gets
  /// each output's flat index into `in`.
  static void forward_planes(const float* in, std::int64_t planes,
                             std::int64_t h, std::int64_t w, std::int64_t k,
                             float* out, std::int64_t* argmax);

 private:
  struct StepCache {
    Shape input_shape;
    std::vector<std::int64_t> argmax;  // flat input index per output element
  };
  std::int64_t kernel_;
  bool training_ = false;
  std::vector<StepCache> cache_;
};

class AvgPool2d final : public Layer {
 public:
  explicit AvgPool2d(std::int64_t kernel);

  void begin_window(std::int64_t batch_size, bool training) override;
  Tensor forward_step(const Tensor& input) override;
  Tensor backward_step(const Tensor& grad_output) override;

  Shape output_shape(const Shape& input) const override;
  std::string name() const override { return "avgpool2d"; }
  std::int64_t kernel() const { return kernel_; }

  /// Mean over each k x k window of `planes` [h, w] planes into [h/k, w/k]
  /// planes, summed in ascending (dy, dx) order and scaled by 1/(k*k).
  static void forward_planes(const float* in, std::int64_t planes,
                             std::int64_t h, std::int64_t w, std::int64_t k,
                             float* out);

 private:
  std::int64_t kernel_;
  bool training_ = false;
  std::vector<Shape> shapes_;
};

}  // namespace spiketune::snn
