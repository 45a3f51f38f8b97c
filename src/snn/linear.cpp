#include "snn/linear.h"

#include <algorithm>
#include <atomic>

#include "core/error.h"
#include "core/parallel.h"
#include "tensor/gemm.h"
#include "tensor/tensor_ops.h"

namespace spiketune::snn {

Linear::Linear(LinearConfig config, Rng& rng)
    : config_(config),
      weight_("linear.weight",
              Tensor::kaiming_uniform(
                  Shape{config.out_features, config.in_features}, rng,
                  config.in_features)),
      bias_("linear.bias", config.bias
                               ? Tensor::kaiming_uniform(
                                     Shape{config.out_features}, rng,
                                     config.in_features)
                               : Tensor(Shape{0})) {
  ST_REQUIRE(config_.in_features > 0 && config_.out_features > 0,
             "linear features must be positive");
}

void Linear::begin_window(std::int64_t, bool training) {
  training_ = training;
  input_cache_.clear();
  weight_t_ = ops::transpose_2d(weight_.value);
}

std::int64_t Linear::forward_rows(const float* x, std::int64_t n,
                                  std::int64_t in_f, std::int64_t out_f,
                                  const float* weight_t, const float* bias,
                                  float* out) {
  std::atomic<std::int64_t> total{0};
  parallel_for(0, n, 1, [&](std::int64_t rb, std::int64_t re) {
    std::int64_t local = 0;
    for (std::int64_t r = rb; r < re; ++r) {
      const float* xr = x + r * in_f;
      float* o = out + r * out_f;
      std::fill(o, o + out_f, 0.0f);
      for (std::int64_t f = 0; f < in_f; ++f) {
        const float v = xr[f];
        if (v == 0.0f) continue;
        ++local;
        const float* wrow = weight_t + f * out_f;
        for (std::int64_t j = 0; j < out_f; ++j) o[j] += v * wrow[j];
      }
      if (bias != nullptr)
        for (std::int64_t j = 0; j < out_f; ++j) o[j] += bias[j];
    }
    total.fetch_add(local, std::memory_order_relaxed);
  });
  return total.load(std::memory_order_relaxed);
}

Tensor Linear::forward_step(const Tensor& input) {
  const Shape& s = input.shape();
  ST_REQUIRE(s.rank() == 2 && s[1] == config_.in_features,
             "linear expects [N, in_features], got " + s.str());
  ST_REQUIRE(weight_t_.numel() == weight_.value.numel(),
             "linear forward_step before begin_window");
  const std::int64_t n = s[0];

  Tensor output(Shape{n, config_.out_features});
  forward_rows(input.data(), n, config_.in_features, config_.out_features,
               weight_t_.data(), config_.bias ? bias_.value.data() : nullptr,
               output.data());
  if (training_) input_cache_.push_back(input);
  return output;
}

Tensor Linear::backward_step(const Tensor& grad_output) {
  ST_REQUIRE(!input_cache_.empty(),
             "linear backward without matching cached forward step");
  Tensor input = std::move(input_cache_.back());
  input_cache_.pop_back();

  const std::int64_t n = input.shape()[0];
  ST_REQUIRE(grad_output.shape() == Shape({n, config_.out_features}),
             "linear grad_output shape mismatch");

  // gW[out, in] += go[N, out]^T * x[N, in]
  gemm_tn(config_.out_features, config_.in_features, n, 1.0f,
          grad_output.data(), input.data(), 1.0f, weight_.grad.data());
  // gx[N, in] = go[N, out] * W[out, in]
  Tensor grad_input(input.shape());
  gemm(n, config_.in_features, config_.out_features, 1.0f,
       grad_output.data(), weight_.value.data(), 0.0f, grad_input.data());
  if (config_.bias) {
    float* gb = bias_.grad.data();
    const float* go = grad_output.data();
    for (std::int64_t i = 0; i < n; ++i)
      for (std::int64_t j = 0; j < config_.out_features; ++j)
        gb[j] += go[i * config_.out_features + j];
  }
  return grad_input;
}

std::vector<Param*> Linear::params() {
  if (config_.bias) return {&weight_, &bias_};
  return {&weight_};
}

Shape Linear::output_shape(const Shape& input) const {
  ST_REQUIRE(input.rank() == 1 && input[0] == config_.in_features,
             "linear output_shape expects [in_features]");
  return Shape{config_.out_features};
}

}  // namespace spiketune::snn
