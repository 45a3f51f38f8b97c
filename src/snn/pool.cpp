#include "snn/pool.h"

#include "core/error.h"
#include "core/parallel.h"

namespace spiketune::snn {

namespace {
void require_4d(const Shape& s, const char* who) {
  ST_REQUIRE(s.rank() == 4, std::string(who) + " expects [N, C, H, W]");
}

Shape pooled_shape(const Shape& in, std::int64_t k) {
  // floor division truncates ragged borders, like PyTorch's default.
  return Shape{in[0], in[1], in[2] / k, in[3] / k};
}
}  // namespace

MaxPool2d::MaxPool2d(std::int64_t kernel) : kernel_(kernel) {
  ST_REQUIRE(kernel_ > 0, "pool kernel must be positive");
}

void MaxPool2d::begin_window(std::int64_t, bool training) {
  training_ = training;
  cache_.clear();
}

void MaxPool2d::forward_planes(const float* in, std::int64_t planes,
                               std::int64_t h, std::int64_t w, std::int64_t k,
                               float* out, std::int64_t* argmax) {
  const std::int64_t oh = h / k;
  const std::int64_t ow = w / k;
  parallel_for(0, planes, 1, [&](std::int64_t pb, std::int64_t pe) {
    for (std::int64_t p = pb; p < pe; ++p) {
      const std::int64_t ibase = p * h * w;
      const float* iplane = in + ibase;
      float* oplane = out + p * oh * ow;
      std::int64_t* aplane = argmax != nullptr ? argmax + p * oh * ow : nullptr;
      for (std::int64_t y = 0; y < oh; ++y) {
        for (std::int64_t x = 0; x < ow; ++x) {
          const std::int64_t y0 = y * k;
          const std::int64_t x0 = x * k;
          float best = iplane[y0 * w + x0];
          std::int64_t best_idx = y0 * w + x0;
          for (std::int64_t dy = 0; dy < k; ++dy) {
            for (std::int64_t dx = 0; dx < k; ++dx) {
              const std::int64_t idx = (y0 + dy) * w + (x0 + dx);
              if (iplane[idx] > best) {
                best = iplane[idx];
                best_idx = idx;
              }
            }
          }
          oplane[y * ow + x] = best;
          if (aplane != nullptr) aplane[y * ow + x] = ibase + best_idx;
        }
      }
    }
  });
}

Tensor MaxPool2d::forward_step(const Tensor& input) {
  require_4d(input.shape(), "maxpool");
  const Shape out_shape = pooled_shape(input.shape(), kernel_);
  ST_REQUIRE(out_shape[2] > 0 && out_shape[3] > 0,
             "maxpool input smaller than kernel");

  Tensor output(out_shape);
  StepCache cache;
  if (training_) {
    cache.input_shape = input.shape();
    cache.argmax.resize(static_cast<std::size_t>(output.numel()));
  }
  forward_planes(input.data(), out_shape[0] * out_shape[1], input.shape()[2],
                 input.shape()[3], kernel_, output.data(),
                 training_ ? cache.argmax.data() : nullptr);
  if (training_) cache_.push_back(std::move(cache));
  return output;
}

Tensor MaxPool2d::backward_step(const Tensor& grad_output) {
  ST_REQUIRE(!cache_.empty(),
             "maxpool backward without matching cached forward step");
  StepCache cache = std::move(cache_.back());
  cache_.pop_back();
  ST_REQUIRE(grad_output.numel() ==
                 static_cast<std::int64_t>(cache.argmax.size()),
             "maxpool grad_output size mismatch");

  Tensor grad_input(cache.input_shape);
  float* gi = grad_input.data();
  const float* go = grad_output.data();
  for (std::int64_t i = 0, n = grad_output.numel(); i < n; ++i)
    gi[cache.argmax[static_cast<std::size_t>(i)]] += go[i];
  return grad_input;
}

Shape MaxPool2d::output_shape(const Shape& input) const {
  ST_REQUIRE(input.rank() == 3, "output_shape expects per-sample [C, H, W]");
  return Shape{input[0], input[1] / kernel_, input[2] / kernel_};
}

AvgPool2d::AvgPool2d(std::int64_t kernel) : kernel_(kernel) {
  ST_REQUIRE(kernel_ > 0, "pool kernel must be positive");
}

void AvgPool2d::begin_window(std::int64_t, bool training) {
  training_ = training;
  shapes_.clear();
}

void AvgPool2d::forward_planes(const float* in, std::int64_t planes,
                               std::int64_t h, std::int64_t w, std::int64_t k,
                               float* out) {
  const std::int64_t oh = h / k;
  const std::int64_t ow = w / k;
  const float inv = 1.0f / static_cast<float>(k * k);
  parallel_for(0, planes, 1, [&](std::int64_t pb, std::int64_t pe) {
    for (std::int64_t p = pb; p < pe; ++p) {
      const float* iplane = in + p * h * w;
      float* oplane = out + p * oh * ow;
      for (std::int64_t y = 0; y < oh; ++y) {
        for (std::int64_t x = 0; x < ow; ++x) {
          float acc = 0.0f;
          for (std::int64_t dy = 0; dy < k; ++dy)
            for (std::int64_t dx = 0; dx < k; ++dx)
              acc += iplane[(y * k + dy) * w + (x * k + dx)];
          oplane[y * ow + x] = acc * inv;
        }
      }
    }
  });
}

Tensor AvgPool2d::forward_step(const Tensor& input) {
  require_4d(input.shape(), "avgpool");
  const Shape out_shape = pooled_shape(input.shape(), kernel_);
  ST_REQUIRE(out_shape[2] > 0 && out_shape[3] > 0,
             "avgpool input smaller than kernel");

  Tensor output(out_shape);
  forward_planes(input.data(), out_shape[0] * out_shape[1], input.shape()[2],
                 input.shape()[3], kernel_, output.data());
  if (training_) shapes_.push_back(input.shape());
  return output;
}

Tensor AvgPool2d::backward_step(const Tensor& grad_output) {
  ST_REQUIRE(!shapes_.empty(),
             "avgpool backward without matching cached forward step");
  Shape in_shape = shapes_.back();
  shapes_.pop_back();

  const std::int64_t h = in_shape[2];
  const std::int64_t w = in_shape[3];
  const std::int64_t oh = grad_output.shape()[2];
  const std::int64_t ow = grad_output.shape()[3];
  const std::int64_t planes = in_shape[0] * in_shape[1];
  const float inv = 1.0f / static_cast<float>(kernel_ * kernel_);

  Tensor grad_input(in_shape);
  float* gi = grad_input.data();
  const float* go = grad_output.data();
  for (std::int64_t p = 0; p < planes; ++p) {
    float* iplane = gi + p * h * w;
    const float* oplane = go + p * oh * ow;
    for (std::int64_t y = 0; y < oh; ++y) {
      for (std::int64_t x = 0; x < ow; ++x) {
        const float g = oplane[y * ow + x] * inv;
        for (std::int64_t dy = 0; dy < kernel_; ++dy)
          for (std::int64_t dx = 0; dx < kernel_; ++dx)
            iplane[(y * kernel_ + dy) * w + (x * kernel_ + dx)] += g;
      }
    }
  }
  return grad_input;
}

Shape AvgPool2d::output_shape(const Shape& input) const {
  ST_REQUIRE(input.rank() == 3, "output_shape expects per-sample [C, H, W]");
  return Shape{input[0], input[1] / kernel_, input[2] / kernel_};
}

}  // namespace spiketune::snn
