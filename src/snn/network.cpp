#include "snn/network.h"

#include "core/error.h"
#include "tensor/tensor_ops.h"

namespace spiketune::snn {

Layer& SpikingNetwork::layer(std::size_t i) {
  ST_REQUIRE(i < layers_.size(), "layer index out of range");
  return *layers_[i];
}

const Layer& SpikingNetwork::layer(std::size_t i) const {
  ST_REQUIRE(i < layers_.size(), "layer index out of range");
  return *layers_[i];
}

ForwardResult SpikingNetwork::forward(const std::vector<Tensor>& step_inputs,
                                      const ForwardOptions& options) {
  ST_REQUIRE(!layers_.empty(), "network has no layers");
  ST_REQUIRE(!step_inputs.empty(), "window must contain at least one step");
  const std::int64_t batch = step_inputs.front().shape()[0];

  for (auto& l : layers_) l->begin_window(batch, options.training);

  ForwardResult result;
  result.stats = make_record();
  result.timesteps = static_cast<std::int64_t>(step_inputs.size());
  last_window_steps_ = result.timesteps;

  for (const Tensor& input : step_inputs) {
    ST_REQUIRE(input.shape()[0] == batch,
               "all steps must share one batch size");
    Tensor x = input;
    for (std::size_t li = 0; li < layers_.size(); ++li) {
      const std::int64_t in_nz =
          options.record_stats ? ops::count_nonzero(x) : 0;
      Tensor y = layers_[li]->forward_step(x);
      if (options.record_stats) {
        result.stats.add_step(li, in_nz, x.numel(), ops::count_nonzero(y),
                              y.numel());
      }
      x = std::move(y);
    }
    ST_REQUIRE(x.shape().rank() == 2, "network output must be [N, features]");
    if (result.spike_counts.numel() == 0)
      result.spike_counts = Tensor(x.shape());
    ops::add_(result.spike_counts, x);
  }
  result.stats.note_window(result.timesteps, batch);
  return result;
}

void SpikingNetwork::backward(const Tensor& grad_counts) {
  ST_REQUIRE(last_window_steps_ > 0, "backward without a prior forward");
  // The first layer's input gradient would be dL/d(encoded input): unused.
  for (std::size_t li = 0; li < layers_.size(); ++li)
    layers_[li]->begin_backward(li > 0);
  // counts = sum_t s[t]  =>  dL/ds[t] = dL/dcounts for every step.
  for (std::int64_t t = last_window_steps_ - 1; t >= 0; --t) {
    Tensor g = grad_counts;
    for (std::size_t li = layers_.size(); li-- > 0;)
      g = layers_[li]->backward_step(g);
  }
  last_window_steps_ = 0;
}

std::vector<Param*> SpikingNetwork::params() {
  std::vector<Param*> all;
  for (auto& l : layers_)
    for (Param* p : l->params()) all.push_back(p);
  return all;
}

void SpikingNetwork::zero_grad() {
  for (auto& l : layers_) l->zero_grad();
}

std::int64_t SpikingNetwork::num_parameters() {
  std::int64_t n = 0;
  for (Param* p : params()) n += p->numel();
  return n;
}

Shape SpikingNetwork::output_shape(Shape per_sample_input) const {
  Shape s = std::move(per_sample_input);
  for (const auto& l : layers_) s = l->output_shape(s);
  return s;
}

SpikeRecord SpikingNetwork::make_record() const {
  std::vector<std::string> names;
  std::vector<bool> spiking;
  names.reserve(layers_.size());
  for (const auto& l : layers_) {
    names.push_back(l->name());
    spiking.push_back(l->spiking());
  }
  return SpikeRecord(std::move(names), std::move(spiking));
}

}  // namespace spiketune::snn
