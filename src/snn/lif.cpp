#include "snn/lif.h"

#include <atomic>

#include "core/error.h"
#include "core/parallel.h"
#include "obs/metrics.h"
#include "obs/profiler.h"

namespace spiketune::snn {

Lif::Lif(LifConfig config) : config_(config) {
  ST_REQUIRE(config_.beta >= 0.0f && config_.beta <= 1.0f,
             "beta must be in [0, 1]");
  ST_REQUIRE(config_.threshold > 0.0f, "threshold must be positive");
}

void Lif::begin_window(std::int64_t, bool training) {
  training_ = training;
  has_membrane_ = false;
  pre_cache_.clear();
  has_grad_carry_ = false;
  window_spikes_ = 0;
  window_elements_ = 0;
}

Tensor Lif::forward_step(const Tensor& input) {
  ST_PROF_SCOPE("lif.fwd");
  const float beta = config_.beta;
  const float theta = config_.threshold;

  Tensor u_pre = input;  // u_pre = I[t] (+ beta * u_post[t-1] below)
  if (has_membrane_) {
    ST_REQUIRE(membrane_.same_shape(input),
               "LIF input shape changed mid-window");
    float* up = u_pre.data();
    const float* um = membrane_.data();
    parallel_for(0, u_pre.numel(), kElemGrain,
                 [&](std::int64_t b, std::int64_t e) {
                   for (std::int64_t i = b; i < e; ++i)
                     up[i] += beta * um[i];
                 });
  }

  Tensor spikes(u_pre.shape());
  Tensor u_post = u_pre;
  {
    const float* up = u_pre.data();
    float* sp = spikes.data();
    float* upost = u_post.data();
    // Disjoint elementwise writes; the spike tally is an integer sum, so
    // combining per-slice counts is exact for any slicing.
    std::atomic<std::int64_t> fired{0};
    parallel_for(0, u_pre.numel(), kElemGrain,
                 [&](std::int64_t b, std::int64_t e) {
                   std::int64_t local = 0;
                   for (std::int64_t i = b; i < e; ++i) {
                     const bool fire = up[i] > theta;
                     sp[i] = fire ? 1.0f : 0.0f;
                     if (fire) {
                       upost[i] -= theta;
                       ++local;
                     }
                   }
                   fired.fetch_add(local, std::memory_order_relaxed);
                 });
    const std::int64_t n_fired = fired.load(std::memory_order_relaxed);
    window_spikes_ += n_fired;
    window_elements_ += u_pre.numel();
    if (obs::metrics_enabled()) {
      static const obs::MetricId kSpikes = obs::counter("lif.spikes");
      obs::add(kSpikes, n_fired);
    }
  }

  membrane_ = std::move(u_post);
  has_membrane_ = true;
  if (training_) pre_cache_.push_back(std::move(u_pre));
  return spikes;
}

void Lif::begin_backward() { has_grad_carry_ = false; }

Tensor Lif::backward_step(const Tensor& grad_output) {
  ST_PROF_SCOPE("lif.bwd");
  ST_REQUIRE(!pre_cache_.empty(),
             "LIF backward without matching cached forward step");
  Tensor u_pre = std::move(pre_cache_.back());
  pre_cache_.pop_back();
  ST_REQUIRE(grad_output.same_shape(u_pre),
             "LIF backward gradient shape mismatch");

  const float beta = config_.beta;
  const float theta = config_.threshold;
  const Surrogate sg = config_.surrogate;
  const bool detach = config_.detach_reset;

  Tensor grad_input(u_pre.shape());
  float* gi = grad_input.data();
  const float* go = grad_output.data();
  const float* up = u_pre.data();
  const float* carry = has_grad_carry_ ? grad_carry_.data() : nullptr;

  parallel_for(0, u_pre.numel(), kElemGrain,
               [&](std::int64_t b, std::int64_t e) {
                 for (std::int64_t i = b; i < e; ++i) {
                   const float c = carry ? carry[i] : 0.0f;
                   const float spike_path =
                       go[i] - (detach ? 0.0f : theta * c);
                   gi[i] = c + spike_path * sg.grad(up[i] - theta);
                 }
               });

  // c[t-1] = beta * dL/du_pre[t]
  grad_carry_ = grad_input;
  {
    float* gc = grad_carry_.data();
    parallel_for(0, grad_carry_.numel(), kElemGrain,
                 [&](std::int64_t b, std::int64_t e) {
                   for (std::int64_t i = b; i < e; ++i) gc[i] *= beta;
                 });
  }
  has_grad_carry_ = true;
  return grad_input;
}

}  // namespace spiketune::snn
