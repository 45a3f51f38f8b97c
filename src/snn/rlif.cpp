#include "snn/rlif.h"

#include "core/error.h"
#include "tensor/gemm.h"

namespace spiketune::snn {

Rlif::Rlif(RlifConfig config)
    : config_(config),
      recurrent_("rlif.recurrent", [&] {
        ST_REQUIRE(config.features > 0, "rlif features must be positive");
        Rng rng(config.weight_seed);
        // Small recurrent init: strong recurrence at init destabilizes the
        // membrane dynamics, so scale well below the feed-forward bound.
        return Tensor::kaiming_uniform(
            Shape{config.features, config.features}, rng,
            config.features * 4);
      }()) {
  ST_REQUIRE(config_.lif.beta >= 0.0f && config_.lif.beta <= 1.0f,
             "beta must be in [0, 1]");
  ST_REQUIRE(config_.lif.threshold > 0.0f, "threshold must be positive");
}

void Rlif::begin_window(std::int64_t, bool training) {
  training_ = training;
  has_state_ = false;
  cache_.clear();
  has_carry_ = false;
}

Tensor Rlif::forward_step(const Tensor& input) {
  const Shape& s = input.shape();
  ST_REQUIRE(s.rank() == 2 && s[1] == config_.features,
             "rlif expects [N, features], got " + s.str());
  const std::int64_t batch = s[0];
  const std::int64_t n = config_.features;

  const unsigned char fresh = has_state_ ? 0 : 1;
  Tensor rec;  // recurrent current s[t-1] V^T; none on the first step
  if (fresh) {
    if (!membrane_.same_shape(input)) membrane_ = Tensor(s);
  } else {
    ST_REQUIRE(membrane_.same_shape(input),
               "rlif input shape changed mid-window");
    rec = Tensor(s);
    gemm_nt(batch, n, n, 1.0f, prev_spikes_.data(), recurrent_.value.data(),
            0.0f, rec.data());
  }

  Tensor spikes(s);
  Tensor u_pre = training_ ? Tensor(s) : Tensor();
  float* m = membrane_.data();
  Lif::step_rows(input.data(), 1, input.numel(), &m, &fresh,
                 config_.lif.beta, config_.lif.threshold, spikes.data(),
                 fresh ? nullptr : rec.data(),
                 training_ ? u_pre.data() : nullptr);

  if (training_) {
    StepCache cache;
    cache.u_pre = std::move(u_pre);
    cache.had_prev = !fresh;
    if (!fresh) cache.prev_spikes = std::move(prev_spikes_);
    cache_.push_back(std::move(cache));
  }
  prev_spikes_ = spikes;
  has_state_ = true;
  return spikes;
}

void Rlif::begin_backward() { has_carry_ = false; }

Tensor Rlif::backward_step(const Tensor& grad_output) {
  ST_REQUIRE(!cache_.empty(), "rlif backward without cached forward step");
  StepCache cache = std::move(cache_.back());
  cache_.pop_back();
  const Shape& s = cache.u_pre.shape();
  ST_REQUIRE(grad_output.same_shape(cache.u_pre),
             "rlif backward gradient shape mismatch");
  const std::int64_t batch = s[0];
  const std::int64_t n = config_.features;

  // The spike gradient is the downstream one plus the recurrent path from
  // the next step; both carries are updated in place.
  if (!grad_carry_.same_shape(cache.u_pre)) grad_carry_ = Tensor(s);
  Tensor grad_input(s);
  Lif::backward_rows(cache.u_pre.numel(), config_.lif, grad_output.data(),
                     has_carry_ ? grad_spike_carry_.data() : nullptr,
                     cache.u_pre.data(),
                     has_carry_ ? grad_carry_.data() : nullptr,
                     grad_input.data(), grad_carry_.data());

  // Recurrent weight gradient and spike-carry for step t-1.  The window's
  // first step has none, and no earlier step reads a carry after it.
  if (cache.had_prev) {
    // gV[j, i] += sum_b g_upre[b, j] * s_prev[b, i]
    gemm_tn(n, n, batch, 1.0f, grad_input.data(), cache.prev_spikes.data(),
            1.0f, recurrent_.grad.data());
    // dL/ds[t-1] via recurrence: g_upre * V.
    if (!grad_spike_carry_.same_shape(cache.u_pre))
      grad_spike_carry_ = Tensor(s);
    gemm(batch, n, n, 1.0f, grad_input.data(), recurrent_.value.data(),
         0.0f, grad_spike_carry_.data());
  }
  has_carry_ = true;
  return grad_input;
}

Shape Rlif::output_shape(const Shape& input) const {
  ST_REQUIRE(input.rank() == 1 && input[0] == config_.features,
             "rlif output_shape expects [features]");
  return input;
}

}  // namespace spiketune::snn
