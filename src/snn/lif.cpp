#include "snn/lif.h"

#include <algorithm>
#include <atomic>

#include "core/error.h"
#include "core/parallel.h"
#include "obs/metrics.h"
#include "obs/profiler.h"

namespace spiketune::snn {

namespace {

// One parallel slice [b, e) of Lif::step_rows.  Rows are walked in order;
// the optional u_pre store is a template argument, chosen once per call
// rather than tested per element.  Every scalar is a by-value parameter, not
// a lambda capture: a by-reference beta or theta may alias the float stores,
// and GCC then leaves the loop scalar.
template <bool kPre>
std::int64_t step_slice(const float* in, std::int64_t b, std::int64_t e,
                        std::int64_t row_elems, float* const* m_rows,
                        const unsigned char* fresh, float beta, float theta,
                        float* out, float* u_pre) {
  std::int64_t fired = 0;
  std::int64_t i = b;
  std::int64_t s = b / row_elems;
  std::int64_t j = b - s * row_elems;
  while (i < e) {
    const std::int64_t row_end = std::min(e, i + (row_elems - j));
    float* m = m_rows[s] + j;
    const bool first_step = fresh[s] != 0;
    for (std::int64_t k = 0; i < row_end; ++i, ++k) {
      float u = in[i];
      if (!first_step) u += beta * m[k];
      const bool fire = u > theta;
      out[i] = fire ? 1.0f : 0.0f;
      if constexpr (kPre) u_pre[i] = u;
      if (fire) {
        u -= theta;
        ++fired;
      }
      m[k] = u;
    }
    ++s;
    j = 0;
  }
  return fired;
}

}  // namespace

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

std::int64_t Lif::step_rows(const float* in, std::int64_t n,
                           std::int64_t row_elems, float* const* m_rows,
                           const unsigned char* fresh, float beta, float theta,
                           float* out, float* u_pre) {
  const auto slice =
      u_pre != nullptr ? step_slice<true> : step_slice<false>;
  // Disjoint elementwise writes; the spike tally is an integer sum, so
  // combining per-slice counts is exact for any slicing.
  std::atomic<std::int64_t> fired{0};
  parallel_for(0, n * row_elems, kElemGrain,
               [&](std::int64_t b, std::int64_t e) {
                 fired.fetch_add(slice(in, b, e, row_elems, m_rows, fresh,
                                       beta, theta, out, u_pre),
                                 std::memory_order_relaxed);
               });
  return fired.load(std::memory_order_relaxed);
}

void Lif::backward_rows(std::int64_t count, const LifConfig& config,
                        const float* go, const float* u_pre,
                        const float* carry, float* grad_input,
                        float* carry_out) {
  const float beta = config.beta;
  const float theta = config.threshold;
  const Surrogate sg = config.surrogate;
  parallel_for(0, count, kElemGrain, [&](std::int64_t b, std::int64_t e) {
    for (std::int64_t i = b; i < e; ++i) {
      const float c = carry ? carry[i] : 0.0f;
      const float spike_path = go[i] - theta * c;
      const float gi = c + spike_path * sg.grad(u_pre[i] - theta);
      grad_input[i] = gi;
      carry_out[i] = beta * gi;  // c[t-1] = beta * dL/du_pre[t]
    }
  });
}

Tensor Lif::forward_step(const Tensor& input) {
  ST_PROF_SCOPE("lif.fwd");
  // A fresh window's first step never reads the membrane, so a plane of the
  // right shape left by an earlier window is reused as it is.
  const unsigned char fresh = has_membrane_ ? 0 : 1;
  if (fresh) {
    if (!membrane_.same_shape(input)) membrane_ = Tensor(input.shape());
  } else {
    ST_REQUIRE(membrane_.same_shape(input),
               "LIF input shape changed mid-window");
  }

  Tensor spikes(input.shape());
  Tensor u_pre = training_ ? Tensor(input.shape()) : Tensor();
  float* m = membrane_.data();
  const std::int64_t n_fired =
      step_rows(input.data(), 1, input.numel(), &m, &fresh, config_.beta,
                config_.threshold, spikes.data(),
                training_ ? u_pre.data() : nullptr);
  has_membrane_ = true;
  window_spikes_ += n_fired;
  window_elements_ += input.numel();
  if (obs::metrics_enabled()) {
    static const obs::MetricId kSpikes = obs::counter("lif.spikes");
    obs::add(kSpikes, n_fired);
  }
  if (training_) pre_cache_.push_back(std::move(u_pre));
  return spikes;
}

void Lif::begin_backward(bool) { has_grad_carry_ = false; }

Tensor Lif::backward_step(const Tensor& grad_output) {
  ST_PROF_SCOPE("lif.bwd");
  ST_REQUIRE(!pre_cache_.empty(),
             "LIF backward without matching cached forward step");
  Tensor u_pre = std::move(pre_cache_.back());
  pre_cache_.pop_back();
  ST_REQUIRE(grad_output.same_shape(u_pre),
             "LIF backward gradient shape mismatch");

  // The carry is updated in place; the window's last step reads none.
  if (!grad_carry_.same_shape(u_pre)) grad_carry_ = Tensor(u_pre.shape());
  Tensor grad_input(u_pre.shape());
  backward_rows(u_pre.numel(), config_, grad_output.data(), u_pre.data(),
                has_grad_carry_ ? grad_carry_.data() : nullptr,
                grad_input.data(), grad_carry_.data());
  has_grad_carry_ = true;
  return grad_input;
}

}  // namespace spiketune::snn
