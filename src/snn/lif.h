// Leaky integrate-and-fire neuron layer (paper Eq. 1-2).
//
// Per-timestep dynamics with reset-by-subtraction, matching snnTorch's
// `Leaky` neuron and the paper's formulation:
//
//   u_pre[t]  = beta * u_post[t-1] + I[t]        (decay + input current)
//   s[t]      = H(u_pre[t] - theta)              (Heaviside spike)
//   u_post[t] = u_pre[t] - s[t] * theta          (subtractive reset)
//
// BPTT backward (derived by differentiating the recurrence; c[t] denotes
// dL/du_post[t] carried backwards, g_s[t] the gradient arriving from the
// next layer at step t, and sg' the surrogate derivative at u_pre - theta):
//
//   dL/du_pre[t] = c[t] + (g_s[t] - theta * c[t]) * sg'(u_pre[t] - theta)
//   dL/dI[t]     = dL/du_pre[t]                   (to the upstream layer)
//   c[t-1]       = beta * dL/du_pre[t]
//
// The reset path stays in the gradient (the `- theta * c[t]` term), as in
// snnTorch's default.
//
// Both are written once, as the static bodies step_rows and backward_rows;
// infer::InferenceSession calls step_rows too.
#pragma once

#include "snn/layers.h"
#include "snn/surrogate.h"

namespace spiketune::snn {

struct LifConfig {
  float beta = 0.25f;       // membrane leak (paper default)
  float threshold = 1.0f;   // firing threshold theta (paper default)
  Surrogate surrogate = Surrogate::fast_sigmoid(25.0f);
};

class Lif final : public Layer {
 public:
  explicit Lif(LifConfig config);

  void begin_window(std::int64_t batch_size, bool training) override;
  Tensor forward_step(const Tensor& input) override;
  void begin_backward(bool input_grad) override;
  Tensor backward_step(const Tensor& grad_output) override;

  /// Advances `n` rows of `row_elems` neurons one step, row s updating its
  /// membrane plane m_rows[s] in place (a row with fresh[s] set has no
  /// history, and its plane is not read).  Per element
  ///   u = in[i] (+ beta * m unless fresh),  out[i] = u > theta,
  ///   u_pre[i] = u,  m = u, less theta on a spike.
  /// `u_pre` (the pre-reset potential training caches) may be null.
  /// Elementwise, so the bits do not depend on the thread count; returns the
  /// exact spike count.
  static std::int64_t step_rows(const float* in, std::int64_t n,
                                std::int64_t row_elems, float* const* m_rows,
                                const unsigned char* fresh, float beta,
                                float theta, float* out,
                                float* u_pre = nullptr);

  /// Surrogate backward over `count` elements, with c = carry[i] (0 when
  /// carry is null):
  ///   gi[i] = c + (go[i] - theta * c) * sg'(u_pre[i] - theta),
  ///   carry_out[i] = beta * gi[i]  (carry_out may alias carry).
  static void backward_rows(std::int64_t count, const LifConfig& config,
                            const float* go, const float* u_pre,
                            const float* carry, float* grad_input,
                            float* carry_out);

  Shape output_shape(const Shape& input) const override { return input; }
  bool spiking() const override { return true; }
  std::string name() const override { return "lif"; }

  const LifConfig& config() const { return config_; }
  /// Spikes emitted across all forward steps since begin_window.
  std::int64_t window_spike_count() const { return window_spikes_; }
  /// Output elements produced across all forward steps since begin_window.
  std::int64_t window_element_count() const { return window_elements_; }
  /// Membrane potential u_post after the latest forward step ([N, ...]);
  /// exposed for bit-exactness tests, like StreamState::membrane_arena().
  const Tensor& membrane() const { return membrane_; }

 private:
  LifConfig config_;
  bool training_ = false;
  Tensor membrane_;                 // u_post of the latest step, in place
  bool has_membrane_ = false;
  std::vector<Tensor> pre_cache_;   // u_pre per step (training only)
  Tensor grad_carry_;               // c[t] during the reverse sweep
  bool has_grad_carry_ = false;
  std::int64_t window_spikes_ = 0;
  std::int64_t window_elements_ = 0;
};

}  // namespace spiketune::snn
