// Recurrent leaky integrate-and-fire layer (snnTorch's RLeaky).
//
// Extends the feed-forward LIF with an all-to-all recurrent synapse: the
// layer's own previous spikes feed back as additional current,
//
//   u_pre[t]  = beta * u_post[t-1] + I[t] + V s[t-1]
//   s[t]      = H(u_pre[t] - theta)
//   u_post[t] = u_pre[t] - s[t] * theta
//
// where V is a learned [N, N] recurrent weight matrix.  BPTT carries two
// gradients backwards: the membrane carry (as in Lif) and the gradient
// flowing into the previous step's spikes through V, which joins that
// step's incoming spike gradient.  Implements the paper's "future work"
// direction of richer neuron models within the same training stack.
//
// The neuron is Lif's: V s[t-1] enters Lif::step_rows as its `extra`
// current, so u_pre sums as (I + beta * u_post) + V s[t-1], and the
// recurrent spike gradient enters Lif::backward_rows as `grad_rec`.
#pragma once

#include "core/rng.h"
#include "snn/lif.h"

namespace spiketune::snn {

struct RlifConfig {
  std::int64_t features = 0;  // layer width N (flat [batch, N] inputs)
  LifConfig lif;
  std::uint64_t weight_seed = 0x5eedbeefULL;
};

class Rlif final : public Layer {
 public:
  explicit Rlif(RlifConfig config);

  void begin_window(std::int64_t batch_size, bool training) override;
  Tensor forward_step(const Tensor& input) override;
  void begin_backward() override;
  Tensor backward_step(const Tensor& grad_output) override;

  std::vector<Param*> params() override { return {&recurrent_}; }
  Shape output_shape(const Shape& input) const override;
  bool spiking() const override { return true; }
  std::string name() const override { return "rlif"; }

  const RlifConfig& config() const { return config_; }
  Param& recurrent() { return recurrent_; }

 private:
  RlifConfig config_;
  Param recurrent_;  // V: [N, N]
  bool training_ = false;

  Tensor membrane_;       // u_post of the latest step, in place
  Tensor prev_spikes_;    // s of the latest step
  bool has_state_ = false;

  struct StepCache {
    Tensor u_pre;
    Tensor prev_spikes;   // spikes that fed back into this step
    bool had_prev = false;
  };
  std::vector<StepCache> cache_;

  Tensor grad_carry_;        // dL/du_post carried backwards, in place
  Tensor grad_spike_carry_;  // dL/ds[t-1] via the recurrent synapse
  bool has_carry_ = false;
};

}  // namespace spiketune::snn
