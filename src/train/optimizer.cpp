#include "train/optimizer.h"

#include <cmath>

#include "core/error.h"

namespace spiketune::train {

namespace {
// Export/import for one named list of per-parameter state tensors
// ("<prefix><label>.<i>").  Import validates count and shapes so a
// checkpoint from a different topology fails loudly.
void export_tensor_list(const std::string& prefix, const std::string& label,
                        const std::vector<Tensor>& tensors,
                        std::vector<NamedTensor>& out) {
  for (std::size_t i = 0; i < tensors.size(); ++i)
    out.push_back(
        NamedTensor{prefix + label + "." + std::to_string(i), tensors[i]});
}

void import_tensor_list(const std::string& prefix, const std::string& label,
                        std::vector<Tensor>& tensors,
                        const std::vector<NamedTensor>& records) {
  const std::string full = prefix + label + ".";
  std::size_t next = 0;
  for (const auto& rec : records) {
    if (rec.name.compare(0, full.size(), full) != 0) continue;
    ST_REQUIRE(next < tensors.size(),
               "optimizer state '" + rec.name + "' has no matching slot");
    ST_REQUIRE(rec.name == full + std::to_string(next),
               "optimizer state out of order at '" + rec.name + "'");
    ST_REQUIRE(rec.value.shape() == tensors[next].shape(),
               "optimizer state shape mismatch for " + rec.name + ": " +
                   rec.value.shape().str() + " vs " +
                   tensors[next].shape().str());
    tensors[next] = rec.value;
    ++next;
  }
  ST_REQUIRE(next == tensors.size(),
             "optimizer state for '" + label + "' is incomplete (" +
                 std::to_string(next) + "/" + std::to_string(tensors.size()) +
                 " records)");
}
}  // namespace

Adam::Adam(std::vector<snn::Param*> params, double lr, double beta1,
           double beta2, double eps, double weight_decay)
    : params_(std::move(params)),
      lr_(lr),
      beta1_(beta1),
      beta2_(beta2),
      eps_(eps),
      weight_decay_(weight_decay) {
  ST_REQUIRE(!params_.empty(), "optimizer needs at least one parameter");
  ST_REQUIRE(lr > 0.0, "learning rate must be positive");
  for (auto* p : params_) ST_REQUIRE(p != nullptr, "null parameter");
  ST_REQUIRE(beta1 >= 0.0 && beta1 < 1.0 && beta2 >= 0.0 && beta2 < 1.0,
             "Adam betas must be in [0, 1)");
  ST_REQUIRE(eps > 0.0, "Adam eps must be positive");
  m_.reserve(params_.size());
  v_.reserve(params_.size());
  for (auto* p : params_) {
    m_.emplace_back(p->value.shape());
    v_.emplace_back(p->value.shape());
  }
}

void Adam::zero_grad() {
  for (auto* p : params_) p->zero_grad();
}

void Adam::set_lr(double lr) {
  ST_REQUIRE(lr > 0.0, "learning rate must be positive");
  lr_ = lr;
}

void Adam::set_step_count(std::int64_t t) {
  ST_REQUIRE(t >= 0, "Adam step count must be non-negative");
  t_ = t;
}

void Adam::export_state(const std::string& prefix,
                        std::vector<NamedTensor>& out) const {
  export_tensor_list(prefix, "adam.m", m_, out);
  export_tensor_list(prefix, "adam.v", v_, out);
}

void Adam::import_state(const std::string& prefix,
                        const std::vector<NamedTensor>& records) {
  import_tensor_list(prefix, "adam.m", m_, records);
  import_tensor_list(prefix, "adam.v", v_, records);
}

void Adam::step() {
  ++t_;
  const double bc1 = 1.0 - std::pow(beta1_, static_cast<double>(t_));
  const double bc2 = 1.0 - std::pow(beta2_, static_cast<double>(t_));
  const auto lr = static_cast<float>(lr_ / bc1);
  const auto b1 = static_cast<float>(beta1_);
  const auto b2 = static_cast<float>(beta2_);
  const auto eps = static_cast<float>(eps_);
  const auto wd = static_cast<float>(weight_decay_);
  const auto inv_sqrt_bc2 = static_cast<float>(1.0 / std::sqrt(bc2));

  for (std::size_t pi = 0; pi < params_.size(); ++pi) {
    snn::Param& p = *params_[pi];
    float* w = p.value.data();
    const float* g = p.grad.data();
    float* m = m_[pi].data();
    float* v = v_[pi].data();
    for (std::int64_t i = 0, n = p.numel(); i < n; ++i) {
      const float grad = g[i] + wd * w[i];
      m[i] = b1 * m[i] + (1.0f - b1) * grad;
      v[i] = b2 * v[i] + (1.0f - b2) * grad * grad;
      w[i] -= lr * m[i] / (std::sqrt(v[i]) * inv_sqrt_bc2 + eps);
    }
  }
}

}  // namespace spiketune::train
