// Adam (Kingma & Ba) with bias correction over an snn::Param set: the
// paper's training setup and the one optimizer every driver uses.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/serialize.h"
#include "snn/layers.h"

namespace spiketune::train {

class Adam {
 public:
  Adam(std::vector<snn::Param*> params, double lr, double beta1 = 0.9,
       double beta2 = 0.999, double eps = 1e-8, double weight_decay = 0.0);

  /// Applies one update from the accumulated gradients.
  void step();

  void zero_grad();
  void set_lr(double lr);
  double lr() const { return lr_; }

  /// Number of step() calls so far (the resume-relevant scalar state; the
  /// bias correction depends on it).
  std::int64_t step_count() const { return t_; }
  void set_step_count(std::int64_t t);

  /// Appends the moments as named records ("<prefix>adam.m.<i>" and
  /// "<prefix>adam.v.<i>"), for crash-safe training checkpoints.
  void export_state(const std::string& prefix,
                    std::vector<NamedTensor>& out) const;
  /// Restores state written by export_state (records not under `prefix` are
  /// ignored).  Throws InvalidArgument on name/shape/count mismatch.
  void import_state(const std::string& prefix,
                    const std::vector<NamedTensor>& records);

 private:
  std::vector<snn::Param*> params_;
  double lr_;
  double beta1_, beta2_, eps_, weight_decay_;
  std::vector<Tensor> m_, v_;
  std::int64_t t_ = 0;
};

}  // namespace spiketune::train
