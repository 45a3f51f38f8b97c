// The learning-rate schedule.
//
// The paper trains with cosine annealing (Loshchilov & Hutter) over the
// epoch budget; CosineAnnealingLr reproduces PyTorch's CosineAnnealingLR
// semantics (T_max in epochs, optional eta_min).
#pragma once

#include <cstdint>

namespace spiketune::train {

/// lr(e) = eta_min + (base - eta_min) * (1 + cos(pi * e / t_max)) / 2,
/// holding at eta_min for e > t_max.
class CosineAnnealingLr {
 public:
  CosineAnnealingLr(double base_lr, std::int64_t t_max, double eta_min = 0.0);

  /// Learning rate for a (0-based) epoch.
  double lr_at(std::int64_t epoch) const;

 private:
  double base_lr_;
  std::int64_t t_max_;
  double eta_min_;
};

}  // namespace spiketune::train
