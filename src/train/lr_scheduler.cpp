#include "train/lr_scheduler.h"

#include <algorithm>
#include <cmath>

#include "core/error.h"

namespace spiketune::train {

CosineAnnealingLr::CosineAnnealingLr(double base_lr, std::int64_t t_max,
                                     double eta_min)
    : base_lr_(base_lr), t_max_(t_max), eta_min_(eta_min) {
  ST_REQUIRE(base_lr > 0.0, "base_lr must be positive");
  ST_REQUIRE(t_max > 0, "t_max must be positive");
  ST_REQUIRE(eta_min >= 0.0 && eta_min <= base_lr,
             "eta_min must be in [0, base_lr]");
}

double CosineAnnealingLr::lr_at(std::int64_t epoch) const {
  ST_REQUIRE(epoch >= 0, "epoch must be non-negative");
  // Hold at eta_min after the annealing window.
  const std::int64_t e = std::min(epoch, t_max_);
  const double pi = 3.14159265358979323846;
  const double cosine =
      std::cos(pi * static_cast<double>(e) / static_cast<double>(t_max_));
  return eta_min_ + (base_lr_ - eta_min_) * 0.5 * (1.0 + cosine);
}

}  // namespace spiketune::train
