// SynthSvhn: procedural stand-in for the Street View House Numbers dataset.
//
// The paper trains on SVHN (32x32 RGB crops of house numbers photographed in
// the wild).  SVHN itself cannot be downloaded in this environment, so
// SynthSvhn generates crops with the properties the experiments depend on:
//   * a 10-class digit recognition task on 3-channel images,
//   * natural-image-like nuisance: random foreground/background colours with
//     bounded contrast, brightness gradients, per-pixel sensor noise,
//     sub-pixel position/scale/shear jitter,
//   * SVHN's signature clutter: partial distractor digits intruding from the
//     left/right borders,
//   * intensity statistics that drive input-layer spike rates under rate
//     coding (pixel values stay in [0, 1]).
// Generation is pure per (seed, split, index): the i-th example is identical
// across runs, machines, and access orders.
#pragma once

#include <cstdint>

#include "core/rng.h"
#include "data/dataset.h"

namespace spiketune::data {

struct SynthSvhnConfig {
  std::int64_t num_examples = 2048;
  std::int64_t image_size = 32;   // square images, paper uses 32
  std::uint64_t seed = 0xda7a5e7;
  bool distractors = true;        // SVHN-style neighbour digits at borders
  float noise_stddev = 0.04f;     // sensor noise in [0,1] pixel units
};

class SynthSvhn final : public Dataset {
 public:
  explicit SynthSvhn(SynthSvhnConfig config);

  std::int64_t size() const override { return config_.num_examples; }
  Example get(std::int64_t i) const override;
  int num_classes() const override { return 10; }
  Shape image_shape() const override {
    return Shape{3, config_.image_size, config_.image_size};
  }

  const SynthSvhnConfig& config() const { return config_; }

 private:
  /// Renders `digit` into `image` [3,S,S] with the given glyph-space
  /// transform and colours; alpha-composites over existing content.
  void render_digit(Tensor& image, int digit, float center_x, float center_y,
                    float scale, float shear, const float fg[3]) const;

  SynthSvhnConfig config_;
};

/// Canonical train/test split helper: two independent generators whose
/// streams never overlap (split folds into the seed).
struct SynthSvhnSplits {
  SynthSvhn train;
  SynthSvhn test;
};
SynthSvhnSplits make_synth_svhn_splits(std::int64_t train_size,
                                       std::int64_t test_size,
                                       std::int64_t image_size,
                                       std::uint64_t seed);

}  // namespace spiketune::data
