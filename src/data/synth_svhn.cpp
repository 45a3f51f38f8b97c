#include "data/synth_svhn.h"

#include <algorithm>
#include <cmath>

#include "core/error.h"
#include "data/glyphs.h"

namespace spiketune::data {

namespace {
/// Lower bound on the |fg - bg| luminance gap of every crop.
constexpr float kMinContrast = 0.35f;

float luminance(const float rgb[3]) {
  return 0.299f * rgb[0] + 0.587f * rgb[1] + 0.114f * rgb[2];
}
}  // namespace

SynthSvhn::SynthSvhn(SynthSvhnConfig config) : config_(config) {
  ST_REQUIRE(config_.num_examples > 0, "num_examples must be positive");
  ST_REQUIRE(config_.image_size >= 8, "image_size must be at least 8");
  ST_REQUIRE(config_.noise_stddev >= 0.0f, "noise_stddev must be >= 0");
}

void SynthSvhn::render_digit(Tensor& image, int digit, float center_x,
                             float center_y, float scale, float shear,
                             const float fg[3]) const {
  const std::int64_t s = config_.image_size;
  const float half_w = kGlyphWidth * 0.5f;
  const float half_h = kGlyphHeight * 0.5f;
  float* p = image.data();
  const std::int64_t plane = s * s;
  // Iterate destination pixels; inverse-map into glyph space.
  for (std::int64_t y = 0; y < s; ++y) {
    for (std::int64_t x = 0; x < s; ++x) {
      const float dy = (static_cast<float>(y) + 0.5f - center_y) / scale;
      const float dx =
          (static_cast<float>(x) + 0.5f - center_x) / scale - shear * dy;
      const float u = dx + half_w;
      const float v = dy + half_h;
      const float alpha = glyph_sample(digit, u, v);
      if (alpha <= 0.0f) continue;
      const std::int64_t idx = y * s + x;
      for (int c = 0; c < 3; ++c) {
        float& px = p[c * plane + idx];
        px = px * (1.0f - alpha) + fg[c] * alpha;
      }
    }
  }
}

Example SynthSvhn::get(std::int64_t i) const {
  ST_REQUIRE(i >= 0 && i < size(), "SynthSvhn index out of range");
  // One decorrelated RNG stream per example: access order cannot matter.
  Rng rng = Rng(config_.seed).fork(static_cast<std::uint64_t>(i));

  const std::int64_t s = config_.image_size;
  const int label = static_cast<int>(rng.uniform_int(10));

  // Colours: draw bg, then draw fg until the contrast constraint holds.
  float bg[3], fg[3];
  for (float& c : bg) c = static_cast<float>(rng.uniform(0.05, 0.95));
  do {
    for (float& c : fg) c = static_cast<float>(rng.uniform(0.0, 1.0));
  } while (std::fabs(luminance(fg) - luminance(bg)) < kMinContrast);

  Tensor image(Shape{3, s, s});
  const std::int64_t plane = s * s;
  float* p = image.data();

  // Background with a mild horizontal+vertical brightness gradient, as in
  // photographs of facades.
  const float gx = static_cast<float>(rng.uniform(-0.15, 0.15));
  const float gy = static_cast<float>(rng.uniform(-0.15, 0.15));
  for (std::int64_t y = 0; y < s; ++y) {
    const float fy = static_cast<float>(y) / static_cast<float>(s - 1) - 0.5f;
    for (std::int64_t x = 0; x < s; ++x) {
      const float fx =
          static_cast<float>(x) / static_cast<float>(s - 1) - 0.5f;
      const float shade = 1.0f + gx * fx + gy * fy;
      const std::int64_t idx = y * s + x;
      for (int c = 0; c < 3; ++c) p[c * plane + idx] = bg[c] * shade;
    }
  }

  // Geometry of the main digit: fills most of the crop like SVHN's
  // "cropped digit" format, with jitter.
  const float base_scale =
      static_cast<float>(s) / static_cast<float>(kGlyphHeight);
  const float scale =
      base_scale * static_cast<float>(rng.uniform(0.55, 0.85));
  const float cx = static_cast<float>(s) * 0.5f +
                   static_cast<float>(rng.uniform(-0.08, 0.08)) * s;
  const float cy = static_cast<float>(s) * 0.5f +
                   static_cast<float>(rng.uniform(-0.08, 0.08)) * s;
  const float shear = static_cast<float>(rng.uniform(-0.15, 0.15));

  // SVHN clutter: partial neighbour digits poking in from the sides.
  if (config_.distractors) {
    const int n_distract = static_cast<int>(rng.uniform_int(3));  // 0..2
    for (int d = 0; d < n_distract; ++d) {
      const int ddigit = static_cast<int>(rng.uniform_int(10));
      const bool left = rng.bernoulli(0.5);
      const float dscale = scale * static_cast<float>(rng.uniform(0.8, 1.0));
      const float offset = dscale * kGlyphWidth *
                           static_cast<float>(rng.uniform(0.55, 0.8));
      const float dx = left ? -offset : (static_cast<float>(s) + offset -
                                         dscale * kGlyphWidth * 0.35f);
      float dfg[3];
      for (int c = 0; c < 3; ++c)
        dfg[c] = std::clamp(
            fg[c] + static_cast<float>(rng.uniform(-0.2, 0.2)), 0.0f, 1.0f);
      render_digit(image, ddigit, left ? cx + dx : dx, cy, dscale,
                   static_cast<float>(rng.uniform(-0.1, 0.1)), dfg);
    }
  }

  render_digit(image, label, cx, cy, scale, shear, fg);

  // Sensor noise + clamp to [0, 1].
  if (config_.noise_stddev > 0.0f) {
    for (std::int64_t k = 0; k < image.numel(); ++k)
      p[k] += static_cast<float>(rng.normal(0.0, config_.noise_stddev));
  }
  for (std::int64_t k = 0; k < image.numel(); ++k)
    p[k] = std::clamp(p[k], 0.0f, 1.0f);

  return Example{std::move(image), label};
}

SynthSvhnSplits make_synth_svhn_splits(std::int64_t train_size,
                                       std::int64_t test_size,
                                       std::int64_t image_size,
                                       std::uint64_t seed) {
  SynthSvhnConfig train_cfg;
  train_cfg.num_examples = train_size;
  train_cfg.image_size = image_size;
  train_cfg.seed = SplitMix64(seed ^ 0x7261696eULL).next();  // "rain"
  SynthSvhnConfig test_cfg = train_cfg;
  test_cfg.num_examples = test_size;
  test_cfg.seed = SplitMix64(seed ^ 0x74657374ULL).next();  // "test"
  return SynthSvhnSplits{SynthSvhn(train_cfg), SynthSvhn(test_cfg)};
}

}  // namespace spiketune::data
