// Tests for glyphs, SynthSvhn, dataset wrappers, and the data loader.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "core/error.h"
#include "data/dataloader.h"
#include "data/glyphs.h"
#include "data/synth_svhn.h"

namespace spiketune::data {
namespace {

TEST(Glyphs, AllDigitsHaveInk) {
  for (int d = 0; d <= 9; ++d) {
    int ink = 0;
    for (auto v : glyph(d)) ink += v;
    EXPECT_GT(ink, 5) << "digit " << d;
    EXPECT_LT(ink, kGlyphWidth * kGlyphHeight) << "digit " << d;
  }
}

TEST(Glyphs, DigitsAreDistinct) {
  for (int a = 0; a <= 9; ++a)
    for (int b = a + 1; b <= 9; ++b) EXPECT_NE(glyph(a), glyph(b));
}

TEST(Glyphs, OutOfRangeThrows) {
  EXPECT_THROW(glyph(-1), InvalidArgument);
  EXPECT_THROW(glyph(10), InvalidArgument);
}

TEST(Glyphs, SampleInterpolatesAndClampsOutside) {
  // Center of an ink texel reads 1; far outside reads 0.
  EXPECT_FLOAT_EQ(glyph_sample(1, 2.5f, 3.5f), 1.0f);  // digit 1 center line
  EXPECT_FLOAT_EQ(glyph_sample(1, -5.0f, 0.0f), 0.0f);
  EXPECT_FLOAT_EQ(glyph_sample(1, 0.0f, 100.0f), 0.0f);
  // Between ink and empty -> fractional.
  const float v = glyph_sample(1, 3.0f, 3.5f);
  EXPECT_GT(v, 0.0f);
  EXPECT_LT(v, 1.0f);
}

TEST(SynthSvhn, ShapeAndRange) {
  SynthSvhnConfig cfg;
  cfg.num_examples = 16;
  cfg.image_size = 16;
  SynthSvhn ds(cfg);
  EXPECT_EQ(ds.size(), 16);
  EXPECT_EQ(ds.num_classes(), 10);
  EXPECT_EQ(ds.image_shape(), Shape({3, 16, 16}));
  for (std::int64_t i = 0; i < ds.size(); ++i) {
    const Example ex = ds.get(i);
    EXPECT_GE(ex.label, 0);
    EXPECT_LT(ex.label, 10);
    const float* p = ex.image.data();
    const auto [lo, hi] = std::minmax_element(p, p + ex.image.numel());
    EXPECT_GE(*lo, 0.0f);
    EXPECT_LE(*hi, 1.0f);
  }
}

TEST(SynthSvhn, DeterministicPerIndex) {
  SynthSvhnConfig cfg;
  cfg.num_examples = 8;
  cfg.image_size = 12;
  SynthSvhn a(cfg);
  SynthSvhn b(cfg);
  // Access in different orders; examples must match exactly.
  for (std::int64_t i = 7; i >= 0; --i) {
    const Example ea = a.get(i);
    const Example eb = b.get(7 - (7 - i));
    EXPECT_EQ(ea.label, eb.label);
    for (std::int64_t k = 0; k < ea.image.numel(); ++k)
      EXPECT_EQ(ea.image[k], eb.image[k]);
  }
}

TEST(SynthSvhn, SeedChangesContent) {
  SynthSvhnConfig a_cfg;
  a_cfg.num_examples = 4;
  a_cfg.image_size = 12;
  SynthSvhnConfig b_cfg = a_cfg;
  b_cfg.seed = a_cfg.seed + 1;
  SynthSvhn a(a_cfg), b(b_cfg);
  int diffs = 0;
  for (std::int64_t i = 0; i < 4; ++i) {
    const Example ea = a.get(i), eb = b.get(i);
    for (std::int64_t k = 0; k < ea.image.numel(); ++k)
      if (ea.image[k] != eb.image[k]) {
        ++diffs;
        break;
      }
  }
  EXPECT_GT(diffs, 0);
}

TEST(SynthSvhn, LabelsRoughlyBalanced) {
  SynthSvhnConfig cfg;
  cfg.num_examples = 1000;
  cfg.image_size = 12;
  SynthSvhn ds(cfg);
  std::array<int, 10> hist{};
  for (std::int64_t i = 0; i < ds.size(); ++i) ++hist[ds.get(i).label];
  for (int h : hist) EXPECT_GT(h, 50);  // each class well represented
}

TEST(SynthSvhn, DigitChangesPixels) {
  // Same seed, different labels should produce meaningfully different
  // pairwise image content across the dataset (digit is drawn per-index).
  SynthSvhnConfig cfg;
  cfg.num_examples = 32;
  cfg.image_size = 16;
  cfg.distractors = false;
  cfg.noise_stddev = 0.0f;
  SynthSvhn ds(cfg);
  const Example a = ds.get(0);
  const Example b = ds.get(1);
  float diff = 0.0f;
  for (std::int64_t k = 0; k < a.image.numel(); ++k)
    diff += std::abs(a.image[k] - b.image[k]);
  EXPECT_GT(diff, 1.0f);
}

TEST(SynthSvhnSplits, TrainTestDisjointStreams) {
  auto splits = make_synth_svhn_splits(16, 16, 12, 77);
  int identical = 0;
  for (std::int64_t i = 0; i < 16; ++i) {
    const Example tr = splits.train.get(i);
    const Example te = splits.test.get(i);
    bool same = true;
    for (std::int64_t k = 0; k < tr.image.numel(); ++k)
      if (tr.image[k] != te.image[k]) {
        same = false;
        break;
      }
    identical += same;
  }
  EXPECT_EQ(identical, 0);
}

TEST(InMemoryDataset, MaterializesAndValidates) {
  SynthSvhnConfig cfg;
  cfg.num_examples = 8;
  cfg.image_size = 12;
  SynthSvhn src(cfg);
  InMemoryDataset mem = InMemoryDataset::from(src);
  EXPECT_EQ(mem.size(), 8);
  for (std::int64_t i = 0; i < 8; ++i)
    EXPECT_EQ(mem.get(i).label, src.get(i).label);
  EXPECT_THROW(mem.get(8), InvalidArgument);
}

TEST(NormalizedDataset, StandardizesChannels) {
  SynthSvhnConfig cfg;
  cfg.num_examples = 8;
  cfg.image_size = 12;
  auto base = std::make_shared<InMemoryDataset>(
      InMemoryDataset::from(SynthSvhn(cfg)));
  NormalizedDataset norm(base, {0.5f, 0.5f, 0.5f}, {0.25f, 0.25f, 0.25f});
  const Example raw = base->get(0);
  const Example n = norm.get(0);
  EXPECT_NEAR(n.image[0], (raw.image[0] - 0.5f) / 0.25f, 1e-6f);
}

TEST(NormalizedDataset, RejectsBadArity) {
  SynthSvhnConfig cfg;
  cfg.num_examples = 2;
  cfg.image_size = 12;
  auto base = std::make_shared<InMemoryDataset>(
      InMemoryDataset::from(SynthSvhn(cfg)));
  EXPECT_THROW(NormalizedDataset(base, {0.5f}, {0.25f}), InvalidArgument);
  EXPECT_THROW(NormalizedDataset(base, {0.5f, 0.5f, 0.5f}, {1, 1, 0}),
               InvalidArgument);
}

TEST(ChannelMeans, InUnitRange) {
  SynthSvhnConfig cfg;
  cfg.num_examples = 32;
  cfg.image_size = 12;
  SynthSvhn ds(cfg);
  const auto means = channel_means(ds);
  ASSERT_EQ(means.size(), 3u);
  for (float m : means) {
    EXPECT_GT(m, 0.1f);
    EXPECT_LT(m, 0.9f);
  }
}

TEST(DataLoader, BatchesCoverDatasetOnce) {
  SynthSvhnConfig cfg;
  cfg.num_examples = 10;
  cfg.image_size = 12;
  auto ds = std::make_shared<InMemoryDataset>(
      InMemoryDataset::from(SynthSvhn(cfg)));
  DataLoader loader(ds, 4, /*shuffle=*/false);
  EXPECT_EQ(loader.num_batches(), 3);
  Batch b;
  std::int64_t total = 0;
  int batches = 0;
  while (loader.next(b)) {
    total += b.batch_size();
    ++batches;
    EXPECT_EQ(b.images.shape()[0], b.batch_size());
  }
  EXPECT_EQ(total, 10);
  EXPECT_EQ(batches, 3);
}

TEST(DataLoader, DropLast) {
  SynthSvhnConfig cfg;
  cfg.num_examples = 10;
  cfg.image_size = 12;
  auto ds = std::make_shared<InMemoryDataset>(
      InMemoryDataset::from(SynthSvhn(cfg)));
  DataLoader loader(ds, 4, false, 0, /*drop_last=*/true);
  EXPECT_EQ(loader.num_batches(), 2);
  Batch b;
  std::int64_t total = 0;
  while (loader.next(b)) {
    EXPECT_EQ(b.batch_size(), 4);
    total += b.batch_size();
  }
  EXPECT_EQ(total, 8);
}

TEST(DataLoader, ShuffleIsPermutationAndEpochDependent) {
  SynthSvhnConfig cfg;
  cfg.num_examples = 32;
  cfg.image_size = 12;
  auto ds = std::make_shared<InMemoryDataset>(
      InMemoryDataset::from(SynthSvhn(cfg)));

  auto labels_of_epoch = [&](DataLoader& loader, std::int64_t epoch) {
    loader.start_epoch(epoch);
    std::vector<int> labels;
    Batch b;
    while (loader.next(b))
      labels.insert(labels.end(), b.labels.begin(), b.labels.end());
    return labels;
  };

  DataLoader loader(ds, 8, /*shuffle=*/true, 42);
  const auto e0 = labels_of_epoch(loader, 0);
  const auto e1 = labels_of_epoch(loader, 1);
  EXPECT_EQ(e0.size(), 32u);
  // Same multiset of labels...
  auto s0 = e0, s1 = e1;
  std::sort(s0.begin(), s0.end());
  std::sort(s1.begin(), s1.end());
  EXPECT_EQ(s0, s1);
  // ...but (with overwhelming probability) a different order.
  EXPECT_NE(e0, e1);
  // And the same epoch is reproducible.
  DataLoader loader2(ds, 8, true, 42);
  EXPECT_EQ(labels_of_epoch(loader2, 0), e0);
}

TEST(MakeBatch, PacksImagesContiguously) {
  SynthSvhnConfig cfg;
  cfg.num_examples = 4;
  cfg.image_size = 12;
  SynthSvhn ds(cfg);
  const Batch b = make_batch(ds, {2, 0});
  EXPECT_EQ(b.images.shape(), Shape({2, 3, 12, 12}));
  const Example e2 = ds.get(2);
  for (std::int64_t k = 0; k < e2.image.numel(); ++k)
    EXPECT_EQ(b.images[k], e2.image[k]);
  EXPECT_EQ(b.labels[0], ds.get(2).label);
  EXPECT_EQ(b.labels[1], ds.get(0).label);
}

}  // namespace
}  // namespace spiketune::data
