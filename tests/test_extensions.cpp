// Tests for the extension modules: checkpoint serialization, weight
// quantization, and the SynthDigits dataset.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>

#include "core/error.h"
#include "core/serialize.h"
#include "data/synth_digits.h"
#include "snn/checkpoint.h"
#include "snn/model_zoo.h"
#include "snn/quantize.h"
#include "tensor/tensor_ops.h"

namespace spiketune {
namespace {

std::string temp_path(const char* name) {
  return ::testing::TempDir() + "/" + name;
}

TEST(Serialize, RoundTripsTensors) {
  const std::string path = temp_path("ckpt_roundtrip.bin");
  Rng rng(1);
  std::vector<NamedTensor> records;
  records.push_back({"a", Tensor::uniform(Shape{3, 4}, rng, -1.0f, 1.0f)});
  records.push_back({"b.weight", Tensor::uniform(Shape{7}, rng, 0.0f, 2.0f)});
  records.push_back({"empty", Tensor(Shape{0})});
  save_checkpoint(path, records);

  const auto loaded = load_checkpoint(path);
  ASSERT_EQ(loaded.size(), 3u);
  for (std::size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(loaded[i].name, records[i].name);
    ASSERT_EQ(loaded[i].value.shape(), records[i].value.shape());
    for (std::int64_t k = 0; k < records[i].value.numel(); ++k)
      EXPECT_EQ(loaded[i].value[k], records[i].value[k]);
  }
  std::remove(path.c_str());
}

TEST(Serialize, RejectsGarbage) {
  const std::string path = temp_path("ckpt_garbage.bin");
  {
    std::ofstream out(path, std::ios::binary);
    out << "this is not a checkpoint at all";
  }
  EXPECT_THROW(load_checkpoint(path), InvalidArgument);
  std::remove(path.c_str());
}

TEST(Serialize, RejectsTruncation) {
  const std::string path = temp_path("ckpt_trunc.bin");
  Rng rng(2);
  save_checkpoint(path,
                  {{"w", Tensor::uniform(Shape{64}, rng, -1.0f, 1.0f)}});
  // Truncate the payload.
  {
    std::ifstream in(path, std::ios::binary);
    std::string content((std::istreambuf_iterator<char>(in)),
                        std::istreambuf_iterator<char>());
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(content.data(),
              static_cast<std::streamsize>(content.size() / 2));
  }
  EXPECT_THROW(load_checkpoint(path), InvalidArgument);
  std::remove(path.c_str());
}

TEST(Checkpoint, NetworkRoundTrip) {
  const std::string path = temp_path("net_ckpt.bin");
  snn::MlpConfig cfg;
  cfg.in_features = 12;
  cfg.hidden = 8;
  cfg.num_classes = 3;
  auto a = snn::make_snn_mlp(cfg);
  cfg.weight_seed += 1;  // different init
  auto b = snn::make_snn_mlp(cfg);

  snn::save_network(path, *a);
  snn::load_network(path, *b);

  auto pa = a->params();
  auto pb = b->params();
  ASSERT_EQ(pa.size(), pb.size());
  for (std::size_t i = 0; i < pa.size(); ++i)
    for (std::int64_t k = 0; k < pa[i]->numel(); ++k)
      EXPECT_EQ(pa[i]->value[k], pb[i]->value[k]);
  std::remove(path.c_str());
}

TEST(Checkpoint, RejectsTopologyMismatch) {
  const std::string path = temp_path("net_mismatch.bin");
  snn::MlpConfig small;
  small.in_features = 12;
  small.hidden = 8;
  auto a = snn::make_snn_mlp(small);
  snn::save_network(path, *a);

  snn::MlpConfig big = small;
  big.hidden = 16;
  auto b = snn::make_snn_mlp(big);
  EXPECT_THROW(snn::load_network(path, *b), InvalidArgument);
  std::remove(path.c_str());
}

TEST(Quantize, IdempotentAndBounded) {
  Rng rng(3);
  Tensor t = Tensor::uniform(Shape{1000}, rng, -2.0f, 2.0f);
  Tensor orig = t;
  snn::quantize_tensor(t, 8);
  // Error bounded by half a quantization step.
  const float max_abs = 2.0f;
  const float step = max_abs / 127.0f;
  for (std::int64_t i = 0; i < t.numel(); ++i)
    EXPECT_LE(std::fabs(t[i] - orig[i]), 0.5f * step + 1e-6f);
  // Idempotent: re-quantizing changes nothing.
  Tensor again = t;
  snn::quantize_tensor(again, 8);
  for (std::int64_t i = 0; i < t.numel(); ++i) EXPECT_EQ(again[i], t[i]);
}

TEST(Quantize, FewerBitsMoreError) {
  Rng rng(4);
  snn::MlpConfig cfg;
  auto net8 = snn::make_snn_mlp(cfg);
  auto net3 = snn::make_snn_mlp(cfg);
  const auto r8 = snn::quantize_network(*net8, 8);
  const auto r3 = snn::quantize_network(*net3, 3);
  EXPECT_GT(r3.mean_abs_error, r8.mean_abs_error);
  EXPECT_GT(r3.max_abs_error, r8.max_abs_error);
  EXPECT_EQ(r8.num_values, net8->num_parameters());
}

TEST(Quantize, ZeroTensorUntouchedAndBadBitsThrow) {
  Tensor z(Shape{5});
  snn::quantize_tensor(z, 8);
  for (std::int64_t i = 0; i < 5; ++i) EXPECT_EQ(z[i], 0.0f);
  Tensor t(Shape{2}, {1.0f, -1.0f});
  EXPECT_THROW(snn::quantize_tensor(t, 1), InvalidArgument);
  EXPECT_THROW(snn::quantize_tensor(t, 17), InvalidArgument);
}

TEST(SynthDigits, ShapeRangeDeterminism) {
  data::SynthDigitsConfig cfg;
  cfg.num_examples = 16;
  cfg.image_size = 14;
  data::SynthDigits a(cfg);
  data::SynthDigits b(cfg);
  EXPECT_EQ(a.image_shape(), Shape({1, 14, 14}));
  for (std::int64_t i = 0; i < a.size(); ++i) {
    const auto ea = a.get(i);
    const auto eb = b.get(i);
    EXPECT_EQ(ea.label, eb.label);
    EXPECT_GE(ops::min(ea.image), 0.0f);
    EXPECT_LE(ops::max(ea.image), 1.0f);
    for (std::int64_t k = 0; k < ea.image.numel(); ++k)
      EXPECT_EQ(ea.image[k], eb.image[k]);
  }
}

TEST(SynthDigits, DigitIsBrighterThanBackground) {
  data::SynthDigitsConfig cfg;
  cfg.num_examples = 8;
  cfg.image_size = 16;
  cfg.noise_stddev = 0.0f;
  data::SynthDigits ds(cfg);
  for (std::int64_t i = 0; i < ds.size(); ++i) {
    const auto ex = ds.get(i);
    // Dark background (a solid zero fraction even with anti-aliased ink
    // spreading); digit ink is bright.
    EXPECT_GT(ops::zero_fraction(ex.image), 0.3);
    EXPECT_LT(ops::mean(ex.image), 0.5f);
    EXPECT_GT(ops::max(ex.image), 0.7f);
  }
}

TEST(SynthDigits, SplitsDisjoint) {
  auto splits = data::make_synth_digits_splits(8, 8, 12, 99);
  int identical = 0;
  for (std::int64_t i = 0; i < 8; ++i) {
    const auto tr = splits.train.get(i);
    const auto te = splits.test.get(i);
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

}  // namespace
}  // namespace spiketune
