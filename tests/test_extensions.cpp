// Tests for the extension modules: checkpoint serialization and weight
// quantization.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>

#include "core/error.h"
#include "core/serialize.h"
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
  std::int64_t num_params = 0;
  for (const snn::Param* p : net8->params()) num_params += p->numel();
  EXPECT_EQ(r8.num_values, num_params);
}

TEST(Quantize, ZeroTensorUntouchedAndBadBitsThrow) {
  Tensor z(Shape{5});
  snn::quantize_tensor(z, 8);
  for (std::int64_t i = 0; i < 5; ++i) EXPECT_EQ(z[i], 0.0f);
  Tensor t(Shape{2}, {1.0f, -1.0f});
  EXPECT_THROW(snn::quantize_tensor(t, 1), InvalidArgument);
  EXPECT_THROW(snn::quantize_tensor(t, 17), InvalidArgument);
}

}  // namespace
}  // namespace spiketune
