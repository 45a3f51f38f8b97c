#include "snn/model_zoo.h"

#include "core/error.h"
#include "snn/conv2d.h"
#include "snn/linear.h"
#include "snn/pool.h"
#include "tensor/tensor_ops.h"

namespace spiketune::snn {

namespace {
void apply_init_gain(SpikingNetwork& net, float gain) {
  ST_REQUIRE(gain > 0.0f, "init_gain must be positive");
  if (gain == 1.0f) return;
  for (Param* p : net.params()) ops::scale_(p->value, gain);
}
}  // namespace

std::unique_ptr<SpikingNetwork> make_svhn_csnn(const CsnnConfig& config) {
  ST_REQUIRE(config.image_size >= 12,
             "image too small for conv-pool-conv-pool stack");
  Rng rng(config.weight_seed);
  auto net = std::make_unique<SpikingNetwork>();

  net->add<Conv2d>(
      Conv2dConfig{config.in_channels, config.conv1_filters, config.kernel},
      rng);
  net->add<Lif>(config.lif);
  net->add<AvgPool2d>(config.pool);
  net->add<Conv2d>(
      Conv2dConfig{config.conv1_filters, config.conv2_filters, config.kernel},
      rng);
  net->add<Lif>(config.lif);
  net->add<MaxPool2d>(config.pool);
  net->add<Flatten>();

  const Shape flat = net->output_shape(
      Shape{config.in_channels, config.image_size, config.image_size});
  ST_ASSERT(flat.rank() == 1, "expected flattened features before FC stack");

  net->add<Linear>(LinearConfig{flat[0], config.fc_hidden}, rng);
  net->add<Lif>(config.lif);
  net->add<Linear>(LinearConfig{config.fc_hidden, config.num_classes}, rng);
  net->add<Lif>(config.lif);
  apply_init_gain(*net, config.init_gain);
  return net;
}

std::unique_ptr<SpikingNetwork> make_snn_mlp(const MlpConfig& config) {
  Rng rng(config.weight_seed);
  auto net = std::make_unique<SpikingNetwork>();
  net->add<Linear>(LinearConfig{config.in_features, config.hidden}, rng);
  net->add<Lif>(config.lif);
  net->add<Linear>(LinearConfig{config.hidden, config.num_classes}, rng);
  net->add<Lif>(config.lif);
  apply_init_gain(*net, config.init_gain);
  return net;
}

NamedModel make_model_by_name(const std::string& name, const LifConfig& lif) {
  if (name == "csnn") {
    CsnnConfig cfg;
    cfg.lif = lif;
    return {make_svhn_csnn(cfg),
            Shape{cfg.in_channels, cfg.image_size, cfg.image_size}};
  }
  ST_REQUIRE(name == "mlp", "unknown model '" + name + "' (csnn | mlp)");
  MlpConfig cfg;
  cfg.lif = lif;
  return {make_snn_mlp(cfg), Shape{cfg.in_features}};
}

}  // namespace spiketune::snn
