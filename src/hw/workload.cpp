#include "hw/workload.h"

#include "core/error.h"
#include "snn/conv2d.h"
#include "snn/linear.h"

namespace spiketune::hw {

std::vector<LayerWorkload> extract_workloads(const snn::SpikingNetwork& net,
                                             const snn::SpikeRecord& record,
                                             std::int64_t timesteps) {
  ST_REQUIRE(timesteps > 0, "timesteps must be positive");
  ST_REQUIRE(record.num_layers() == net.num_layers(),
             "record does not match network topology");
  ST_REQUIRE(record.total_samples() > 0,
             "record holds no samples; run an evaluation window first");

  const double observations =
      static_cast<double>(record.total_samples()) *
      static_cast<double>(timesteps);

  std::vector<LayerWorkload> out;
  int conv_ordinal = 0;
  int fc_ordinal = 0;
  for (std::size_t i = 0; i < net.num_layers(); ++i) {
    const snn::Layer& layer = net.layer(i);
    const snn::LayerActivity& act = record.layers()[i];

    LayerWorkload w;
    w.layer_index = static_cast<std::int64_t>(i);
    if (const auto* conv = dynamic_cast<const snn::Conv2d*>(&layer)) {
      w.name = "conv" + std::to_string(++conv_ordinal);
      w.fanout = conv->fanout_per_spike();
      w.num_weights = conv->config().out_channels *
                      conv->config().in_channels * conv->config().kernel *
                      conv->config().kernel;
    } else if (const auto* fc = dynamic_cast<const snn::Linear*>(&layer)) {
      w.name = "fc" + std::to_string(++fc_ordinal);
      w.fanout = fc->fanout_per_spike();
      w.num_weights = fc->config().out_features * fc->config().in_features;
    } else {
      continue;  // pooling/flatten/LIF fold into the weighted stages
    }

    ST_REQUIRE(act.input_elements > 0,
               "no recorded activity for layer " + w.name);
    w.input_size = static_cast<std::int64_t>(
        static_cast<double>(act.input_elements) / observations + 0.5);
    w.avg_input_spikes =
        static_cast<double>(act.input_nonzeros) / observations;
    w.neurons = static_cast<std::int64_t>(
        static_cast<double>(act.output_elements) / observations + 0.5);
    out.push_back(std::move(w));
  }
  ST_REQUIRE(!out.empty(), "network has no weighted layers");
  return out;
}

std::int64_t total_neurons(const std::vector<LayerWorkload>& ws) {
  std::int64_t n = 0;
  for (const auto& w : ws) n += w.neurons;
  return n;
}

}  // namespace spiketune::hw
