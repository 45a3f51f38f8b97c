// Model zoo: the network topologies used in the paper and tests.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "core/rng.h"
#include "snn/lif.h"
#include "snn/network.h"

namespace spiketune::snn {

/// Configuration of the paper's convolutional SNN,
/// `32C3-P2-32C3-MP2-256-10` (XCY = X filters of size YxY, P/MP = avg/max
/// pooling), with a LIF neuron after every weighted layer.
struct CsnnConfig {
  std::int64_t in_channels = 3;
  std::int64_t image_size = 32;
  std::int64_t conv1_filters = 32;
  std::int64_t conv2_filters = 32;
  std::int64_t kernel = 3;
  std::int64_t pool = 2;
  std::int64_t fc_hidden = 256;
  std::int64_t num_classes = 10;
  LifConfig lif;                 // shared across all LIF stages
  std::uint64_t weight_seed = 0x5eedf00dULL;
  /// Multiplier on the Kaiming init bound of every weight/bias.  Spiking
  /// nets need initial currents large enough to cross the firing threshold
  /// somewhere in the stack, or deeper layers start dead and surrogate
  /// gradients cannot revive them at small data/epoch budgets.  With
  /// standardized direct-coded inputs (the default pipeline) 1.0 is right;
  /// raise to 2-3 for weak binary (rate-coded) inputs.
  float init_gain = 1.0f;
};

/// Builds the paper topology:
/// Conv(3->32,3x3) LIF AvgPool2 Conv(32->32,3x3) LIF MaxPool2 Flatten
/// Linear(->256) LIF Linear(256->10) LIF.
/// Throws InvalidArgument if the image is too small for the stack.
std::unique_ptr<SpikingNetwork> make_svhn_csnn(const CsnnConfig& config);

/// A small fully-connected SNN (in -> hidden -> classes) for unit tests and
/// the quickstart example.
struct MlpConfig {
  std::int64_t in_features = 64;
  std::int64_t hidden = 32;
  std::int64_t num_classes = 10;
  LifConfig lif;
  std::uint64_t weight_seed = 0x5eedf00dULL;
  float init_gain = 2.5f;  // see CsnnConfig::init_gain; MLPs here are fed
                           // weak binary spike trains, so default boosted
};
std::unique_ptr<SpikingNetwork> make_snn_mlp(const MlpConfig& config);

/// A zoo network picked by name, with the per-sample input shape it takes.
struct NamedModel {
  std::unique_ptr<SpikingNetwork> net;
  Shape per_sample;
};

/// The drivers' `--model` choices at their default configs with `lif`:
/// "csnn" (the paper topology, [C, H, W] input) or "mlp" ([in_features]
/// input).  Throws InvalidArgument on any other name.
NamedModel make_model_by_name(const std::string& name, const LifConfig& lif);

}  // namespace spiketune::snn
