// Layer workload extraction: the "model-to-hardware mapping" input.
//
// The accelerator allocates compute per layer using the model's layer sizes
// and *measured* layer-wise sparsity (paper §III-A).  extract_workloads
// walks the trained network together with a SpikeRecord accumulated over an
// evaluation window and emits one LayerWorkload per weighted layer (conv /
// linear).  Pooling and flatten stages are folded into their consumer: in
// the lock-step design they are pure dataflow and never bound a stage.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "snn/network.h"

namespace spiketune::hw {

struct LayerWorkload {
  std::string name;              // "conv1", "fc2", ...
  std::int64_t layer_index = 0;  // index into the SpikingNetwork
  /// Neurons updated per timestep (output elements of the following LIF).
  std::int64_t neurons = 0;
  /// MACs triggered by one incoming spike (OC*KH*KW or out_features).
  std::int64_t fanout = 0;
  /// Input elements presented per timestep (per inference).
  std::int64_t input_size = 0;
  /// Measured mean nonzero inputs per timestep (per inference).
  double avg_input_spikes = 0.0;
  /// Number of weights (for the BRAM budget).
  std::int64_t num_weights = 0;

  /// Dense synaptic operations per timestep: every input contributes.
  double dense_synops() const {
    return static_cast<double>(input_size) * static_cast<double>(fanout);
  }
  /// Event-driven synaptic operations per timestep: only spikes contribute.
  double sparse_synops() const {
    return avg_input_spikes * static_cast<double>(fanout);
  }
  /// Measured input event density in [0, 1].
  double input_density() const {
    return input_size ? avg_input_spikes / static_cast<double>(input_size)
                      : 0.0;
  }
};

/// Extracts per-weighted-layer workloads.
///
/// `record` must come from evaluation windows of `net` (same topology) with
/// record_stats enabled; spike counts are normalized by the record's sample
/// count and the window length `timesteps`.
std::vector<LayerWorkload> extract_workloads(const snn::SpikingNetwork& net,
                                             const snn::SpikeRecord& record,
                                             std::int64_t timesteps);

/// Total neurons updated per timestep.
std::int64_t total_neurons(const std::vector<LayerWorkload>& ws);

}  // namespace spiketune::hw
