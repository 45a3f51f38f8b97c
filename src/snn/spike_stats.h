// Spike-activity bookkeeping.
//
// The hardware model consumes *measured* firing statistics of a trained
// network: for every layer, how many of its input and output elements were
// nonzero over an evaluation window.  SpikeRecord accumulates those counts
// across batches; rates are derived lazily.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace spiketune::snn {

struct LayerActivity {
  std::string layer_name;   // e.g. "conv2d", "lif"
  bool spiking = false;     // layer emits binary spikes
  std::int64_t input_nonzeros = 0;
  std::int64_t input_elements = 0;
  std::int64_t output_nonzeros = 0;
  std::int64_t output_elements = 0;

  /// Fraction of nonzero inputs (the accelerator's event density).
  double input_density() const {
    return input_elements ? static_cast<double>(input_nonzeros) /
                                static_cast<double>(input_elements)
                          : 0.0;
  }
  /// Firing rate of this layer's output (spikes per neuron per step).
  double output_density() const {
    return output_elements ? static_cast<double>(output_nonzeros) /
                                 static_cast<double>(output_elements)
                           : 0.0;
  }
};

/// Activity of one or more forward windows, accumulated layer by layer.
class SpikeRecord {
 public:
  SpikeRecord() = default;
  explicit SpikeRecord(std::vector<std::string> layer_names,
                       std::vector<bool> spiking);

  /// Adds counts for layer `i` for one step.  Throws InvalidArgument on a
  /// bad layer index, counts outside [0, total], or int64 overflow of the
  /// accumulated totals.
  void add_step(std::size_t layer, std::int64_t in_nz, std::int64_t in_total,
                std::int64_t out_nz, std::int64_t out_total);

  /// Element-wise merge of another record.  Throws InvalidArgument unless
  /// the layer structures match exactly (count, names, spiking flags) and
  /// the summed counters fit in int64; validation happens before any
  /// mutation, so a failed merge leaves this record untouched.
  void merge(const SpikeRecord& other);

  void note_window(std::int64_t timesteps, std::int64_t batch) {
    total_timesteps_ += timesteps;
    total_samples_ += batch;
  }

  const std::vector<LayerActivity>& layers() const { return layers_; }
  std::size_t num_layers() const { return layers_.size(); }
  std::int64_t total_samples() const { return total_samples_; }

  /// Mean firing rate over all spiking layers (spikes / neuron / step);
  /// the paper's "firing intensity" metric.
  double mean_firing_rate() const;

 private:
  std::vector<LayerActivity> layers_;
  std::int64_t total_timesteps_ = 0;
  std::int64_t total_samples_ = 0;
};

}  // namespace spiketune::snn
