// CompiledModel: a trained SpikingNetwork frozen for inference.
//
// compile() walks the network once and snapshots everything the serving hot
// path needs — weights (plus the [K, out] transpose that the linear kernel
// and the sparse conv scatter read), biases, conv geometry, pool kernels, LIF constants, and the
// per-layer shapes for a given per-sample input — so an InferenceSession can
// run windows with no layer objects, no gradient caches, and no per-step
// shape inference.  The source network is not retained: a CompiledModel is a
// self-contained value and stays valid after the network is mutated or
// destroyed (re-compile to pick up new weights, e.g. after quantization).
#pragma once

#include <string>
#include <vector>

#include "snn/network.h"
#include "tensor/im2col.h"

namespace spiketune::infer {

/// The closed set of layer types the inference engine executes.  compile()
/// throws InvalidArgument for any other Layer subclass.
enum class OpKind {
  kConv2d,
  kLinear,
  kLif,
  kMaxPool2d,
  kAvgPool2d,
  kFlatten,
};

/// One frozen layer: immutable tensors plus precomputed metadata.  Only the
/// fields relevant to `kind` are populated.
struct CompiledLayer {
  OpKind kind = OpKind::kFlatten;
  std::string name;      // source layer's name(), for SpikeRecord parity
  bool spiking = false;  // source layer's spiking()
  Shape in_shape;        // per-sample
  Shape out_shape;       // per-sample
  std::int64_t in_elems = 0;   // per-sample input numel
  std::int64_t out_elems = 0;  // per-sample output numel

  // kConv2d / kLinear.  `weight` keeps the training layout ([OC, IC*KH*KW]
  // for conv, [out, in] for linear); the kernels do not read it.
  // `weight_t` is its [K, out] transpose, read by snn::Linear::forward_rows,
  // the dense conv (snn::Conv2d::forward_samples) and the sparse conv
  // scatter: one contiguous row per input element or kernel tap.  `bias`
  // is empty when the layer has none.
  Tensor weight;
  Tensor weight_t;
  Tensor bias;
  ConvGeom geom{};  // kConv2d only

  // kMaxPool2d / kAvgPool2d.
  std::int64_t pool_kernel = 0;

  // kLif.
  float beta = 0.0f;
  float threshold = 0.0f;
  /// Offset of this layer's membrane plane inside a StreamState arena
  /// (see infer/stream.h); -1 for non-LIF layers.  Assigned at compile so
  /// every stream shares one layout and eviction checkpoints are one flat
  /// tensor.
  std::int64_t membrane_offset = -1;
};

class CompiledModel {
 public:
  CompiledModel() = default;

  /// Freezes `net` for per-sample inputs of shape `per_sample_input` (no
  /// batch dimension; e.g. {3, 32, 32}).  Copies all weights; the network
  /// may be mutated or destroyed afterwards.  Throws InvalidArgument on
  /// unsupported layer types or incompatible shapes.
  static CompiledModel compile(const snn::SpikingNetwork& net,
                               const Shape& per_sample_input);

  const std::vector<CompiledLayer>& layers() const { return layers_; }
  std::size_t num_layers() const { return layers_.size(); }
  const Shape& input_shape() const { return input_shape_; }    // per-sample
  const Shape& output_shape() const { return output_shape_; }  // per-sample

  /// Fresh SpikeRecord matching this topology (same layer names and spiking
  /// flags as the source network's make_record()).
  snn::SpikeRecord make_record() const;

  std::int64_t num_parameters() const;

  /// Total floats of persistent membrane state one stream carries (the
  /// StreamState arena size): the sum of every LIF layer's out_elems.
  std::int64_t membrane_elems() const { return membrane_elems_; }

 private:
  std::vector<CompiledLayer> layers_;
  Shape input_shape_;
  Shape output_shape_;
  std::int64_t membrane_elems_ = 0;
};

}  // namespace spiketune::infer
