// InferenceSession: sparsity-aware serving path for a CompiledModel.
//
// The session owns every *transient* buffer the hot loop needs — per-layer
// activation planes, spike index lists, the scatter scratch and the dense
// conv's zero-padded input planes —
// sized once for `max_batch` samples, so steady-state inference performs no
// allocation.  *Persistent* state (LIF membranes, cumulative spike counts)
// lives in StreamState (infer/stream.h): the session steps a batch of
// streams, each row reading and writing its own stream's membrane arena.
//
// Two entry points share one body:
//
//   * step(stream, events): the incremental API — advance one stream by one
//     timestep and get that step's output spikes back.  step_batch() is the
//     batched form the serving stack uses (many streams, one kernel pass).
//   * run(step_inputs): the classic whole-window API, now literally the
//     batched run() with every row a fresh session-owned scratch stream —
//     so window results are bitwise-identical to streaming results by
//     construction, not by parallel maintenance (DESIGN.md §15).
//
// Every layer runs the training stack's own forward body, so there is no
// second copy to keep in sync: snn::Linear::forward_rows for linear layers,
// snn::Conv2d::forward_samples for dense conv, the pool layers'
// forward_planes, and snn::Lif::step_rows for LIF, each row reading and
// writing its own stream's membrane plane.  Flatten is a reshape: the next
// layer reads its input as it stands, with no copy and no plane.  Linear
// has that one zero-skipping kernel at every density.  Conv has two: per
// step it counts the exact nonzeros of its input and dispatches either
//
//   * the sparse scatter kernel, which builds per-sample spike index lists
//     and touches only the nonzero input pixels via the model's [K, OC]
//     transposed weights, or
//   * the dense register-tiled direct conv, snn::Conv2d::forward_samples,
//     once batch-wide input density exceeds InferOptions::sparse_crossover.
//
// Both conv kernels, at any thread count, produce bit-identical activations
// to SpikingNetwork::forward (see DESIGN.md §10 for the determinism
// argument), so spike counts, accuracies, and recorded densities match the
// training path exactly.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "infer/compiled_model.h"
#include "infer/options.h"
#include "infer/stream.h"

namespace spiketune::infer {

struct InferenceResult {
  Tensor spike_counts;     // [N, out_features] — spikes summed over steps
  snn::SpikeRecord stats;  // populated when InferOptions::record_stats
  std::int64_t timesteps = 0;

  /// Achieved input density over every conv and linear layer-step this
  /// window (exact integer counts).
  double mean_input_density = 0.0;
  std::int64_t sparse_dispatches = 0;  // conv layer-steps on the scatter
  std::int64_t dense_dispatches = 0;   // conv layer-steps on the direct conv

  /// Wall-clock stage split, populated when record_stage_times: time in
  /// conv dispatch (the nonzero count, plus build_index_lists on the
  /// sparse branch), in zero-skipping kernels (the conv scatter and every
  /// linear layer), and in dense conv kernels.  The serving span log
  /// forwards the kernel split per request.
  std::uint64_t index_ns = 0;
  std::uint64_t sparse_kernel_ns = 0;
  std::uint64_t dense_kernel_ns = 0;
};

class InferenceSession {
 public:
  /// The model must outlive the session (the session keeps a pointer; the
  /// weights are read in place, never copied again).
  explicit InferenceSession(const CompiledModel& model,
                            InferOptions config = {});

  /// Runs one window of T per-step batches shaped [N, <input_shape>...].
  /// All steps must share one batch size.  The batched run() below with
  /// every entry null, so the result is bit-identical to feeding the same
  /// steps through step() on fresh streams.
  InferenceResult run(const std::vector<Tensor>& step_inputs);

  /// A fresh stream for this session's model (equivalent to
  /// StreamState(model()); provided so callers need not name the model).
  StreamState make_stream() const { return StreamState(*model_); }

  /// Advances `stream` by one timestep of per-sample events shaped
  /// [<input_shape>...] and returns that step's output spikes
  /// ([out_features] of 0/1 floats).  The stream's cumulative_counts() and
  /// steps_done() advance; a fresh (or reset) stream's first step reads no
  /// membrane term, exactly like timestep 0 of a window.
  Tensor step(StreamState& stream, const Tensor& events);

  /// Batched streaming run: row i of every step tensor advances
  /// streams[i].  Streams may be at different ages (a fresh stream rides
  /// in the same batch as an old one); spike_counts holds only this call's
  /// window, while each stream's cumulative_counts() keeps the lifetime
  /// total.  Non-null `streams` pointers must be distinct.  A null entry is
  /// a plain row: it runs on a fresh scratch stream from the session's
  /// pool, as if stepped from t = 0 on its own, and no later call sees
  /// what it leaves there.
  InferenceResult run(StreamState* const* streams, std::int64_t n,
                      const std::vector<Tensor>& step_inputs);

  const CompiledModel& model() const { return *model_; }
  const InferOptions& config() const { return config_; }

 private:
  struct StepTotals {
    std::int64_t dispatch_nz = 0;
    std::int64_t dispatch_elems = 0;
    std::int64_t spikes = 0;
  };

  void ensure_capacity(std::int64_t batch);
  /// Fills per-sample nonzero index lists for a conv layer's input (the
  /// sparse scatter's only).
  void build_index_lists(const float* in, std::int64_t batch,
                         std::int64_t in_elems);
  /// One timestep for `n` stream rows: runs every layer on the batch `x`
  /// ([n, in_elems] floats), accumulates the final layer's spikes into both
  /// `window_counts` ([n, out_features], the per-window tally) and each
  /// stream's cumulative counts, and bumps each stream's step counter.
  void step_batch(StreamState* const* streams, std::int64_t n, const float* x,
                  float* window_counts, InferenceResult& result,
                  StepTotals& totals);

  const CompiledModel* model_;
  InferOptions config_;
  std::int64_t capacity_ = 0;  // samples the buffers are sized for

  // Per layer: capacity * out_elems activation floats (none for Flatten).
  std::vector<std::vector<float>> acts_;
  std::vector<std::int32_t> nz_idx_;      // capacity * idx_stride_
  std::vector<std::int64_t> nz_count_;    // per-sample nonzero counts
  std::vector<float> scratch_;            // conv scatter: [spatial, OC]
  std::vector<float> padded_;             // dense conv: zero-padded inputs
  std::vector<float*> m_rows_;            // per-row membrane planes (1 layer)
  std::vector<unsigned char> fresh_;      // per-row "stream has no history"
  std::vector<StreamState> pool_;         // scratch streams for null rows
  std::int64_t idx_stride_ = 0;      // max conv in_elems
  std::int64_t scratch_stride_ = 0;  // max conv spatial*OC
  std::int64_t padded_stride_ = 0;   // max conv padded_elems (0: no pad)
};

}  // namespace spiketune::infer
