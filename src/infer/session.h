// InferenceSession: sparsity-aware serving path for a CompiledModel.
//
// The session owns every *transient* buffer the hot loop needs — per-layer
// activation planes, spike index lists, and the scatter / im2col scratch —
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
// Per step, each conv/linear layer inspects the exact nonzero count of its
// input (the spike index lists are rebuilt every step) and dispatches either
//
//   * the sparse gather-accumulate kernel, which touches only the nonzero
//     input columns via the model's [K, out] transposed weights, or
//   * the dense im2col+GEMM / GEMM kernel — the same kernels the training
//     stack runs — once batch-wide input density exceeds
//     InferOptions::sparse_crossover.
//
// Both paths, at any thread count, produce bit-identical activations to
// SpikingNetwork::forward (see DESIGN.md §10 for the determinism argument),
// so spike counts, accuracies, and recorded densities match the training
// path exactly.
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

  /// Achieved input density over all conv/linear dispatch decisions this
  /// window (exact integer counts; what the crossover heuristic saw).
  double mean_input_density = 0.0;
  std::int64_t sparse_dispatches = 0;  // layer-steps on the sparse kernel
  std::int64_t dense_dispatches = 0;   // layer-steps on the dense kernel

  /// Wall-clock stage split, populated when record_stage_times: time in
  /// build_index_lists, in sparse kernels, and in dense kernels.  The
  /// serving span log forwards the kernel split per request.
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
  /// Fills per-sample nonzero index lists for `layer`'s input and returns
  /// the batch-wide nonzero total.
  std::int64_t build_index_lists(const float* in, std::int64_t batch,
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

  std::vector<std::vector<float>> acts_;  // per layer: capacity*out_elems
  std::vector<std::int32_t> nz_idx_;      // capacity * idx_stride_
  std::vector<std::int64_t> nz_count_;    // per-sample nonzero counts
  std::vector<float> scratch_;            // conv scatter: [spatial, OC]
  std::vector<float> cols_;               // dense-fallback im2col
  std::vector<float*> m_rows_;            // per-row membrane planes (1 layer)
  std::vector<unsigned char> fresh_;      // per-row "stream has no history"
  std::vector<StreamState> pool_;         // scratch streams for null rows
  std::int64_t idx_stride_ = 0;      // max conv/linear in_elems
  std::int64_t scratch_stride_ = 0;  // max conv spatial*OC
  std::int64_t cols_stride_ = 0;     // max conv col_rows*spatial
};

}  // namespace spiketune::infer
