// InferOptions: the one aggregate for every inference-construction knob.
//
// PR 5 replaced the training stack's positional forward arguments with
// ForwardOptions; this is the inference-side mirror.  InferenceSession used
// to grow a new positional field per feature (max_batch, then the
// crossover, then two recording switches), and
// every driver that built a session re-spelled the tail.  All of it now
// lives here, threaded through the drivers by exp::apply_standard_flags
// (StandardFlags::infer), so a new knob is one field plus one flag — not
// fourteen call-site edits.
#pragma once

#include <cstdint>

namespace spiketune::infer {

struct InferOptions {
  /// Initial buffer capacity in samples.  Running a larger batch grows the
  /// buffers (a one-off reallocation); steady state never allocates.
  std::int64_t max_batch = 32;
  /// Batch-wide input density at or below which a conv layer takes the
  /// sparse scatter kernel instead of the dense direct conv.  The default
  /// sits between the measured crossings at the CSNN's two conv shapes
  /// (DESIGN.md §10).  Set < 0 to force the dense path, >= 1 to force the
  /// sparse path (both paths stay bit-identical; only speed changes).
  /// Linear layers have one kernel and ignore it.  The --sparse-crossover
  /// flag and serve::ServerConfig read their defaults from here.
  double sparse_crossover = 0.05;
  /// Populate InferenceResult::stats (one counting pass per layer boundary,
  /// identical to ForwardOptions::record_stats).
  bool record_stats = false;
  /// Accumulate wall-clock per-stage timings (index building vs. sparse vs.
  /// dense kernel time) into InferenceResult.  A few clock reads per
  /// layer-step; never alters dispatch or results.
  bool record_stage_times = false;
};

}  // namespace spiketune::infer
