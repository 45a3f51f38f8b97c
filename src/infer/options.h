// InferOptions: the one aggregate for every inference-construction knob.
//
// The inference-side mirror of the training stack's ForwardOptions: a
// session's buffer size and its two recording switches, set by designated
// initializer at each call site ({.max_batch = 16, .record_stats = true}).
#pragma once

#include <cstdint>

namespace spiketune::infer {

struct InferOptions {
  /// Initial buffer capacity in samples.  Running a larger batch grows the
  /// buffers (a one-off reallocation); steady state never allocates.
  std::int64_t max_batch = 32;
  /// Populate InferenceResult::stats (one counting pass per layer boundary,
  /// identical to ForwardOptions::record_stats).
  bool record_stats = false;
  /// Accumulate wall-clock per-stage timings (conv nonzero counts vs.
  /// linear vs. conv kernel time) into InferenceResult.  A few clock reads
  /// per layer-step; never alters results.
  bool record_stage_times = false;
};

}  // namespace spiketune::infer
