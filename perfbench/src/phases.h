// The three measured phases.  Every workload runs all three, so every run
// reports every end-to-end metric; the workload decides how the run's
// measuring time is shared, and so which module group does most of the
// work (see README.md).
//
// Each phase has three parts: a constructor (timed as set-up: data
// generation, encoding, compilation, server start, connecting); measure(),
// which measures for the seconds it is given and keeps the samples; and
// finish(), which checks the outputs with the gates in gates.h and adds
// the metrics to the RunContext.  main() calls measure() in several rounds
// so that every phase's samples are spread over the whole run: on a shared
// machine whose speed swings over tens of seconds, a phase measured in one
// contiguous block sees one state of the machine, and its median moves
// with it from run to run.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "exp/experiment.h"
#include "infer/session.h"
#include "report.h"
#include "snn/model_zoo.h"
#include "snn/network.h"
#include "trace.h"

namespace perfbench {

/// Kernel threads for every phase, fixed so a result never depends on how
/// many processors the machine has.  One thread: on a shared virtual
/// machine a fork-join kernel waits for its slowest participant, and at two
/// threads the run-to-run spread of one training point grew several-fold.
inline constexpr int kKernelThreads = 1;
inline constexpr int kServeWorkers = 2;

/// Window length of the 32x32 inference and serving workloads.
inline constexpr std::int64_t kInferSteps = 25;

/// The paper CSNN on 32x32 inputs at LIF point (beta, theta), with an init
/// gain at which no spiking layer is silent at the default or knee point.
spiketune::snn::CsnnConfig paper_csnn(float beta, float theta);

/// `images` SynthSvhn 32x32 images drawn from `seed`, rate-coded into one
/// kInferSteps-step window ([images, 3, 32, 32] per step).
std::vector<spiketune::Tensor> rate_coded_window(std::uint64_t seed,
                                                 std::int64_t images);

struct RunContext {
  std::uint64_t seed = 0;
  Tracer* tracer = nullptr;  // enabled on the traced run
  Report e2e;                // end-to-end metrics (untraced run)
  Report layer;              // per-layer metrics (traced run)
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  bool traced() const { return tracer->enabled(); }
};

/// One sweep point per repeat: exp::run_experiment in a closed loop; at the
/// end the same point by hand through the public calls as a gate (and,
/// traced, as the per-call decomposition).  Split generation is part of the
/// point, so this phase has no set-up.
class TrainPhase {
 public:
  explicit TrainPhase(std::uint64_t seed);
  void measure(RunContext& ctx, double seconds);
  void finish(RunContext& ctx);

 private:
  spiketune::exp::ExperimentConfig cfg_;
  std::vector<spiketune::exp::ExperimentResult> results_;
  std::vector<double> point_s_;
  std::vector<double> samples_per_s_;
  double owed_s_ = 0.0;  // measuring time granted but not yet used
};

/// A model compiled at one (beta, theta) point and a session over it.
struct InferPointModel {
  std::string name;  // "default" or "knee"
  std::unique_ptr<spiketune::snn::SpikingNetwork> net;
  spiketune::infer::CompiledModel model;
  std::unique_ptr<spiketune::infer::InferenceSession> session;  // untraced
  /// Traced run only: records the index/sparse/dense stage split.
  std::unique_ptr<spiketune::infer::InferenceSession> staged;
  double compile_ms = 0.0;
};

/// Whole-window InferenceSession::run at the default and knee points.
class InferPhase {
 public:
  InferPhase(std::uint64_t seed, bool traced);
  void measure(RunContext& ctx, double seconds);
  void finish(RunContext& ctx);

 private:
  struct Totals {
    std::vector<double> window_ns;  // untraced, one per window
    // Traced run: the staged session's time and stage split.
    double traced_ns = 0, index_ns = 0, sparse_ns = 0, dense_ns = 0;
  };
  std::vector<spiketune::Tensor> window_;  // kInferSteps x [32, 3, 32, 32]
  std::vector<InferPointModel> points_;
  std::vector<Totals> totals_;  // per point
  bool warm_ = false;
  double owed_s_ = 0.0;  // measuring time granted but not yet used
};

/// An in-process serve::Server with two client connections.
class ServePhase {
 public:
  ServePhase(std::uint64_t seed, const std::string& scratch_dir);
  ~ServePhase();
  ServePhase(const ServePhase&) = delete;
  ServePhase& operator=(const ServePhase&) = delete;

  void measure(RunContext& ctx, double seconds);
  void finish(RunContext& ctx);

 private:
  struct State;
  std::unique_ptr<State> s_;
};

}  // namespace perfbench
