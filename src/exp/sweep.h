// Sweep grids for the paper's experiments.
//
// Both sweeps run through one loop: a sweep supplies only its grid points
// and how each point changes the base config; the loop owns the point key,
// progress, journal restore, failure capture and journal record.
//
// Sweeps are restartable: give SweepOptions a journal path and every
// completed (or failed) point is durably recorded as one JSONL line (see
// exp/journal.h); a rerun with resume=true skips completed points and
// re-attempts failed ones.  A point whose training throws is recorded as
// "failed" and the sweep moves on to the next point instead of losing hours
// of prior work.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "core/cli.h"
#include "exp/experiment.h"

namespace spiketune::exp {

/// Figure 1 grid: derivative scaling factors 0.5 .. 32 (paper's range;
/// "beyond which the accuracy for the arctangent surrogate drops below
/// 20%").
std::vector<double> fig1_scales();

/// Figure 2 grids: the beta x theta cross-sweep around the paper's
/// operating points (defaults beta=0.25/theta=1.0; optima at beta=0.5,
/// theta=1.5; prior-work comparison at beta=0.7, theta=1.5).
std::vector<double> fig2_betas();
std::vector<double> fig2_thetas();

/// What a sweep records per point, whatever its coordinates.
struct SweepPoint {
  ExperimentResult result;
  std::string status = "done";  // "done" | "failed"
  std::string error;            // populated when status == "failed"
  bool from_journal = false;    // restored from a journal, not retrained
};

struct SurrogateSweepPoint : SweepPoint {
  std::string surrogate;  // "arctan" | "fast_sigmoid"
  double scale = 0.0;     // alpha or k
};

struct BetaThetaPoint : SweepPoint {
  double beta = 0.0;
  double theta = 0.0;
};

/// Progress hook: (index, total, human-readable point label).
using Progress =
    std::function<void(std::size_t, std::size_t, const std::string&)>;

/// Crash-safety knobs for a sweep run.  All default-off: the zero-argument
/// form behaves exactly like the pre-journal API.
struct SweepOptions {
  /// JSONL journal recording each point as it completes; empty disables.
  std::string journal_path;
  /// Skip points the journal already marks "done" (restoring their scalar
  /// results) and pass resume=true to each point's Trainer.
  bool resume = false;
  /// When set, each point trains with checkpoint_dir =
  /// `<checkpoint_root>/<sanitized point key>`, so an interrupted point
  /// resumes mid-training rather than restarting its epochs.
  std::string checkpoint_root;
  /// When set, each point writes a run ledger to
  /// `<ledger_root>/<sanitized point key>.jsonl` (see obs/ledger.h);
  /// render the directory with bench/render_dashboard.
  std::string ledger_root;
  /// Command line recorded in each ledger's manifest (drivers pass their
  /// argv via exp::join_argv).
  std::string argv;
};

/// Fig. 1: trains one model per (surrogate, scale) with beta/theta at the
/// paper defaults and maps each onto the accelerator.
std::vector<SurrogateSweepPoint> run_surrogate_sweep(
    const ExperimentConfig& base, const std::vector<std::string>& surrogates,
    const std::vector<double>& scales, const Progress& progress = {},
    const SweepOptions& options = {});

/// Fig. 2: trains one model per (beta, theta) with fast sigmoid at the
/// paper's chosen slope (k = 0.25).
std::vector<BetaThetaPoint> run_beta_theta_sweep(
    const ExperimentConfig& base, const std::vector<double>& betas,
    const std::vector<double>& thetas, const Progress& progress = {},
    const SweepOptions& options = {});

/// Paper's slope choice for the Fig. 2 sweep.
inline constexpr double kFig2FastSigmoidSlope = 0.25;

/// CLI plumbing shared by the sweep drivers:
///   --journal <path>          JSONL sweep journal (empty = off)
///   --resume                  skip journal-completed points on restart
///   --checkpoint-root <dir>   per-point training checkpoint directories
///   --ledger <dir>            per-point run ledgers (one JSONL per point)
void declare_sweep_flags(CliFlags& flags);
/// Reads the sweep flags; pass argc/argv so per-point ledgers record the
/// driver's command line in their manifests.
SweepOptions sweep_options_from_flags(const CliFlags& flags, int argc = 0,
                                      char** argv = nullptr);

/// Parses a comma-separated list of doubles ("0.5,1,2").  Throws
/// InvalidArgument on empty elements or trailing garbage.
std::vector<double> parse_double_list(const std::string& csv);

}  // namespace spiketune::exp
