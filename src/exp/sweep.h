// The one loop that runs a set of training runs over hyperparameters.
//
// Every multi-run driver goes through run_sweep: Fig. 1 and Fig. 2 (with a
// journal), and the encoding, loss, prior-work and tuning comparisons
// (without one).  A sweep supplies only its points, each a key and how it
// changes the base config; the loop owns the progress hook, journal
// restore, failure capture, journal record, and the per-point checkpoint
// directory and ledger stream.
//
// Sweeps are restartable: given a journal path, every completed (or
// failed) point is durably recorded as one JSONL line (see exp/journal.h);
// a rerun whose base config sets trainer.resume skips completed points and
// re-attempts failed ones.  A point whose training throws is recorded as
// "failed" and the sweep moves on to the next point instead of losing
// hours of prior work.
#pragma once

#include <functional>
#include <string>
#include <vector>

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

/// The drivers' progress hook: prints "[i/total] training <key>..." and
/// flushes stdout.
void print_progress(std::size_t index, std::size_t total,
                    const std::string& key);

/// One point of a sweep.  Its key names it in progress lines and the
/// journal, and, sanitized, its checkpoint subdirectory and ledger stream.
struct SweepSpec {
  std::string key;
  std::function<void(ExperimentConfig&)> configure;
};

/// The one sweep loop.  Trains `base` changed by each spec's `configure`,
/// in order, and returns one SweepPoint per spec.  Reads from `base`:
///   trainer.checkpoint_dir  each point trains in <dir>/<sanitized key>, so
///                           an interrupted point resumes mid-training;
///   trainer.resume          skip points the journal marks done (restoring
///                           their scalar results) and resume the rest;
///   ledger.dir              each point writes <dir>/<sanitized key>.jsonl
///                           (see obs/ledger.h) with its firing-rate gauges
///                           namespaced by the sanitized key.
/// `journal_path` names the JSONL journal; empty disables it.
std::vector<SweepPoint> run_sweep(const ExperimentConfig& base,
                                  const std::vector<SweepSpec>& specs,
                                  const Progress& progress = {},
                                  const std::string& journal_path = {});

/// Fig. 1: trains one model per (surrogate, scale) with beta/theta at the
/// paper defaults and maps each onto the accelerator.
std::vector<SurrogateSweepPoint> run_surrogate_sweep(
    const ExperimentConfig& base, const std::vector<std::string>& surrogates,
    const std::vector<double>& scales, const Progress& progress = {},
    const std::string& journal_path = {});

/// Fig. 2: trains one model per (beta, theta) with fast sigmoid at the
/// paper's chosen slope (k = 0.25).
std::vector<BetaThetaPoint> run_beta_theta_sweep(
    const ExperimentConfig& base, const std::vector<double>& betas,
    const std::vector<double>& thetas, const Progress& progress = {},
    const std::string& journal_path = {});

/// Paper's slope choice for the Fig. 2 sweep.
inline constexpr double kFig2FastSigmoidSlope = 0.25;

/// Parses a comma-separated list of doubles ("0.5,1,2").  Throws
/// InvalidArgument on empty elements or trailing garbage.
std::vector<double> parse_double_list(const std::string& csv);

}  // namespace spiketune::exp
