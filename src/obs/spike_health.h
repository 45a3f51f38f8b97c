// Spike-health monitoring of a training run's firing-rate trajectory.
//
// Firing-rate dynamics *during* training are the early signal: a run can
// drift into dead or saturated layers many epochs before the accuracy curve
// reveals it (Herranz-Celotti & Rouat; Aliyev et al.).  The monitor consumes
// each epoch's per-layer spike densities (the same LedgerLayerStat rows the
// run ledger records) and fires three detectors, whose thresholds are the
// constants below:
//
//   dead_layer       — a spiking layer's output density fell below a floor
//                      (its neurons have effectively stopped firing, so no
//                      surrogate gradient flows through it);
//   saturated_layer  — a spiking layer's output density exceeded a ceiling
//                      (every neuron fires every step; spikes carry no
//                      information and the hardware sees a dense workload);
//   collapse         — the network-wide mean firing rate dropped by more
//                      than a fraction of its running peak (global activity
//                      collapse, the precursor of dead output layers).
//
// Each firing emits a LedgerWarning (for the run ledger) and bumps a
// `train.spike_health.<detector>` obs counter; warnings are edge-triggered
// per (detector, layer) — a layer that stays dead for 20 epochs produces a
// single warning when it dies, and may warn again only after recovering and
// dying a second time.
#pragma once

#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "obs/ledger.h"

namespace spiketune::obs {

/// Spiking layer with output density below this is dead.
inline constexpr double kDeadOutputDensity = 1e-3;
/// Spiking layer with output density above this is saturated.
inline constexpr double kSaturationDensity = 0.95;
/// Warn when the mean firing rate drops below (1 - kCollapseDrop) of its
/// running peak.
inline constexpr double kCollapseDrop = 0.5;
/// First epoch (0-based) the detectors run on.  The first epochs of a run
/// legitimately start near-silent while weights grow into the threshold —
/// on seconds-scale presets even the output layer routinely emits zero
/// spikes until epoch 2 — so epochs before this are a warm-up grace period.
inline constexpr std::int64_t kSpikeHealthMinEpoch = 2;

class SpikeHealthMonitor {
 public:
  /// Evaluates all detectors against one epoch's per-layer densities.
  /// Returns the warnings that fired (empty when healthy); also bumps the
  /// `train.spike_health.*` counters when metrics are enabled.
  std::vector<LedgerWarning> check(std::int64_t epoch,
                                   const std::vector<LedgerLayerStat>& layers);

  /// Total warnings emitted by this monitor so far.
  std::int64_t warning_count() const { return warning_count_; }

 private:
  double peak_rate_ = 0.0;
  std::int64_t warning_count_ = 0;
  /// (detector, layer) pairs currently in the bad state, for edge-triggered
  /// reporting.
  std::set<std::pair<std::string, std::string>> active_;
};

}  // namespace spiketune::obs
