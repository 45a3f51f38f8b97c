// Paper-style report rendering for sweep results, and the failure-aware
// table helpers the comparison drivers share with it.
#pragma once

#include <string>
#include <vector>

#include "exp/sweep.h"

namespace spiketune::exp {

/// Fig. 1 series: one row per derivative scale, columns for each
/// surrogate's accuracy / firing rate / FPS/W, plus the prior-work green
/// line noted beneath.
std::string render_fig1(const std::vector<SurrogateSweepPoint>& points);

/// Fig. 2 matrices: accuracy and latency over the beta x theta grid, the
/// identified knee (latency-optimal configuration within an accuracy
/// budget), and its deltas vs the best-accuracy configuration.
std::string render_fig2(const std::vector<BetaThetaPoint>& points);

/// Writes sweep points as CSV: the point's coordinates, the in_csv rows of
/// SPIKETUNE_RESULT_FIELDS (exp/experiment.h) in table order, then status.
void write_fig1_csv(const std::vector<SurrogateSweepPoint>& points,
                    const std::string& path);
void write_fig2_csv(const std::vector<BetaThetaPoint>& points,
                    const std::string& path);

/// The note beneath a sweep's table listing its failed points and their
/// errors; empty when every point is done.
std::string failure_note(const std::vector<SweepPoint>& points);

/// A comparison-table row: the `row` cells that name the point, then
/// `cells` when it is done, or "fail" in place of each when it failed.
std::vector<std::string> point_row(std::vector<std::string> row,
                                   const SweepPoint& point,
                                   const std::vector<std::string>& cells);

/// Selection helpers (shared by reports, benches, and tests).  Points with
/// status != "done" (failed sweep points) are skipped.
/// Index of the highest-accuracy point; throws if every point failed.
std::size_t best_accuracy_index(const std::vector<BetaThetaPoint>& points);
/// Index of the lowest-latency point whose accuracy is within
/// `max_accuracy_drop` (absolute) of the best accuracy.
std::size_t latency_knee_index(const std::vector<BetaThetaPoint>& points,
                               double max_accuracy_drop);

}  // namespace spiketune::exp
