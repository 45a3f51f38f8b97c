// Self-contained HTML dashboard over one or many run ledgers.
//
// `render_dashboard_html` turns parsed ledgers (obs/ledger.h) into a single
// HTML document with zero external assets: inline CSS, inline SVG charts,
// no scripts, no fonts, no network.  The file can be scp'd off a headless
// box or attached to a CI run and opened anywhere.
//
// Contents:
//   - a run comparison table (final accuracy / firing rate / hardware
//     projections, warning counts) — the sweep at a glance;
//   - trajectory line charts (train accuracy, mean firing rate, projected
//     FPS/W) with one series per run;
//   - a per-layer output-density heatmap per run (layers x epochs);
//   - the spike-health warning log.
//
// Visual rules follow the repo's chart conventions: a fixed categorical
// palette assigned in slot order (runs beyond 8 fold into a gray "other"),
// a single-hue sequential ramp for the heatmap, one y-axis per chart, a
// legend whenever two or more runs are plotted, text in text-color tokens,
// native SVG <title> tooltips, and a dark mode driven by CSS custom
// properties under prefers-color-scheme.
#pragma once

#include <string>
#include <vector>

#include "obs/flight.h"
#include "obs/ledger.h"
#include "obs/spans.h"

namespace spiketune::obs {

struct DashboardOptions {
  std::string title = "spiketune run ledger";
};

/// Renders the dashboard document; `runs` must be non-empty.  A "Serving"
/// section is fed from a request-span log (obs/spans.h): windowed p50/p99
/// latency over wall time, the per-stage time breakdown, and batch-size
/// trajectory; it is skipped when `spans` is empty.  A "Post-mortem"
/// section is fed from a merged crash timeline written by
/// spiketune_flightdump (obs/flight.h): the crash header (signal,
/// fingerprint, recorder occupancy), per-event counts, and the final
/// stretch of the flight-recorder timeline leading into the crash.  Skipped
/// when `postmortem.entries` is empty and no crash was recorded.
std::string render_dashboard_html(const std::vector<ParsedLedger>& runs,
                                  const std::vector<RequestSpan>& spans,
                                  const PostmortemTimeline& postmortem,
                                  const DashboardOptions& options);

/// Renders and writes the dashboard to `path`.
void write_dashboard_html(const std::string& path,
                          const std::vector<ParsedLedger>& runs,
                          const std::vector<RequestSpan>& spans,
                          const PostmortemTimeline& postmortem,
                          const DashboardOptions& options);

/// Writes a flat CSV view: one row per (run, epoch) with training metrics,
/// mean firing rate, and the standard hardware-projection columns.
void write_ledger_csv(const std::string& path,
                      const std::vector<ParsedLedger>& runs);

}  // namespace spiketune::obs
