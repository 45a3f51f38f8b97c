#include "obs/dashboard.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <map>

#include "core/error.h"
#include "core/stats.h"

namespace spiketune::obs {

namespace {

constexpr int kPaletteSize = 8;

std::string html_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '&': out += "&amp;"; break;
      case '<': out += "&lt;"; break;
      case '>': out += "&gt;"; break;
      case '"': out += "&quot;"; break;
      default: out += c;
    }
  }
  return out;
}

std::string fmt(double v) {
  if (std::isnan(v)) return "–";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

std::string fmt_coord(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.2f", v);
  return buf;
}

/// CSS variable carrying run `index`'s series color.  Runs beyond the
/// palette fold into the gray "other" slot — hues are never cycled.
std::string series_color(std::size_t index, std::size_t num_runs) {
  if (num_runs > kPaletteSize && index >= kPaletteSize - 1)
    return "var(--other)";
  return "var(--s" + std::to_string(index % kPaletteSize) + ")";
}

/// Single-hue sequential ramp (light blue -> deep blue) for the density
/// heatmap; `t` in [0, 1].
std::string ramp_color(double t) {
  t = std::clamp(t, 0.0, 1.0);
  const int r = static_cast<int>(std::lround(0xcd + t * (0x0d - 0xcd)));
  const int g = static_cast<int>(std::lround(0xe2 + t * (0x36 - 0xe2)));
  const int b = static_cast<int>(std::lround(0xfb + t * (0x6b - 0xfb)));
  char buf[10];
  std::snprintf(buf, sizeof(buf), "#%02x%02x%02x", r, g, b);
  return buf;
}

double hw_value(const LedgerEpoch& e, const std::string& key) {
  for (const auto& [k, v] : e.hw)
    if (k == key) return v;
  return std::numeric_limits<double>::quiet_NaN();
}

double final_value(const ParsedLedger& run, const std::string& key) {
  for (const auto& [k, v] : run.final_record.values)
    if (k == key) return v;
  return std::numeric_limits<double>::quiet_NaN();
}

double nice_step(double range) {
  if (!(range > 0.0)) return 1.0;
  const double raw = range / 4.0;
  const double mag = std::pow(10.0, std::floor(std::log10(raw)));
  const double norm = raw / mag;
  const double step = norm < 1.5 ? 1.0 : norm < 3.0 ? 2.0 : norm < 7.0 ? 5.0
                                                                       : 10.0;
  return step * mag;
}

struct SeriesPoint {
  double x = 0.0;
  double y = 0.0;
};

struct ChartSeries {
  std::string label;
  std::string color;  // CSS color expression (var(--sN))
  std::vector<SeriesPoint> points;
};

/// One SVG line chart: single y-axis, recessive grid, 2px lines, markers
/// with native <title> tooltips, direct end-labels for up to 4 series.
std::string render_line_chart(const std::string& title,
                              const std::string& x_label,
                              const std::string& y_label,
                              const std::vector<ChartSeries>& series) {
  constexpr double kW = 640, kH = 280;
  constexpr double kLeft = 60, kRight = 120, kTop = 18, kBottom = 40;
  const double plot_w = kW - kLeft - kRight;
  const double plot_h = kH - kTop - kBottom;

  double x_min = std::numeric_limits<double>::infinity(), x_max = -x_min;
  double y_min = x_min, y_max = -x_min;
  std::size_t num_points = 0;
  for (const ChartSeries& s : series) {
    for (const SeriesPoint& p : s.points) {
      x_min = std::min(x_min, p.x);
      x_max = std::max(x_max, p.x);
      y_min = std::min(y_min, p.y);
      y_max = std::max(y_max, p.y);
      ++num_points;
    }
  }
  if (num_points == 0) return "";
  if (x_max - x_min < 1e-12) {
    x_min -= 0.5;
    x_max += 0.5;
  }
  if (y_max - y_min < 1e-12) {
    const double pad = std::max(0.5, std::abs(y_max) * 0.1);
    y_min -= pad;
    y_max += pad;
  } else {
    const double pad = (y_max - y_min) * 0.06;
    y_min -= pad;
    y_max += pad;
  }
  auto sx = [&](double x) {
    return kLeft + (x - x_min) / (x_max - x_min) * plot_w;
  };
  auto sy = [&](double y) {
    return kTop + (1.0 - (y - y_min) / (y_max - y_min)) * plot_h;
  };

  std::string svg;
  svg += "<figure class=\"chart\">\n<figcaption>" + html_escape(title) +
         "</figcaption>\n";
  svg += "<svg viewBox=\"0 0 " + fmt_coord(kW) + " " + fmt_coord(kH) +
         "\" role=\"img\" aria-label=\"" + html_escape(title) + "\">\n";

  // Horizontal grid + y-axis tick labels.
  const double y_step = nice_step(y_max - y_min);
  for (double t = std::ceil(y_min / y_step) * y_step; t <= y_max + 1e-12;
       t += y_step) {
    const double py = sy(t);
    svg += "<line x1=\"" + fmt_coord(kLeft) + "\" y1=\"" + fmt_coord(py) +
           "\" x2=\"" + fmt_coord(kLeft + plot_w) + "\" y2=\"" + fmt_coord(py) +
           "\" class=\"grid\"/>\n";
    svg += "<text x=\"" + fmt_coord(kLeft - 8) + "\" y=\"" +
           fmt_coord(py + 3.5) + "\" class=\"tick\" text-anchor=\"end\">" +
           fmt(t) + "</text>\n";
  }
  // X ticks at (a subset of) integer epochs.
  const double x_step = std::max(1.0, nice_step(x_max - x_min));
  for (double t = std::ceil(x_min / x_step) * x_step; t <= x_max + 1e-12;
       t += x_step) {
    const double px = sx(t);
    svg += "<text x=\"" + fmt_coord(px) + "\" y=\"" +
           fmt_coord(kTop + plot_h + 18) +
           "\" class=\"tick\" text-anchor=\"middle\">" + fmt(t) + "</text>\n";
  }
  // Axis labels.
  svg += "<text x=\"" + fmt_coord(kLeft + plot_w / 2) + "\" y=\"" +
         fmt_coord(kH - 6) + "\" class=\"axis\" text-anchor=\"middle\">" +
         html_escape(x_label) + "</text>\n";
  svg += "<text x=\"14\" y=\"" + fmt_coord(kTop + plot_h / 2) +
         "\" class=\"axis\" text-anchor=\"middle\" transform=\"rotate(-90 14 " +
         fmt_coord(kTop + plot_h / 2) + ")\">" + html_escape(y_label) +
         "</text>\n";

  const bool direct_labels = series.size() >= 2 && series.size() <= 4;
  for (const ChartSeries& s : series) {
    if (s.points.empty()) continue;
    std::string pts;
    for (const SeriesPoint& p : s.points) {
      if (!pts.empty()) pts += ' ';
      pts += fmt_coord(sx(p.x)) + "," + fmt_coord(sy(p.y));
    }
    svg += "<polyline points=\"" + pts + "\" fill=\"none\" stroke=\"" +
           s.color + "\" stroke-width=\"2\"/>\n";
    for (const SeriesPoint& p : s.points) {
      svg += "<circle cx=\"" + fmt_coord(sx(p.x)) + "\" cy=\"" +
             fmt_coord(sy(p.y)) + "\" r=\"4\" fill=\"" + s.color +
             "\"><title>" + html_escape(s.label) + " — " +
             html_escape(x_label) + " " + fmt(p.x) + ": " + fmt(p.y) +
             "</title></circle>\n";
    }
    if (direct_labels) {
      const SeriesPoint& last = s.points.back();
      svg += "<text x=\"" + fmt_coord(sx(last.x) + 8) + "\" y=\"" +
             fmt_coord(sy(last.y) + 3.5) + "\" class=\"label\">" +
             html_escape(s.label) + "</text>\n";
    }
  }
  svg += "</svg>\n";

  if (series.size() >= 2) {
    svg += "<div class=\"legend\">";
    std::vector<std::string> seen;
    for (const ChartSeries& s : series) {
      if (std::find(seen.begin(), seen.end(), s.label) != seen.end()) continue;
      seen.push_back(s.label);
      svg += "<span class=\"key\"><span class=\"swatch\" style=\"background:" +
             s.color + "\"></span>" + html_escape(s.label) + "</span>";
    }
    svg += "</div>\n";
  }
  svg += "</figure>\n";
  return svg;
}

/// Builds one trajectory series per run via `extract` (NaN results are
/// skipped).  Runs past the palette collapse into one gray "other" series.
template <typename Extract>
std::vector<ChartSeries> trajectory_series(
    const std::vector<ParsedLedger>& runs, Extract extract) {
  std::vector<ChartSeries> series;
  for (std::size_t i = 0; i < runs.size(); ++i) {
    ChartSeries s;
    s.color = series_color(i, runs.size());
    // Overflow runs all plot as gray polylines under one shared "other"
    // label (the legend deduplicates identical labels).
    if (s.color == "var(--other)")
      s.label = "other (" +
                std::to_string(runs.size() - (kPaletteSize - 1)) + " runs)";
    else
      s.label = runs[i].manifest.run_id.empty() ? runs[i].path
                                                : runs[i].manifest.run_id;
    for (const LedgerEpoch& e : runs[i].epochs) {
      const double v = extract(e);
      if (!std::isnan(v)) s.points.push_back({static_cast<double>(e.epoch), v});
    }
    if (!s.points.empty()) series.push_back(std::move(s));
  }
  return series;
}

/// Layers-by-epochs output-density heatmap for one run (sequential ramp,
/// scaled to the run's peak density so low-sparsity runs stay readable).
std::string render_heatmap(const ParsedLedger& run) {
  if (run.epochs.empty() || run.epochs.front().layers.empty()) return "";
  const std::vector<LedgerLayerStat>& layers0 = run.epochs.front().layers;
  const std::size_t num_layers = layers0.size();
  const std::size_t num_epochs = run.epochs.size();

  double max_density = 0.0;
  for (const LedgerEpoch& e : run.epochs)
    for (const LedgerLayerStat& l : e.layers)
      max_density = std::max(max_density, l.out_density);
  if (max_density <= 0.0) max_density = 1.0;

  constexpr double kLabelW = 150, kCellH = 20, kTop = 6, kBottom = 34;
  const double cell_w =
      std::clamp(480.0 / static_cast<double>(num_epochs), 10.0, 34.0);
  const double w = kLabelW + cell_w * static_cast<double>(num_epochs) + 120;
  const double h =
      kTop + kCellH * static_cast<double>(num_layers) + kBottom;

  const std::string run_label =
      run.manifest.run_id.empty() ? run.path : run.manifest.run_id;
  std::string svg;
  svg += "<figure class=\"chart\">\n<figcaption>Per-layer output density — " +
         html_escape(run_label) + "</figcaption>\n";
  svg += "<svg viewBox=\"0 0 " + fmt_coord(w) + " " + fmt_coord(h) +
         "\" role=\"img\" aria-label=\"per-layer density heatmap\">\n";
  for (std::size_t li = 0; li < num_layers; ++li) {
    const double y = kTop + kCellH * static_cast<double>(li);
    svg += "<text x=\"" + fmt_coord(kLabelW - 8) + "\" y=\"" +
           fmt_coord(y + kCellH / 2 + 3.5) +
           "\" class=\"tick\" text-anchor=\"end\">" +
           html_escape(layers0[li].name) + "</text>\n";
    for (std::size_t ei = 0; ei < num_epochs; ++ei) {
      const LedgerEpoch& e = run.epochs[ei];
      if (li >= e.layers.size()) continue;
      const double d = e.layers[li].out_density;
      const double x = kLabelW + cell_w * static_cast<double>(ei);
      // 2px surface gap between adjacent cells.
      svg += "<rect x=\"" + fmt_coord(x + 1) + "\" y=\"" + fmt_coord(y + 1) +
             "\" width=\"" + fmt_coord(cell_w - 2) + "\" height=\"" +
             fmt_coord(kCellH - 2) + "\" rx=\"2\" fill=\"" +
             ramp_color(d / max_density) + "\"><title>" +
             html_escape(e.layers[li].name) + " — epoch " +
             std::to_string(e.epoch) + ": density " + fmt(d) +
             "</title></rect>\n";
    }
  }
  // Epoch ticks under the grid (first, middle, last to avoid clutter).
  const std::size_t tick_idx[3] = {0, num_epochs / 2, num_epochs - 1};
  for (std::size_t k = 0; k < 3; ++k) {
    const std::size_t ei = tick_idx[k];
    if (k > 0 && ei == tick_idx[k - 1]) continue;
    const double x = kLabelW + cell_w * (static_cast<double>(ei) + 0.5);
    svg += "<text x=\"" + fmt_coord(x) + "\" y=\"" +
           fmt_coord(kTop + kCellH * static_cast<double>(num_layers) + 16) +
           "\" class=\"tick\" text-anchor=\"middle\">" +
           std::to_string(run.epochs[ei].epoch) + "</text>\n";
  }
  // Ramp key: 0 .. peak density.
  const double key_x = kLabelW + cell_w * static_cast<double>(num_epochs) + 16;
  for (int i = 0; i < 5; ++i) {
    svg += "<rect x=\"" + fmt_coord(key_x + i * 16) + "\" y=\"" +
           fmt_coord(kTop) + "\" width=\"14\" height=\"12\" rx=\"2\" fill=\"" +
           ramp_color(i / 4.0) + "\"/>\n";
  }
  svg += "<text x=\"" + fmt_coord(key_x) + "\" y=\"" + fmt_coord(kTop + 26) +
         "\" class=\"tick\">0 – " + fmt(max_density) + "</text>\n";
  svg += "</svg>\n</figure>\n";
  return svg;
}

std::string render_comparison_table(const std::vector<ParsedLedger>& runs) {
  std::string html;
  html +=
      "<table>\n<thead><tr><th></th><th>Run</th><th>Epochs</th>"
      "<th>Accuracy</th><th>Firing rate</th><th>Latency (µs)</th>"
      "<th>FPS</th><th>Watts</th><th>FPS/W</th><th>Warnings</th>"
      "</tr></thead>\n<tbody>\n";
  for (std::size_t i = 0; i < runs.size(); ++i) {
    const ParsedLedger& run = runs[i];
    const std::string label =
        run.manifest.run_id.empty() ? run.path : run.manifest.run_id;
    double accuracy = final_value(run, "accuracy");
    double firing = final_value(run, "firing_rate");
    if (std::isnan(firing) && !run.epochs.empty())
      firing = run.epochs.back().firing_rate;
    const LedgerEpoch* last = run.epochs.empty() ? nullptr : &run.epochs.back();
    auto final_or_last_hw = [&](const std::string& key) {
      const double v = final_value(run, key);
      if (!std::isnan(v) || !last) return v;
      return hw_value(*last, key);
    };
    html += "<tr><td><span class=\"swatch\" style=\"background:" +
            series_color(i, runs.size()) + "\"></span></td><td>" +
            html_escape(label) +
            (run.manifest_count > 1 ? " <em>(resumed)</em>" : "") + "</td>";
    html += "<td>" + std::to_string(run.epochs.size()) + "</td>";
    html += "<td>" + fmt(accuracy) + "</td>";
    html += "<td>" + fmt(firing) + "</td>";
    html += "<td>" + fmt(final_or_last_hw("latency_us")) + "</td>";
    html += "<td>" + fmt(final_or_last_hw("throughput_fps")) + "</td>";
    html += "<td>" + fmt(final_or_last_hw("watts")) + "</td>";
    html += "<td>" + fmt(final_or_last_hw("fps_per_watt")) + "</td>";
    html += "<td>" + std::to_string(run.warnings.size()) + "</td></tr>\n";
  }
  html += "</tbody>\n</table>\n";
  return html;
}

std::string render_warnings(const std::vector<ParsedLedger>& runs) {
  constexpr std::size_t kMaxRows = 60;
  std::string rows;
  std::size_t shown = 0, total = 0;
  for (const ParsedLedger& run : runs) {
    const std::string label =
        run.manifest.run_id.empty() ? run.path : run.manifest.run_id;
    for (const LedgerWarning& w : run.warnings) {
      ++total;
      if (shown >= kMaxRows) continue;
      ++shown;
      rows += "<tr><td>" + html_escape(label) + "</td><td>" +
              std::to_string(w.epoch) + "</td><td>" + html_escape(w.detector) +
              "</td><td>" + html_escape(w.message) + "</td></tr>\n";
    }
  }
  if (total == 0)
    return "<p class=\"ok\">No spike-health warnings recorded.</p>\n";
  std::string html =
      "<table>\n<thead><tr><th>Run</th><th>Epoch</th><th>Detector</th>"
      "<th>Message</th></tr></thead>\n<tbody>\n" +
      rows + "</tbody>\n</table>\n";
  if (total > shown)
    html += "<p class=\"note\">Showing " + std::to_string(shown) + " of " +
            std::to_string(total) + " warnings.</p>\n";
  return html;
}

/// Serving panels from a sampled request-span log: windowed p50/p99
/// end-to-end latency and mean batch size per wall-clock second, plus the
/// per-stage time breakdown over every recorded span.  The stages tile
/// [recv, send] exactly (obs/spans.h), so the table's stage means sum to
/// the end-to-end mean.
std::string render_serving_section(const std::vector<RequestSpan>& spans) {
  // Bucket spans into 1-second bins of wall time since the first recv.
  std::uint64_t t0 = std::numeric_limits<std::uint64_t>::max();
  for (const RequestSpan& s : spans) t0 = std::min(t0, s.recv_ns);
  std::map<std::uint64_t, std::vector<double>> e2e_by_s;
  std::map<std::uint64_t, std::vector<double>> batch_by_s;
  // Per stage, then end-to-end last: the rows of the breakdown table.
  std::vector<std::vector<double>> rows(kNumStages + 1);
  std::size_t failed = 0;
  for (const RequestSpan& s : spans) {
    if (!s.ok) ++failed;
    const SpanTimes t = span_times(s);
    const std::uint64_t sec = (s.recv_ns - t0) / 1'000'000'000ull;
    e2e_by_s[sec].push_back(t.e2e_us);
    batch_by_s[sec].push_back(static_cast<double>(s.batch));
    for (std::size_t i = 0; i < kNumStages; ++i)
      rows[i].push_back(t.stage_us[i]);
    rows[kNumStages].push_back(t.e2e_us);
  }

  ChartSeries p50{"p50", series_color(0, 2), {}};
  ChartSeries p99{"p99", series_color(1, 2), {}};
  for (auto& [sec, lat] : e2e_by_s) {
    const LatencyStats st = summarize_latencies(lat);
    p50.points.push_back({static_cast<double>(sec), st.p50 / 1e3});
    p99.points.push_back({static_cast<double>(sec), st.p99 / 1e3});
  }
  ChartSeries batch{"mean batch", series_color(0, 1), {}};
  for (auto& [sec, sizes] : batch_by_s) {
    double sum = 0.0;
    for (double b : sizes) sum += b;
    batch.points.push_back(
        {static_cast<double>(sec), sum / static_cast<double>(sizes.size())});
  }

  std::string html = "<h2>Serving</h2>\n";
  html += "<p class=\"meta\">" + std::to_string(spans.size()) +
          " sampled request spans" +
          (failed > 0 ? ", " + std::to_string(failed) + " failed" : "") +
          ".</p>\n";
  html += render_line_chart("Request latency by wall-clock second",
                            "seconds", "latency (ms)", {p50, p99});
  html += render_line_chart("Mean batch size by wall-clock second", "seconds",
                            "requests / batch", {batch});

  // Stage breakdown table over all spans.
  html +=
      "<table>\n<thead><tr><th>Stage</th><th>Mean (µs)</th><th>p50 (µs)</th>"
      "<th>p99 (µs)</th><th>Max (µs)</th></tr></thead>\n<tbody>\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const LatencyStats st = summarize_latencies(rows[i]);
    const char* name = i < kNumStages ? stage_name(i) : "end-to-end";
    html += std::string("<tr><td>") + name + "</td><td>" + fmt(st.mean) +
            "</td><td>" + fmt(st.p50) + "</td><td>" + fmt(st.p99) +
            "</td><td>" + fmt(st.max) + "</td></tr>\n";
  }
  html += "</tbody>\n</table>\n";
  return html;
}

/// Post-mortem panel from a spiketune_flightdump merged timeline: what the
/// process was doing in its final moments.  The crash header line carries
/// the signal and build fingerprint; the counts table says which subsystems
/// were active; the tail table walks the last events into the crash.
std::string render_postmortem_section(const PostmortemTimeline& pm) {
  std::string html = "<h2>Post-mortem</h2>\n";
  if (pm.has_crash) {
    html += "<p class=\"meta\">Process died with <strong>" +
            html_escape(pm.signame) + "</strong> (signal " +
            std::to_string(pm.signal) + ")";
    if (!pm.build.empty())
      html += " &mdash; build " + html_escape(pm.build);
    if (!pm.fingerprint.empty())
      html += ", fingerprint <code>" + html_escape(pm.fingerprint) +
              "</code>";
    html += ". Flight recorder: " + std::to_string(pm.events) +
            " events decoded across " + std::to_string(pm.threads) +
            " threads (" + std::to_string(pm.torn) + " torn, " +
            std::to_string(pm.dropped) + " dropped).</p>\n";
  } else {
    html += "<p class=\"meta\">" + std::to_string(pm.entries.size()) +
            " timeline entries (no crash recorded).</p>\n";
  }
  if (pm.entries.empty()) return html;

  // Which subsystems were active, by event name.
  std::map<std::string, std::size_t> counts;
  for (const TimelineEntry& e : pm.entries) ++counts[e.event];
  html +=
      "<table>\n<thead><tr><th>Event</th><th>Count</th></tr></thead>\n"
      "<tbody>\n";
  for (const auto& [name, n] : counts)
    html += "<tr><td>" + html_escape(name) + "</td><td>" +
            std::to_string(n) + "</td></tr>\n";
  html += "</tbody>\n</table>\n";

  // The tail of the merged timeline, newest last, timestamps relative to
  // the final entry (the crash, when one was recorded).
  constexpr std::size_t kTailRows = 40;
  const std::size_t first =
      pm.entries.size() > kTailRows ? pm.entries.size() - kTailRows : 0;
  const std::uint64_t t_end = pm.entries.back().ts_ns;
  html += "<h3>Final " + std::to_string(pm.entries.size() - first) +
          " timeline entries</h3>\n";
  html +=
      "<table>\n<thead><tr><th>t &minus; end (ms)</th><th>Kind</th>"
      "<th>Thread</th><th>Event</th><th>a0</th><th>a1</th></tr></thead>\n"
      "<tbody>\n";
  for (std::size_t i = first; i < pm.entries.size(); ++i) {
    const TimelineEntry& e = pm.entries[i];
    const double dt_ms =
        -static_cast<double>(t_end - e.ts_ns) / 1e6;  // <= 0, 0 = the end
    html += "<tr><td>" + fmt(dt_ms) + "</td><td>" + html_escape(e.kind) +
            "</td><td>" + std::to_string(e.thread) + "</td><td>" +
            html_escape(e.event) + "</td><td>" + std::to_string(e.a0) +
            "</td><td>" + std::to_string(e.a1) + "</td></tr>\n";
  }
  html += "</tbody>\n</table>\n";
  if (first > 0)
    html += "<p class=\"note\">Showing the final " +
            std::to_string(pm.entries.size() - first) + " of " +
            std::to_string(pm.entries.size()) + " entries.</p>\n";
  return html;
}

const char* kCss = R"css(
:root {
  --bg: #ffffff; --panel: #f6f8fa; --border: #d0d7de;
  --text: #1f2328; --text2: #57606a; --muted: #6e7781; --grid: #d8dee4;
  --ok: #008300;
  --s0: #2a78d6; --s1: #eb6834; --s2: #1baf7a; --s3: #eda100;
  --s4: #e87ba4; --s5: #008300; --s6: #4a3aa7; --s7: #e34948;
  --other: #8a8f98;
}
@media (prefers-color-scheme: dark) {
  :root {
    --bg: #0d1117; --panel: #161b22; --border: #30363d;
    --text: #e6edf3; --text2: #9ea7b3; --muted: #848d97; --grid: #2d333b;
    --ok: #55b855;
    --s0: #6ea8e8; --s1: #f09067; --s2: #4ecba0; --s3: #f4bf4f;
    --s4: #f0a6c2; --s5: #55b855; --s6: #8b7fd4; --s7: #ef8482;
    --other: #8a8f98;
  }
}
body {
  margin: 0 auto; max-width: 980px; padding: 24px;
  background: var(--bg); color: var(--text);
  font: 14px/1.5 system-ui, -apple-system, "Segoe UI", sans-serif;
}
h1 { font-size: 20px; } h2 { font-size: 16px; margin-top: 32px; }
p.meta, p.note { color: var(--text2); } p.ok { color: var(--ok); }
table { border-collapse: collapse; width: 100%; margin: 8px 0; }
th, td { text-align: left; padding: 5px 10px; border-bottom: 1px solid var(--border); }
th { color: var(--text2); font-weight: 600; }
tbody tr:hover { background: var(--panel); }
figure.chart { margin: 16px 0; padding: 12px; background: var(--panel);
  border: 1px solid var(--border); border-radius: 8px; }
figure.chart figcaption { color: var(--text); font-weight: 600; margin-bottom: 6px; }
figure.chart svg { width: 100%; height: auto; display: block; }
svg .grid { stroke: var(--grid); stroke-width: 1; }
svg .tick { fill: var(--muted); font-size: 11px; }
svg .axis { fill: var(--text2); font-size: 12px; }
svg .label { fill: var(--text2); font-size: 11px; }
.legend { display: flex; flex-wrap: wrap; gap: 4px 16px; margin-top: 8px;
  color: var(--text2); font-size: 12px; }
.legend .key { display: inline-flex; align-items: center; gap: 6px; }
.swatch { display: inline-block; width: 10px; height: 10px; border-radius: 3px; }
)css";

}  // namespace

std::string render_dashboard_html(const std::vector<ParsedLedger>& runs,
                                  const std::vector<RequestSpan>& spans,
                                  const PostmortemTimeline& postmortem,
                                  const DashboardOptions& options) {
  ST_REQUIRE(!runs.empty(), "render_dashboard_html needs at least one run");

  std::string html;
  html += "<!DOCTYPE html>\n<html lang=\"en\">\n<head>\n";
  html += "<meta charset=\"utf-8\">\n";
  html +=
      "<meta name=\"viewport\" content=\"width=device-width, "
      "initial-scale=1\">\n";
  html += "<title>" + html_escape(options.title) + "</title>\n";
  html += "<style>" + std::string(kCss) + "</style>\n</head>\n<body>\n";
  html += "<h1>" + html_escape(options.title) + "</h1>\n";

  std::size_t total_epochs = 0;
  for (const ParsedLedger& run : runs) total_epochs += run.epochs.size();
  html += "<p class=\"meta\">" + std::to_string(runs.size()) + " run" +
          (runs.size() == 1 ? "" : "s") + ", " + std::to_string(total_epochs) +
          " epoch records. Self-contained; generated by spiketune "
          "render_dashboard.</p>\n";

  html += "<h2>Runs</h2>\n" + render_comparison_table(runs);

  html += "<h2>Trajectories</h2>\n";
  html += render_line_chart(
      "Train accuracy by epoch", "epoch", "train accuracy",
      trajectory_series(runs, [](const LedgerEpoch& e) {
        return e.train_accuracy;
      }));
  html += render_line_chart(
      "Mean firing rate by epoch", "epoch", "spikes / neuron / step",
      trajectory_series(runs,
                        [](const LedgerEpoch& e) { return e.firing_rate; }));
  const std::string fps_chart = render_line_chart(
      "Projected FPS/W by epoch", "epoch", "FPS per watt",
      trajectory_series(runs, [](const LedgerEpoch& e) {
        return hw_value(e, "fps_per_watt");
      }));
  if (!fps_chart.empty()) html += fps_chart;

  html += "<h2>Per-layer density</h2>\n";
  const std::size_t max_heatmaps =
      std::min<std::size_t>(runs.size(), kPaletteSize);
  for (std::size_t i = 0; i < max_heatmaps; ++i)
    html += render_heatmap(runs[i]);
  if (max_heatmaps < runs.size())
    html += "<p class=\"note\">Heatmaps shown for the first " +
            std::to_string(max_heatmaps) + " of " +
            std::to_string(runs.size()) + " runs.</p>\n";

  if (!spans.empty()) html += render_serving_section(spans);
  if (postmortem.has_crash || !postmortem.entries.empty())
    html += render_postmortem_section(postmortem);

  html += "<h2>Spike-health warnings</h2>\n" + render_warnings(runs);
  html += "</body>\n</html>\n";
  return html;
}

void write_dashboard_html(const std::string& path,
                          const std::vector<ParsedLedger>& runs,
                          const std::vector<RequestSpan>& spans,
                          const PostmortemTimeline& postmortem,
                          const DashboardOptions& options) {
  std::ofstream out(path, std::ios::trunc);
  ST_REQUIRE(out.good(), "cannot open dashboard output: " + path);
  out << render_dashboard_html(runs, spans, postmortem, options);
  out.flush();
  ST_REQUIRE(out.good(), "failed writing dashboard: " + path);
}

void write_ledger_csv(const std::string& path,
                      const std::vector<ParsedLedger>& runs) {
  std::ofstream out(path, std::ios::trunc);
  ST_REQUIRE(out.good(), "cannot open CSV output: " + path);
  out << "run_id,epoch,train_loss,train_accuracy,lr,grad_norm_mean,"
         "grad_norm_max,firing_rate,latency_us,throughput_fps,watts,"
         "fps_per_watt\n";
  auto cell = [](double v) { return std::isnan(v) ? std::string() : fmt(v); };
  for (const ParsedLedger& run : runs) {
    const std::string label =
        run.manifest.run_id.empty() ? run.path : run.manifest.run_id;
    // Quote only when the label needs it, like core/csv does.
    std::string quoted = label;
    if (label.find_first_of(",\"\n") != std::string::npos) {
      quoted = "\"";
      for (char c : label) {
        if (c == '"') quoted += "\"\"";
        else quoted += c;
      }
      quoted += '"';
    }
    for (const LedgerEpoch& e : run.epochs) {
      out << quoted << ',' << e.epoch << ',' << fmt(e.train_loss) << ','
          << fmt(e.train_accuracy) << ',' << fmt(e.lr) << ','
          << fmt(e.grad_norm_mean) << ',' << fmt(e.grad_norm_max) << ','
          << fmt(e.firing_rate) << ',' << cell(hw_value(e, "latency_us"))
          << ',' << cell(hw_value(e, "throughput_fps")) << ','
          << cell(hw_value(e, "watts")) << ','
          << cell(hw_value(e, "fps_per_watt")) << '\n';
    }
  }
  out.flush();
  ST_REQUIRE(out.good(), "failed writing CSV: " + path);
}

}  // namespace spiketune::obs
