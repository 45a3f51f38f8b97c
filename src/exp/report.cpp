#include "exp/report.h"

#include <algorithm>
#include <limits>
#include <map>
#include <sstream>

#include "core/csv.h"
#include "core/error.h"
#include "core/table.h"
#include "hw/baseline.h"

namespace spiketune::exp {

namespace {

// A sweep CSV row: the point's coordinate cells, then every in_csv result
// field in table order, then status.  in_csv keeps wall-clock fields such
// as train_seconds out, so the CSV is byte-identical across thread counts
// and journal resumes.
std::vector<std::string> csv_header(std::vector<std::string> coords) {
  for (const ResultField& field : kResultFields)
    if (field.in_csv) coords.push_back(field.name);
  coords.push_back("status");
  return coords;
}

std::vector<std::string> csv_row(std::vector<std::string> coords,
                                 const SweepPoint& p) {
  for (const ResultField& field : kResultFields)
    if (field.in_csv) coords.push_back(CsvWriter::cell(p.result.*field.member));
  coords.push_back(p.status);
  return coords;
}

}  // namespace

std::string render_fig1(const std::vector<SurrogateSweepPoint>& points) {
  ST_REQUIRE(!points.empty(), "no sweep points to render");
  // Group by scale; one column block per surrogate, in first-seen order.
  std::vector<std::string> surrogates;
  std::vector<double> scales;
  for (const auto& p : points) {
    if (std::find(surrogates.begin(), surrogates.end(), p.surrogate) ==
        surrogates.end())
      surrogates.push_back(p.surrogate);
    if (std::find(scales.begin(), scales.end(), p.scale) == scales.end())
      scales.push_back(p.scale);
  }
  auto find_point = [&](const std::string& s,
                        double scale) -> const SurrogateSweepPoint* {
    for (const auto& p : points)
      if (p.surrogate == s && p.scale == scale) return &p;
    return nullptr;
  };

  std::vector<std::string> header{"scale"};
  for (const auto& s : surrogates) {
    header.push_back(s + " acc");
    header.push_back(s + " fire-rate");
    header.push_back(s + " FPS/W");
  }
  AsciiTable table(std::move(header));
  table.set_title(
      "Figure 1 — accuracy & accelerator efficiency vs derivative scale");
  for (double scale : scales) {
    std::vector<std::string> row{fmt_f(scale, 2)};
    for (const auto& s : surrogates) {
      const auto* p = find_point(s, scale);
      if (p && p->status == "done") {
        row.push_back(fmt_pct(p->result.accuracy, 2));
        row.push_back(fmt_pct(p->result.firing_rate, 2));
        row.push_back(fmt_f(p->result.fps_per_watt, 1));
      } else if (p) {
        row.insert(row.end(), {"fail", "fail", "fail"});
      } else {
        row.insert(row.end(), {"-", "-", "-"});
      }
    }
    table.add_row(std::move(row));
  }

  std::ostringstream os;
  os << table.render();
  const auto ref = hw::prior_work_reference();
  os << "green line (prior work [6] accuracy): " << fmt_pct(ref.accuracy, 1)
     << "\n";
  // Paper headline: fast sigmoid reaches similar accuracy at lower firing
  // rate -> higher FPS/W.  Report the cross-surrogate efficiency ratio at
  // each surrogate's best-accuracy point (failed points excluded).
  if (surrogates.size() >= 2) {
    std::map<std::string, const SurrogateSweepPoint*> best;
    for (const auto& p : points) {
      if (p.status != "done") continue;
      auto& slot = best[p.surrogate];
      if (!slot || p.result.accuracy > slot->result.accuracy) slot = &p;
    }
    os << "best-accuracy points:\n";
    for (const auto& s : surrogates) {
      const auto* p = best[s];
      if (!p) {
        os << "  " << s << ": no successful points\n";
        continue;
      }
      os << "  " << s << ": scale=" << fmt_f(p->scale, 2)
         << " acc=" << fmt_pct(p->result.accuracy, 2)
         << " fire-rate=" << fmt_pct(p->result.firing_rate, 2)
         << " FPS/W=" << fmt_f(p->result.fps_per_watt, 1) << "\n";
    }
    const auto* a = best[surrogates[0]];
    const auto* b = best[surrogates[1]];
    if (a && b && a->result.fps_per_watt > 0.0) {
      const double ratio = b->result.fps_per_watt / a->result.fps_per_watt;
      os << "efficiency " << surrogates[1] << " vs " << surrogates[0] << ": "
         << fmt_x(ratio, 2) << " (paper: fast sigmoid ~1.11x arctangent)\n";
    }
  }
  os << failure_note({points.begin(), points.end()});
  return os.str();
}

std::size_t best_accuracy_index(const std::vector<BetaThetaPoint>& points) {
  ST_REQUIRE(!points.empty(), "no points");
  std::size_t best = points.size();
  for (std::size_t i = 0; i < points.size(); ++i) {
    if (points[i].status != "done") continue;
    if (best == points.size() ||
        points[i].result.accuracy > points[best].result.accuracy)
      best = i;
  }
  ST_REQUIRE(best < points.size(), "no successful sweep points");
  return best;
}

std::size_t latency_knee_index(const std::vector<BetaThetaPoint>& points,
                               double max_accuracy_drop) {
  const std::size_t best = best_accuracy_index(points);
  const double floor = points[best].result.accuracy - max_accuracy_drop;
  std::size_t knee = best;
  double best_latency = points[best].result.latency_us;
  for (std::size_t i = 0; i < points.size(); ++i) {
    if (points[i].status != "done") continue;
    if (points[i].result.accuracy < floor) continue;
    if (points[i].result.latency_us < best_latency) {
      best_latency = points[i].result.latency_us;
      knee = i;
    }
  }
  return knee;
}

std::string render_fig2(const std::vector<BetaThetaPoint>& points) {
  ST_REQUIRE(!points.empty(), "no sweep points to render");
  std::vector<double> betas;
  std::vector<double> thetas;
  for (const auto& p : points) {
    if (std::find(betas.begin(), betas.end(), p.beta) == betas.end())
      betas.push_back(p.beta);
    if (std::find(thetas.begin(), thetas.end(), p.theta) == thetas.end())
      thetas.push_back(p.theta);
  }
  auto find_point = [&](double beta, double theta) -> const BetaThetaPoint* {
    for (const auto& p : points)
      if (p.beta == beta && p.theta == theta) return &p;
    return nullptr;
  };

  std::ostringstream os;
  for (int metric = 0; metric < 2; ++metric) {
    std::vector<std::string> header{"beta \\ theta"};
    for (double t : thetas) header.push_back(fmt_f(t, 2));
    AsciiTable table(std::move(header));
    table.set_title(metric == 0
                        ? "Figure 2a — accuracy over beta x theta"
                        : "Figure 2b — inference latency (us) over beta x theta");
    for (double b : betas) {
      std::vector<std::string> row{fmt_f(b, 2)};
      for (double t : thetas) {
        const auto* p = find_point(b, t);
        if (!p) {
          row.push_back("-");
        } else if (p->status != "done") {
          row.push_back("fail");
        } else if (metric == 0) {
          row.push_back(fmt_pct(p->result.accuracy, 2));
        } else {
          row.push_back(fmt_f(p->result.latency_us, 1));
        }
      }
      table.add_row(std::move(row));
    }
    os << table.render();
  }

  const std::size_t best = best_accuracy_index(points);
  // Paper's knee tolerance: 2.88% absolute accuracy; we search with a
  // slightly wider envelope (3.5%) to be robust to the smaller profile.
  const std::size_t knee = latency_knee_index(points, 0.035);
  const auto& pb = points[best];
  const auto& pk = points[knee];
  const double latency_cut =
      1.0 - pk.result.latency_us / pb.result.latency_us;
  const double acc_drop = pb.result.accuracy - pk.result.accuracy;
  os << "best accuracy: beta=" << fmt_f(pb.beta, 2)
     << " theta=" << fmt_f(pb.theta, 2)
     << " acc=" << fmt_pct(pb.result.accuracy, 2)
     << " latency=" << fmt_f(pb.result.latency_us, 1) << " us\n";
  os << "latency knee:  beta=" << fmt_f(pk.beta, 2)
     << " theta=" << fmt_f(pk.theta, 2)
     << " acc=" << fmt_pct(pk.result.accuracy, 2)
     << " latency=" << fmt_f(pk.result.latency_us, 1) << " us\n";
  os << "knee vs best-accuracy: latency -" << fmt_pct(latency_cut, 1)
     << " for accuracy -" << fmt_pct(acc_drop, 2)
     << "  (paper: -48% latency for -2.88% accuracy at beta=0.5, "
        "theta=1.5)\n";
  os << failure_note({points.begin(), points.end()});
  return os.str();
}

void write_fig1_csv(const std::vector<SurrogateSweepPoint>& points,
                    const std::string& path) {
  CsvWriter csv(path, csv_header({"surrogate", "scale"}));
  for (const auto& p : points)
    csv.write_row(csv_row({p.surrogate, CsvWriter::cell(p.scale)}, p));
}

void write_fig2_csv(const std::vector<BetaThetaPoint>& points,
                    const std::string& path) {
  CsvWriter csv(path, csv_header({"beta", "theta"}));
  for (const auto& p : points)
    csv.write_row(
        csv_row({CsvWriter::cell(p.beta), CsvWriter::cell(p.theta)}, p));
}

std::string failure_note(const std::vector<SweepPoint>& points) {
  std::size_t failed = 0;
  for (const auto& p : points)
    if (p.status != "done") ++failed;
  if (failed == 0) return "";
  std::ostringstream os;
  os << "WARNING: " << failed << " of " << points.size()
     << " sweep point(s) FAILED (marked 'fail' above); their metrics are "
        "excluded from the analysis\n";
  for (const auto& p : points)
    if (p.status != "done") os << "  failed: " << p.error << "\n";
  return os.str();
}

std::vector<std::string> point_row(std::vector<std::string> row,
                                   const SweepPoint& point,
                                   const std::vector<std::string>& cells) {
  for (const auto& cell : cells)
    row.push_back(point.status == "done" ? cell : "fail");
  return row;
}

}  // namespace spiketune::exp
