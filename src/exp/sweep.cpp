#include "exp/sweep.h"

#include <iostream>
#include <sstream>

#include "core/error.h"
#include "core/logging.h"
#include "exp/journal.h"

namespace spiketune::exp {

std::vector<double> fig1_scales() {
  return {0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0};
}

std::vector<double> fig2_betas() { return {0.25, 0.4, 0.5, 0.7, 0.9}; }

std::vector<double> fig2_thetas() { return {0.5, 1.0, 1.5, 2.0, 2.5}; }

void print_progress(std::size_t index, std::size_t total,
                    const std::string& key) {
  std::cout << "[" << (index + 1) << "/" << total << "] training " << key
            << "...\n"
            << std::flush;
}

std::vector<SweepPoint> run_sweep(const ExperimentConfig& base,
                                  const std::vector<SweepSpec>& specs,
                                  const Progress& progress,
                                  const std::string& journal_path) {
  validate(base);  // fail fast before hours of training
  SweepJournal journal =
      journal_path.empty() ? SweepJournal() : SweepJournal(journal_path);
  std::vector<SweepPoint> points(specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const std::string& key = specs[i].key;
    SweepPoint& p = points[i];
    if (progress) progress(i, specs.size(), key);
    // A journaled "failed" entry is re-attempted; its new entry supersedes
    // the failure on replay.
    const JournalEntry* entry =
        base.trainer.resume ? journal.find(key) : nullptr;
    if (entry && entry->status == "done") {
      p.result = entry->result;
      p.from_journal = true;
      continue;
    }
    try {
      ExperimentConfig cfg = base;
      specs[i].configure(cfg);
      // Point keys double as checkpoint/ledger names; sanitize_run_id keeps
      // them filesystem-safe.
      const std::string name = sanitize_run_id(key);
      if (!cfg.trainer.checkpoint_dir.empty())
        cfg.trainer.checkpoint_dir += "/" + name;
      if (!cfg.ledger.dir.empty()) {
        cfg.ledger.run_id = key;     // sanitized again when the stream opens
        cfg.trainer.run_tag = name;  // namespaces the firing-rate gauges
      }
      p.result = run_experiment(cfg);
      journal.record_done(key, p.result);
    } catch (const std::exception& ex) {
      p.status = "failed";
      p.error = ex.what();
      journal.record_failed(key, ex.what());
      ST_LOG_WARN << "sweep point '" << key << "' failed: " << ex.what();
    }
  }
  return points;
}

namespace {

/// Runs typed points through run_sweep: `key_of` names a point, `configure`
/// applies it to a config, and each result lands in its point.
template <typename Point, typename KeyOf, typename Configure>
std::vector<Point> run_typed_sweep(const ExperimentConfig& base,
                                   std::vector<Point> points,
                                   const Progress& progress,
                                   const std::string& journal_path,
                                   KeyOf key_of, Configure configure) {
  std::vector<SweepSpec> specs;
  for (const Point& p : points)
    specs.push_back({key_of(p), [&p, &configure](ExperimentConfig& cfg) {
                       configure(p, cfg);
                     }});
  const auto done = run_sweep(base, specs, progress, journal_path);
  for (std::size_t i = 0; i < points.size(); ++i)
    static_cast<SweepPoint&>(points[i]) = done[i];
  return points;
}

}  // namespace

std::vector<SurrogateSweepPoint> run_surrogate_sweep(
    const ExperimentConfig& base, const std::vector<std::string>& surrogates,
    const std::vector<double>& scales, const Progress& progress,
    const std::string& journal_path) {
  ST_REQUIRE(!surrogates.empty() && !scales.empty(),
             "sweep grids must not be empty");
  std::vector<SurrogateSweepPoint> points;
  for (const auto& surrogate : surrogates) {
    for (double scale : scales) {
      SurrogateSweepPoint& p = points.emplace_back();
      p.surrogate = surrogate;
      p.scale = scale;
    }
  }
  return run_typed_sweep(
      base, std::move(points), progress, journal_path,
      [](const SurrogateSweepPoint& p) {
        std::ostringstream key;
        key << p.surrogate << " scale=" << p.scale;
        return key.str();
      },
      [](const SurrogateSweepPoint& p, ExperimentConfig& cfg) {
        cfg.model.lif.surrogate =
            snn::Surrogate::by_name(p.surrogate, static_cast<float>(p.scale));
      });
}

std::vector<BetaThetaPoint> run_beta_theta_sweep(
    const ExperimentConfig& base, const std::vector<double>& betas,
    const std::vector<double>& thetas, const Progress& progress,
    const std::string& journal_path) {
  ST_REQUIRE(!betas.empty() && !thetas.empty(),
             "sweep grids must not be empty");
  std::vector<BetaThetaPoint> points;
  for (double beta : betas) {
    for (double theta : thetas) {
      BetaThetaPoint& p = points.emplace_back();
      p.beta = beta;
      p.theta = theta;
    }
  }
  return run_typed_sweep(
      base, std::move(points), progress, journal_path,
      [](const BetaThetaPoint& p) {
        std::ostringstream key;
        key << "beta=" << p.beta << " theta=" << p.theta;
        return key.str();
      },
      [](const BetaThetaPoint& p, ExperimentConfig& cfg) {
        cfg.model.lif.surrogate = snn::Surrogate::fast_sigmoid(
            static_cast<float>(kFig2FastSigmoidSlope));
        cfg.model.lif.beta = static_cast<float>(p.beta);
        cfg.model.lif.threshold = static_cast<float>(p.theta);
      });
}

std::vector<double> parse_double_list(const std::string& csv) {
  std::vector<double> out;
  std::size_t pos = 0;
  while (pos <= csv.size()) {
    const std::size_t comma = csv.find(',', pos);
    const std::string item =
        csv.substr(pos, comma == std::string::npos ? csv.size() - pos
                                                   : comma - pos);
    std::size_t used = 0;
    double value = 0.0;
    try {
      value = std::stod(item, &used);
    } catch (const std::exception&) {
      throw InvalidArgument("bad number in list: '" + item + "'");
    }
    ST_REQUIRE(used == item.size(), "bad number in list: '" + item + "'");
    out.push_back(value);
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  return out;
}

}  // namespace spiketune::exp
