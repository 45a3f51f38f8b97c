#include "exp/sweep.h"

#include <sstream>

#include "core/error.h"
#include "core/logging.h"
#include "exp/journal.h"
#include "exp/ledger_flags.h"

namespace spiketune::exp {

std::vector<double> fig1_scales() {
  return {0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0};
}

std::vector<double> fig2_betas() { return {0.25, 0.4, 0.5, 0.7, 0.9}; }

std::vector<double> fig2_thetas() { return {0.5, 1.0, 1.5, 2.0, 2.5}; }

namespace {

void apply_point_options(const SweepOptions& options, const std::string& key,
                         ExperimentConfig& cfg) {
  // Point keys double as checkpoint/ledger names; sanitize_run_id keeps
  // them filesystem-safe.
  if (!options.checkpoint_root.empty()) {
    cfg.trainer.checkpoint_dir =
        options.checkpoint_root + "/" + sanitize_run_id(key);
    cfg.trainer.resume = options.resume;
  }
  if (!options.ledger_root.empty()) {
    cfg.ledger.dir = options.ledger_root;
    cfg.ledger.run_id = key;  // sanitized again when the stream opens
    cfg.ledger.argv = options.argv;
    // Namespace this point's per-layer firing-rate gauges.
    cfg.trainer.run_tag = sanitize_run_id(key);
  }
}

/// The one sweep loop.  For each point, in order: builds its key with
/// `key_of`, reports progress, and on resume restores a journaled "done"
/// result (a "failed" entry is re-attempted; its new entry supersedes the
/// failure on replay).  Otherwise it trains `base` changed by `configure`
/// and records the outcome; a throwing point is marked failed and the sweep
/// goes on.
template <typename Point, typename KeyOf, typename Configure>
std::vector<Point> run_sweep(const ExperimentConfig& base,
                             std::vector<Point> points,
                             const Progress& progress,
                             const SweepOptions& options, KeyOf key_of,
                             Configure configure) {
  validate(base);  // fail fast before hours of training
  SweepJournal journal = options.journal_path.empty()
                             ? SweepJournal()
                             : SweepJournal(options.journal_path);
  for (std::size_t i = 0; i < points.size(); ++i) {
    Point& p = points[i];
    const std::string key = key_of(p);
    if (progress) progress(i, points.size(), key);
    const JournalEntry* entry =
        options.resume ? journal.find(key) : nullptr;
    if (entry && entry->status == "done") {
      p.result = entry->result;
      p.from_journal = true;
      continue;
    }
    try {
      ExperimentConfig cfg = base;
      configure(p, cfg);
      apply_point_options(options, key, cfg);
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

}  // namespace

std::vector<SurrogateSweepPoint> run_surrogate_sweep(
    const ExperimentConfig& base, const std::vector<std::string>& surrogates,
    const std::vector<double>& scales, const Progress& progress,
    const SweepOptions& options) {
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
  return run_sweep(
      base, std::move(points), progress, options,
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
    const SweepOptions& options) {
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
  return run_sweep(
      base, std::move(points), progress, options,
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

void declare_sweep_flags(CliFlags& flags) {
  flags.declare("journal", "",
                "JSONL sweep journal; each point is recorded as it finishes "
                "(empty = off)");
  flags.declare("resume", "false",
                "skip points the journal already marks done");
  flags.declare("checkpoint-root", "",
                "root directory for per-point training checkpoints "
                "(empty = off)");
  flags.declare("ledger", "",
                "directory for per-point run ledgers (one JSONL stream per "
                "sweep point; empty = off; render with render_dashboard)");
}

SweepOptions sweep_options_from_flags(const CliFlags& flags, int argc,
                                      char** argv) {
  SweepOptions options;
  options.journal_path = flags.get("journal");
  options.resume = flags.get_bool("resume");
  options.checkpoint_root = flags.get("checkpoint-root");
  options.ledger_root = flags.get("ledger");
  if (argc > 0 && argv) options.argv = join_argv(argc, argv);
  return options;
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
