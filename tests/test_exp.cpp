// Experiment harness tests: profiles, sweep grids, selection helpers,
// report rendering, and the drivers' shared flags and front door
// (smoke-scale end-to-end runs live in test_integration).
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "core/cli.h"
#include "core/error.h"
#include "exp/report.h"
#include "exp/standard_flags.h"
#include "exp/sweep.h"

namespace spiketune::exp {
namespace {

TEST(Profile, Names) {
  EXPECT_EQ(profile_by_name("fast"), Profile::kFast);
  EXPECT_EQ(profile_by_name("paper"), Profile::kPaper);
  EXPECT_EQ(profile_by_name("smoke"), Profile::kSmoke);
  EXPECT_THROW(profile_by_name("huge"), InvalidArgument);
  EXPECT_STREQ(profile_name(Profile::kFast), "fast");
}

TEST(Profile, PresetsScaleSensibly) {
  const auto smoke = ExperimentConfig::for_profile(Profile::kSmoke);
  const auto fast = ExperimentConfig::for_profile(Profile::kFast);
  const auto paper = ExperimentConfig::for_profile(Profile::kPaper);
  EXPECT_LT(smoke.train_size, fast.train_size);
  EXPECT_LT(fast.train_size, paper.train_size);
  EXPECT_EQ(paper.image_size, 32);       // paper trains on 32x32 SVHN crops
  EXPECT_EQ(paper.trainer.epochs, 25);   // cosine annealing over 25 epochs
  EXPECT_EQ(smoke.model.image_size, smoke.image_size);
}

TEST(Grids, Fig1ScalesMatchPaperRange) {
  const auto scales = fig1_scales();
  EXPECT_EQ(scales.front(), 0.5);  // paper sweeps 0.5 .. 32
  EXPECT_EQ(scales.back(), 32.0);
  for (std::size_t i = 1; i < scales.size(); ++i)
    EXPECT_DOUBLE_EQ(scales[i], scales[i - 1] * 2.0);  // log2 grid
}

TEST(Grids, Fig2CoversPaperOperatingPoints) {
  const auto betas = fig2_betas();
  const auto thetas = fig2_thetas();
  auto has = [](const std::vector<double>& v, double x) {
    for (double e : v)
      if (e == x) return true;
    return false;
  };
  EXPECT_TRUE(has(betas, 0.25));  // default
  EXPECT_TRUE(has(betas, 0.5));   // latency knee
  EXPECT_TRUE(has(betas, 0.7));   // prior-work comparison point
  EXPECT_TRUE(has(thetas, 1.0));  // default
  EXPECT_TRUE(has(thetas, 1.5));  // knee / comparison
}

std::vector<BetaThetaPoint> fake_grid() {
  // Synthetic grid with a known best-accuracy point and a known knee.
  auto mk = [](double beta, double theta, double acc, double lat) {
    BetaThetaPoint p;
    p.beta = beta;
    p.theta = theta;
    p.result.accuracy = acc;
    p.result.latency_us = lat;
    return p;
  };
  return {
      mk(0.25, 1.0, 0.90, 100.0),  // best accuracy, slow
      mk(0.50, 1.5, 0.88, 52.0),   // knee: within 3.5%, much faster
      mk(0.90, 2.5, 0.70, 30.0),   // fastest but accuracy collapsed
      mk(0.40, 1.0, 0.895, 95.0),
  };
}

TEST(Selection, BestAccuracyIndex) {
  const auto grid = fake_grid();
  EXPECT_EQ(best_accuracy_index(grid), 0u);
}

TEST(Selection, LatencyKneeRespectsAccuracyBudget) {
  const auto grid = fake_grid();
  EXPECT_EQ(latency_knee_index(grid, 0.035), 1u);
  // Tight budget excludes the knee; falls back to a compliant point.
  EXPECT_EQ(latency_knee_index(grid, 0.006), 3u);
  // Huge budget allows the collapsed point.
  EXPECT_EQ(latency_knee_index(grid, 0.5), 2u);
}

TEST(Report, Fig2RendersTablesAndKnee) {
  const std::string s = render_fig2(fake_grid());
  EXPECT_NE(s.find("Figure 2a"), std::string::npos);
  EXPECT_NE(s.find("Figure 2b"), std::string::npos);
  EXPECT_NE(s.find("latency knee"), std::string::npos);
  EXPECT_NE(s.find("beta=0.50"), std::string::npos);
}

TEST(Report, Fig1RendersSeries) {
  std::vector<SurrogateSweepPoint> pts;
  for (const char* s : {"arctan", "fast_sigmoid"}) {
    for (double scale : {0.5, 1.0}) {
      SurrogateSweepPoint p;
      p.surrogate = s;
      p.scale = scale;
      p.result.accuracy = 0.8 + 0.01 * scale;
      p.result.firing_rate = 0.2;
      p.result.fps_per_watt = 100.0 + scale;
      pts.push_back(p);
    }
  }
  const std::string out = render_fig1(pts);
  EXPECT_NE(out.find("arctan acc"), std::string::npos);
  EXPECT_NE(out.find("fast_sigmoid FPS/W"), std::string::npos);
  EXPECT_NE(out.find("green line"), std::string::npos);
  EXPECT_NE(out.find("efficiency fast_sigmoid vs arctan"), std::string::npos);
}

TEST(Report, CsvWritersProduceFiles) {
  std::vector<SurrogateSweepPoint> pts(1);
  pts[0].surrogate = "arctan";
  pts[0].scale = 2.0;
  const std::string p1 = ::testing::TempDir() + "/fig1.csv";
  write_fig1_csv(pts, p1);
  std::ifstream f1(p1);
  EXPECT_TRUE(f1.good());
  std::string header;
  std::getline(f1, header);
  EXPECT_NE(header.find("fps_per_watt"), std::string::npos);
  std::remove(p1.c_str());

  std::vector<BetaThetaPoint> bts(1);
  bts[0].beta = 0.5;
  bts[0].theta = 1.5;
  const std::string p2 = ::testing::TempDir() + "/fig2.csv";
  write_fig2_csv(bts, p2);
  std::ifstream f2(p2);
  EXPECT_TRUE(f2.good());
  std::remove(p2.c_str());
}

TEST(Report, EmptySweepThrows) {
  EXPECT_THROW(render_fig1({}), InvalidArgument);
  EXPECT_THROW(render_fig2({}), InvalidArgument);
  EXPECT_THROW(best_accuracy_index({}), InvalidArgument);
}

// ------------------------------------------------------------ driver flags

/// An argv whose strings outlive the call (argv[0] is the program name).
struct Argv {
  explicit Argv(std::vector<std::string> args) : strings(std::move(args)) {
    for (auto& s : strings) pointers.push_back(s.data());
  }
  int argc() const { return static_cast<int>(pointers.size()); }
  char** argv() { return pointers.data(); }
  std::vector<std::string> strings;
  std::vector<char*> pointers;
};

/// Declares the `kind` flag set, parses `args` and applies it to `config`.
StandardFlags apply_to(DriverKind kind, ExperimentConfig& config,
                       const std::vector<std::string>& args) {
  CliFlags flags;
  declare_standard_flags(flags, kind);
  Argv a(args);
  flags.parse(a.argc() - 1, a.argv() + 1);
  return apply_standard_flags(flags, kind, config, a.argc(), a.argv());
}

TEST(StandardFlags, TrainAndSweepFillTheExperimentConfig) {
  for (DriverKind kind : {DriverKind::kTrain, DriverKind::kSweep}) {
    ExperimentConfig cfg;
    apply_to(kind, cfg,
             {"drv", "--threads=1", "--checkpoint-dir", "ck", "--resume",
              "--ledger", "runs"});
    EXPECT_EQ(cfg.trainer.checkpoint_dir, "ck");
    EXPECT_TRUE(cfg.trainer.resume);
    EXPECT_EQ(cfg.ledger.dir, "runs");
    EXPECT_EQ(cfg.ledger.argv,
              "drv --threads=1 --checkpoint-dir ck --resume --ledger runs");
  }
}

TEST(StandardFlags, SweepTakesTheJournalButNoStopAfter) {
  ExperimentConfig cfg;
  const auto out =
      apply_to(DriverKind::kSweep, cfg, {"fig1", "--journal", "j.jsonl"});
  EXPECT_EQ(out.journal, "j.jsonl");
  // A point stopped early would be journaled done half-trained.
  EXPECT_THROW(apply_to(DriverKind::kSweep, cfg, {"fig1", "--stop-after=1"}),
               InvalidArgument);
  EXPECT_THROW(apply_to(DriverKind::kTrain, cfg, {"quick", "--journal=j"}),
               InvalidArgument);
}

TEST(StandardFlags, FitFillsTheTrainerConfig) {
  CliFlags flags;
  declare_standard_flags(flags, DriverKind::kFit);
  Argv a({"abl", "--threads=1", "--checkpoint-dir=ck", "--resume",
          "--stop-after=2", "--nan-policy=rollback"});
  flags.parse(a.argc() - 1, a.argv() + 1);
  train::TrainerConfig tcfg;
  apply_standard_flags(flags, tcfg);
  EXPECT_EQ(tcfg.checkpoint_dir, "ck");
  EXPECT_TRUE(tcfg.resume);
  EXPECT_EQ(tcfg.stop_after_epochs, 2);
  EXPECT_EQ(tcfg.nan_policy, train::NanPolicy::kRollback);
}

/// Runs a --preset driver body through the front door.
int front_door(const std::vector<std::string>& args, bool* ran = nullptr) {
  CliFlags flags;
  flags.declare("preset", "smoke", "experiment scale");
  Argv a(args);
  return run_main(flags, a.argc(), a.argv(), [&] {
    profile_by_name(flags.get("preset"));
    if (ran) *ran = true;
    return 0;
  });
}

TEST(FrontDoor, HelpIsZeroAndFlagErrorsAreTwo) {
  bool ran = false;
  EXPECT_EQ(front_door({"drv", "--help"}, &ran), 0);
  EXPECT_FALSE(ran);  // --help answers without running the workload
  EXPECT_EQ(front_door({"drv", "--bogus"}), 2);
  EXPECT_EQ(front_door({"drv", "--preset", "bogus"}), 2);
  EXPECT_EQ(front_door({"drv", "--preset", "smoke"}, &ran), 0);
  EXPECT_TRUE(ran);
}

}  // namespace
}  // namespace spiketune::exp
