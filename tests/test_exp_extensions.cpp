// End-to-end coverage of the extended experiment paths: the count-MSE
// loss, rate encoding, and configuration validation.
#include <gtest/gtest.h>

#include "core/error.h"
#include "exp/experiment.h"

namespace spiketune::exp {
namespace {

TEST(ExpExtensions, DatasetChannelMismatchThrows) {
  auto svhn = ExperimentConfig::for_profile(Profile::kSmoke);
  svhn.model.in_channels = 1;  // svhn is 3-channel
  EXPECT_THROW(run_experiment(svhn), InvalidArgument);
}

TEST(ExpExtensions, UnknownLossThrows) {
  auto cfg = ExperimentConfig::for_profile(Profile::kSmoke);
  cfg.loss = "hinge";
  EXPECT_THROW(run_experiment(cfg), InvalidArgument);
}

TEST(ExpExtensions, CountMseLossRunsEndToEnd) {
  auto cfg = ExperimentConfig::for_profile(Profile::kSmoke);
  cfg.loss = "count_mse";
  cfg.model.lif.surrogate = snn::Surrogate::fast_sigmoid(0.25f);
  const auto r = run_experiment(cfg);
  EXPECT_GT(r.firing_rate, 0.0);
  EXPECT_GT(r.fps_per_watt, 0.0);
}

TEST(ExpExtensions, LossChoiceChangesTraining) {
  auto ce = ExperimentConfig::for_profile(Profile::kSmoke);
  ce.model.lif.surrogate = snn::Surrogate::fast_sigmoid(0.25f);
  auto mse = ce;
  mse.loss = "count_mse";
  const auto r_ce = run_experiment(ce);
  const auto r_mse = run_experiment(mse);
  // Identical everything except the loss: trained models must differ in
  // their activity statistics.
  EXPECT_NE(r_ce.firing_rate, r_mse.firing_rate);
}

TEST(ExpExtensions, RateEncodingPathRunsEndToEnd) {
  auto cfg = ExperimentConfig::for_profile(Profile::kSmoke);
  cfg.encoder = "rate";
  cfg.normalize = false;  // rate coding needs [0,1] intensities
  cfg.model.init_gain = 2.5f;
  const auto r = run_experiment(cfg);
  // With binary input spikes conv1's input is genuinely sparse.
  EXPECT_LT(r.mapping.workloads[0].input_density(), 0.95);
  EXPECT_GT(r.mapping.workloads[0].input_density(), 0.05);
}

}  // namespace
}  // namespace spiketune::exp
