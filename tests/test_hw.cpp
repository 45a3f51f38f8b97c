// Hardware model tests: device catalog, workload extraction, allocation,
// analytic performance, power — the invariants behind the paper's numbers.
#include <gtest/gtest.h>

#include <cmath>

#include "core/error.h"
#include "hw/accelerator.h"
#include "hw/baseline.h"
#include "hw/calibration.h"
#include "snn/model_zoo.h"

namespace spiketune::hw {
namespace {

// Hand-built workload pair: a heavy conv-like layer and a light fc layer.
std::vector<LayerWorkload> two_layer_workload(double density1 = 0.2,
                                              double density2 = 0.1) {
  LayerWorkload a;
  a.name = "conv1";
  a.layer_index = 0;
  a.neurons = 4096;
  a.fanout = 288;
  a.input_size = 3072;
  a.avg_input_spikes = density1 * static_cast<double>(a.input_size);
  a.num_weights = 9216;
  LayerWorkload b;
  b.name = "fc1";
  b.layer_index = 3;
  b.neurons = 256;
  b.fanout = 256;
  b.input_size = 1024;
  b.avg_input_spikes = density2 * static_cast<double>(b.input_size);
  b.num_weights = 262144;
  return {a, b};
}

TEST(Fpga, CatalogLookup) {
  EXPECT_EQ(device_by_name("ku5p").name, "xcku5p");
  EXPECT_EQ(device_by_name("ku3p").name, "xcku3p");
  EXPECT_EQ(device_by_name("ku15p").name, "xcku15p");
  EXPECT_THROW(device_by_name("virtex"), InvalidArgument);
}

TEST(Fpga, CatalogOrdering) {
  // Resource envelopes grow with part size.
  const auto small = kintex_ultrascale_plus_ku3p();
  const auto mid = kintex_ultrascale_plus_ku5p();
  const auto big = kintex_ultrascale_plus_ku15p();
  EXPECT_LT(small.luts, mid.luts);
  EXPECT_LT(mid.luts, big.luts);
  EXPECT_LT(small.dsps, mid.dsps);
}

TEST(Fpga, ResourceUsageFits) {
  const auto dev = kintex_ultrascale_plus_ku5p();
  ResourceUsage ok{1000, 1000, 10, 100};
  EXPECT_TRUE(ok.fits(dev));
  ResourceUsage too_many_dsps{0, 0, dev.dsps + 1, 0};
  EXPECT_FALSE(too_many_dsps.fits(dev));
}

TEST(Workload, SynopsAlgebra) {
  const auto ws = two_layer_workload(0.25, 0.5);
  EXPECT_DOUBLE_EQ(ws[0].dense_synops(), 3072.0 * 288.0);
  EXPECT_DOUBLE_EQ(ws[0].sparse_synops(), 0.25 * 3072.0 * 288.0);
  EXPECT_DOUBLE_EQ(ws[0].input_density(), 0.25);
  EXPECT_EQ(total_neurons(ws), 4096 + 256);
}

TEST(Workload, ExtractFromNetworkAndRecord) {
  snn::MlpConfig cfg;
  cfg.in_features = 16;
  cfg.hidden = 8;
  cfg.num_classes = 4;
  auto net = snn::make_snn_mlp(cfg);
  const std::int64_t T = 5;
  auto out = net->forward(
      std::vector<Tensor>(T, Tensor::full(Shape{2, 16}, 1.0f)),
      {.record_stats = true});

  const auto ws = extract_workloads(*net, out.stats, T);
  ASSERT_EQ(ws.size(), 2u);
  EXPECT_EQ(ws[0].name, "fc1");
  EXPECT_EQ(ws[1].name, "fc2");
  EXPECT_EQ(ws[0].fanout, 8);
  EXPECT_EQ(ws[1].fanout, 4);
  // Workloads are per-inference (single sample) per timestep.
  EXPECT_EQ(ws[0].input_size, 16);
  EXPECT_EQ(ws[0].neurons, 8);
  // All-ones input: conv1 sees density 1.
  EXPECT_DOUBLE_EQ(ws[0].input_density(), 1.0);
  EXPECT_EQ(ws[0].num_weights, 16 * 8);
}

TEST(Workload, ExtractRejectsEmptyRecord) {
  auto net = snn::make_snn_mlp(snn::MlpConfig{});
  auto record = net->make_record();
  EXPECT_THROW(extract_workloads(*net, record, 5), InvalidArgument);
}

TEST(Allocate, BudgetPositiveAndResourceBound) {
  const auto dev = kintex_ultrascale_plus_ku5p();
  const std::int64_t budget = pe_budget(dev);
  EXPECT_GT(budget, 0);
  EXPECT_LE(budget * calib::kLutsPerPe,
            static_cast<std::int64_t>(calib::kResourceHeadroom * dev.luts) + 1);
  EXPECT_LE(budget * calib::kDspsPerPe,
            static_cast<std::int64_t>(calib::kResourceHeadroom * dev.dsps) + 1);
}

TEST(Allocate, UsesFullBudgetAndFits) {
  const auto dev = kintex_ultrascale_plus_ku5p();
  const auto ws = two_layer_workload();
  for (auto policy : {AllocationPolicy::kBalanced,
                      AllocationPolicy::kBalancedDense,
                      AllocationPolicy::kUniform}) {
    const Allocation a = allocate(ws, dev, policy);
    EXPECT_LE(a.total_pes, pe_budget(dev));
    EXPECT_GE(a.total_pes,
              pe_budget(dev) - static_cast<std::int64_t>(ws.size()));
    EXPECT_TRUE(a.usage.fits(dev)) << policy_name(policy);
    for (auto p : a.pes_per_layer) EXPECT_GE(p, 1);
  }
}

TEST(Allocate, BalancedGivesHeavyLayerMorePes) {
  const auto dev = kintex_ultrascale_plus_ku5p();
  const auto ws = two_layer_workload(0.5, 0.01);
  const Allocation a = allocate(ws, dev, AllocationPolicy::kBalanced);
  EXPECT_GT(a.pes_per_layer[0], a.pes_per_layer[1]);
}

TEST(Allocate, BalancedMinimaxBeatsUniform) {
  const auto dev = kintex_ultrascale_plus_ku5p();
  const auto ws = two_layer_workload(0.5, 0.01);
  const Allocation bal = allocate(ws, dev, AllocationPolicy::kBalanced);
  const Allocation uni = allocate(ws, dev, AllocationPolicy::kUniform);
  const auto stage = [&](const Allocation& a) {
    double worst = 0.0;
    for (std::size_t i = 0; i < ws.size(); ++i)
      worst = std::max(
          worst, stage_cycles_for(ws[i].sparse_synops(),
                                  ws[i].avg_input_spikes, ws[i].neurons,
                                  a.pes(i)));
    return worst;
  };
  EXPECT_LE(stage(bal), stage(uni));
}

TEST(Allocate, SparseVsDensePolicyDiffersUnderSkewedSparsity) {
  const auto dev = kintex_ultrascale_plus_ku5p();
  // Dense sizes equal, but measured sparsity wildly different: the
  // sparsity-aware mapping must shift PEs away from the quiet layer.
  auto ws = two_layer_workload();
  ws[1].input_size = ws[0].input_size;
  ws[1].fanout = ws[0].fanout;
  ws[1].neurons = ws[0].neurons;
  ws[0].avg_input_spikes = 0.5 * static_cast<double>(ws[0].input_size);
  ws[1].avg_input_spikes = 0.05 * static_cast<double>(ws[1].input_size);
  const Allocation sparse = allocate(ws, dev, AllocationPolicy::kBalanced);
  const Allocation dense = allocate(ws, dev, AllocationPolicy::kBalancedDense);
  EXPECT_GT(sparse.pes_per_layer[0], sparse.pes_per_layer[1]);
  // Dense policy sees symmetric workloads -> near-equal split.
  EXPECT_NEAR(static_cast<double>(dense.pes_per_layer[0]),
              static_cast<double>(dense.pes_per_layer[1]),
              static_cast<double>(dense.total_pes) * 0.02 + 2.0);
}

TEST(Allocate, BramOverflowThrows) {
  const auto dev = kintex_ultrascale_plus_ku3p();
  auto ws = two_layer_workload();
  ws[0].num_weights = 100'000'000;  // 100 MB of weights cannot fit
  EXPECT_THROW(allocate(ws, dev, AllocationPolicy::kBalanced),
               InvalidArgument);
}

TEST(Perf, StageCyclesMonotoneInPes) {
  double prev = 1e300;
  for (std::int64_t pes : {1, 2, 4, 8, 16, 64}) {
    const double c = stage_cycles_for(1e6, 1000.0, 1000, pes);
    EXPECT_LT(c, prev);
    prev = c;
  }
}

TEST(Perf, DispatchBoundBindsWhenPesAbound) {
  // With overwhelming PE counts the event-decode bandwidth becomes the
  // floor: cycles stop improving once ceil(events/ports) dominates.
  const double many_pes = stage_cycles_for(1e4, 4000.0, 0, 100000);
  EXPECT_DOUBLE_EQ(many_pes, calib::kStageOverheadCycles +
                                 std::ceil(4000.0 / calib::kDispatchPorts));
}

TEST(Perf, EventDrivenBeatsDense) {
  const auto dev = kintex_ultrascale_plus_ku5p();
  const auto ws = two_layer_workload(0.1, 0.1);
  const Allocation a = allocate(ws, dev, AllocationPolicy::kBalanced);
  const auto ev = analyze(ws, a, dev, 10, ComputeMode::kEventDriven);
  const auto de = analyze(ws, a, dev, 10, ComputeMode::kDense);
  EXPECT_LT(ev.stage_cycles, de.stage_cycles);
  EXPECT_GT(ev.throughput_fps, de.throughput_fps);
  EXPECT_GT(ev.fps_per_watt, de.fps_per_watt);
}

TEST(Perf, SparserModelIsFasterAndMoreEfficient) {
  // The paper's core causal chain: fewer spikes -> fewer cycles & lower
  // dynamic power -> higher FPS/W.
  const auto dev = kintex_ultrascale_plus_ku5p();
  const auto busy = two_layer_workload(0.4, 0.4);
  const auto quiet = two_layer_workload(0.08, 0.08);
  const auto ab = allocate(busy, dev, AllocationPolicy::kBalanced);
  const auto aq = allocate(quiet, dev, AllocationPolicy::kBalanced);
  const auto rb = analyze(busy, ab, dev, 10, ComputeMode::kEventDriven);
  const auto rq = analyze(quiet, aq, dev, 10, ComputeMode::kEventDriven);
  EXPECT_LT(rq.latency_s, rb.latency_s);
  EXPECT_GT(rq.fps_per_watt, rb.fps_per_watt);
}

TEST(Perf, LatencyThroughputAlgebra) {
  const auto dev = kintex_ultrascale_plus_ku5p();
  const auto ws = two_layer_workload();
  const Allocation a = allocate(ws, dev, AllocationPolicy::kBalanced);
  const std::int64_t T = 12;
  const auto r = analyze(ws, a, dev, T, ComputeMode::kEventDriven);
  EXPECT_NEAR(r.cycles_per_inference, T * r.stage_cycles, 1e-9);
  EXPECT_NEAR(r.latency_s,
              (static_cast<double>(T) + 1.0) * r.stage_cycles / dev.clock_hz,
              1e-12);
  EXPECT_NEAR(r.throughput_fps, dev.clock_hz / r.cycles_per_inference, 1e-9);
  EXPECT_NEAR(r.fps_per_watt, r.throughput_fps / r.power.total(), 1e-9);
}

TEST(Perf, MoreTimestepsMeansSlower) {
  const auto dev = kintex_ultrascale_plus_ku5p();
  const auto ws = two_layer_workload();
  const Allocation a = allocate(ws, dev, AllocationPolicy::kBalanced);
  const auto r10 = analyze(ws, a, dev, 10, ComputeMode::kEventDriven);
  const auto r20 = analyze(ws, a, dev, 20, ComputeMode::kEventDriven);
  EXPECT_LT(r10.latency_s, r20.latency_s);
  EXPECT_GT(r10.throughput_fps, r20.throughput_fps);
}

TEST(Power, MonotoneInActivity) {
  const auto dev = kintex_ultrascale_plus_ku5p();
  const auto quiet = compute_power(dev, 100, 1e5, 1e4, 1e3, 1000.0);
  const auto busy = compute_power(dev, 100, 1e6, 1e4, 1e4, 1000.0);
  EXPECT_GT(busy.total(), quiet.total());
  EXPECT_GT(busy.synop_watts, quiet.synop_watts);
  EXPECT_EQ(busy.static_watts, quiet.static_watts);
}

TEST(Power, ZeroFpsIsStaticPlusClock) {
  const auto dev = kintex_ultrascale_plus_ku5p();
  const auto p = compute_power(dev, 64, 1e6, 1e5, 1e4, 0.0);
  EXPECT_DOUBLE_EQ(p.synop_watts, 0.0);
  EXPECT_DOUBLE_EQ(p.total(),
                   dev.static_watts + 64 * calib::kClockWattsPerPe);
}

TEST(Baseline, DenseBaselineSlowerThanSparsityAware) {
  const auto dev = kintex_ultrascale_plus_ku5p();
  const auto ws = two_layer_workload(0.1, 0.05);
  const Allocation a = allocate(ws, dev, AllocationPolicy::kBalanced);
  const auto ours = analyze(ws, a, dev, 10, ComputeMode::kEventDriven);
  const auto base = analyze_dense_baseline(ws, dev, 10);
  EXPECT_GT(ours.fps_per_watt, base.fps_per_watt);
}

TEST(Baseline, PriorWorkReferenceSane) {
  const auto ref = prior_work_reference();
  EXPECT_GT(ref.accuracy, 0.5);
  EXPECT_LT(ref.accuracy, 1.0);
  EXPECT_GT(ref.fps_per_watt, 0.0);
}

TEST(Accelerator, MapEndToEnd) {
  snn::MlpConfig cfg;
  cfg.in_features = 32;
  cfg.hidden = 16;
  cfg.num_classes = 4;
  auto net = snn::make_snn_mlp(cfg);
  const std::int64_t T = 6;
  auto out = net->forward(
      std::vector<Tensor>(T, Tensor::full(Shape{4, 32}, 0.8f)),
      {.record_stats = true});

  Accelerator accel;
  const MappingReport report = accel.map(*net, out.stats, T, true);
  ASSERT_EQ(report.workloads.size(), 2u);
  EXPECT_GT(report.perf.throughput_fps, 0.0);
  EXPECT_GT(report.perf.fps_per_watt, 0.0);
  ASSERT_TRUE(report.event_sim.has_value());
  EXPECT_GT(report.event_sim->total_cycles, 0.0);
  const std::string s = report.summary();
  EXPECT_NE(s.find("fc1"), std::string::npos);
  EXPECT_NE(s.find("FPS/W"), std::string::npos);
  EXPECT_NE(s.find("event-sim"), std::string::npos);
}

}  // namespace
}  // namespace spiketune::hw
