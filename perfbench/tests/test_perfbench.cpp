// Self-tests of the benchmark's helpers and gates:
//   python3 perfbench/run.py --self-test
// Each gate is fed a deliberately corrupted result and must throw
// GateFailure, which the benchmark turns into a failed run.
#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <limits>
#include <thread>

#include "gates.h"
#include "report.h"
#include "stats.h"
#include "trace.h"

namespace perfbench {
namespace {

namespace st = spiketune;

TEST(MetricName, FollowsTheRule) {
  EXPECT_TRUE(valid_metric_name("step_p50_ms.low"));
  EXPECT_TRUE(valid_metric_name("infer.in_density.knee.conv1"));
  EXPECT_TRUE(valid_metric_name("0-9_A.z"));
  EXPECT_TRUE(valid_metric_name(std::string(64, 'a')));
  EXPECT_FALSE(valid_metric_name(""));
  EXPECT_FALSE(valid_metric_name(".leading_dot"));
  EXPECT_FALSE(valid_metric_name("-leading_dash"));
  EXPECT_FALSE(valid_metric_name("has space"));
  EXPECT_FALSE(valid_metric_name("slash/inside"));
  EXPECT_FALSE(valid_metric_name("quote\"inside"));
  EXPECT_FALSE(valid_metric_name(std::string(65, 'a')));
}

TEST(MetricName, UnitsFollowTheirRule) {
  for (const char* u : {"ms", "s", "1/s", "count", "%", "GFLOP/s", "MB"})
    EXPECT_TRUE(valid_unit(u)) << u;
  EXPECT_FALSE(valid_unit(""));
  EXPECT_FALSE(valid_unit("two words"));
  EXPECT_FALSE(valid_unit(std::string(17, 'm')));
}

TEST(Report, RejectsBadNamesDuplicatesAndNonFiniteValues) {
  Report r;
  r.add("point_s", 1.5, "s");
  EXPECT_THROW(r.add("point_s", 2.0, "s"), std::invalid_argument);
  EXPECT_THROW(r.add("bad name", 1.0, "s"), std::invalid_argument);
  EXPECT_THROW(r.add("ok_name", 1.0, "bad unit"), std::invalid_argument);
  EXPECT_THROW(r.add("nan_metric", std::nan(""), "s"), std::invalid_argument);
  EXPECT_THROW(r.add("inf_metric", std::numeric_limits<double>::infinity(),
                     "s"),
               std::invalid_argument);
  EXPECT_EQ(r.metrics().size(), 1u);
}

TEST(Report, ResultLineKeepsEveryDigit) {
  Report r;
  r.add("latency_ms", 0.1 + 0.2, "ms");
  const std::string line = result_json(true, 7, 1, r);
  EXPECT_EQ(line,
            "{\"correct\": true, \"attempted\": 7, \"failed\": 1, "
            "\"metrics\": {\"latency_ms\": {\"value\": 0.30000000000000004, "
            "\"unit\": \"ms\"}}}");
}

TEST(Stats, MedianOfOddAndEvenCounts) {
  EXPECT_EQ(median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_EQ(median({4.0, 1.0, 3.0, 2.0}), 2.5);
  EXPECT_EQ(median({}), 0.0);
}

std::vector<double> one_to(int n) {
  std::vector<double> v;
  for (int i = 1; i <= n; ++i) v.push_back(i);
  return v;
}

TEST(Stats, PercentileReportsItsSampleAndBeyondCounts) {
  const auto v = one_to(100);
  const Percentile p50 = percentile_of(v, 0.5);
  EXPECT_EQ(p50.value, 50.0);
  EXPECT_EQ(p50.samples, 100);
  EXPECT_EQ(p50.beyond, 50);
  const Percentile p90 = percentile_of(v, 0.9);
  EXPECT_EQ(p90.value, 90.0);
  EXPECT_EQ(p90.beyond, 10);
  EXPECT_EQ(percentile_of(v, 0.99).beyond, 1);
}

TEST(Stats, TailIsTheHighestWithTenSamplesBeyond) {
  EXPECT_EQ(supported_tail(one_to(100)).q, 0.9);
  EXPECT_EQ(supported_tail(one_to(999)).q, 0.9);
  EXPECT_EQ(supported_tail(one_to(1000)).q, 0.99);
  EXPECT_EQ(supported_tail(one_to(10000)).q, 0.999);
  EXPECT_EQ(supported_tail(one_to(100000)).q, 0.9999);
  const Percentile small = supported_tail(one_to(5));
  EXPECT_EQ(small.q, 0.5);
  EXPECT_EQ(small.value, 3.0);
  for (int n : {100, 1000, 10000})
    EXPECT_GE(supported_tail(one_to(n)).beyond, 10) << n;
}

TEST(OpenLoop, LanesInterleaveIntoOneEvenSchedule) {
  const std::int64_t start = 1'000'000;
  const OpenLoopSchedule a{start, 100.0, 2, 0};
  const OpenLoopSchedule b{start, 100.0, 2, 1};
  // 100/s over two lanes: one send every 10 ms, lanes alternating.
  EXPECT_EQ(a.due_ns(0), start);
  EXPECT_EQ(b.due_ns(0), start + 10'000'000);
  EXPECT_EQ(a.due_ns(1), start + 20'000'000);
  EXPECT_EQ(b.due_ns(1), start + 30'000'000);
  EXPECT_EQ(a.due_ns(500), start + 10'000'000'000);
}

TEST(OpenLoop, LatencyCountsFromTheDueTime) {
  // Sent 5 ms late, answered 2 ms after sending: 7 ms from due.
  const std::int64_t due = 100'000'000;
  const std::int64_t sent = due + 5'000'000;
  const std::int64_t done = sent + 2'000'000;
  EXPECT_DOUBLE_EQ(ms_from_due(due, done), 7.0);
  EXPECT_EQ(lateness_ns(due, sent), 5'000'000);
  EXPECT_EQ(lateness_ns(due, due - 10), 0);  // early is not late
}

TEST(Trace, SelfTimeExcludesChildren) {
  Tracer tr(true);
  {
    Span root(tr, "exp.point");
    {
      Span child(tr, "snn.forward");
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    Span child(tr, "snn.backward");
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  ASSERT_EQ(tr.spans().size(), 3u);
  EXPECT_EQ(tr.spans()[1].parent, tr.spans()[0].id);
  EXPECT_EQ(tr.count("snn.forward"), 1);
  const double root_ms = tr.total_ms("exp.point");
  EXPECT_NEAR(tr.self_ms("exp.point") + tr.children_ms("exp.point"), root_ms,
              1e-9);
  EXPECT_NEAR(tr.module_self_ms("snn"), tr.children_ms("exp.point"), 1e-9);
  EXPECT_GE(tr.module_self_ms("snn"), 4.0);
}

TEST(Trace, DisabledTracerRecordsNothing) {
  Tracer tr(false);
  { Span s(tr, "data.encode"); }
  EXPECT_TRUE(tr.spans().empty());
}

// --- Gates: a corrupted result must fail the run. -------------------------

TEST(Gates, BitwiseCatchesOneFlippedBitAndSignedZero) {
  const std::vector<float> a = {1.0f, 2.0f, 0.0f};
  std::vector<float> b = a;
  EXPECT_NO_THROW(gate_bitwise(a.data(), b.data(), a.size(), "same"));
  b[1] = std::nextafter(b[1], 3.0f);
  EXPECT_THROW(gate_bitwise(a.data(), b.data(), a.size(), "ulp"), GateFailure);
  b = a;
  b[2] = -0.0f;
  EXPECT_THROW(gate_bitwise(a.data(), b.data(), a.size(), "-0"), GateFailure);
  EXPECT_THROW(gate_same_bits(0.5, std::nextafter(0.5, 1.0), "acc"),
               GateFailure);
}

st::snn::SpikeRecord record(std::int64_t out_nz) {
  st::snn::SpikeRecord r({"conv2d", "lif"}, {false, true});
  r.add_step(0, 10, 20, 5, 20);
  r.add_step(1, 5, 20, out_nz, 20);
  r.note_window(1, 2);
  return r;
}

TEST(Gates, RecordsMustMatchExactly) {
  EXPECT_NO_THROW(gate_records_equal(record(3), record(3), "same"));
  EXPECT_THROW(gate_records_equal(record(3), record(4), "corrupt"),
               GateFailure);
  st::snn::SpikeRecord renamed({"conv2d", "lif2"}, {false, true});
  renamed.add_step(0, 10, 20, 5, 20);
  renamed.add_step(1, 5, 20, 3, 20);
  renamed.note_window(1, 2);
  EXPECT_THROW(gate_records_equal(record(3), renamed, "renamed"), GateFailure);
}

TEST(Gates, SilentSpikingLayerFails) {
  EXPECT_NO_THROW(gate_no_silent_layer(record(3), "firing"));
  EXPECT_THROW(gate_no_silent_layer(record(0), "silent"), GateFailure);
}

st::hw::MappingReport mapping() {
  st::hw::MappingReport m;
  m.perf.stage_cycles = 120.0;
  m.perf.cycles_per_inference = 960.0;
  m.perf.latency_s = 5e-6;
  m.perf.throughput_fps = 2e5;
  m.perf.fps_per_watt = 1e5;
  m.allocation.pes_per_layer = {4, 8};
  m.event_sim = st::hw::EventSimResult{};
  m.event_sim->total_cycles = 1000.0;
  return m;
}

TEST(Gates, SimulatedHardwareOutputsMustRepeat) {
  EXPECT_NO_THROW(gate_mapping_equal(mapping(), mapping(), "same"));
  auto cycles = mapping();
  cycles.event_sim->total_cycles += 1.0;
  EXPECT_THROW(gate_mapping_equal(mapping(), cycles, "sim cycles"),
               GateFailure);
  auto fpsw = mapping();
  fpsw.perf.fps_per_watt *= 1.0000001;
  EXPECT_THROW(gate_mapping_equal(mapping(), fpsw, "fps/w"), GateFailure);
  auto no_sim = mapping();
  no_sim.event_sim.reset();
  EXPECT_THROW(gate_mapping_equal(mapping(), no_sim, "no sim"), GateFailure);
}

TEST(Gates, ExperimentRepeatsMustBeBitIdentical) {
  st::exp::ExperimentResult a;
  a.accuracy = 0.25;
  a.firing_rate = 0.03;
  a.mapping = mapping();
  auto b = a;
  EXPECT_NO_THROW(gate_experiment_equal(a, b, "same"));
  b.accuracy = 0.25 + 1.0 / 128;
  EXPECT_THROW(gate_experiment_equal(a, b, "accuracy"), GateFailure);
  b = a;
  b.firing_rate = std::nextafter(a.firing_rate, 1.0);
  EXPECT_THROW(gate_experiment_equal(a, b, "firing rate"), GateFailure);
}

TEST(Gates, AccountingIdentityAndNoEviction) {
  st::serve::Server::Stats s;
  s.admitted = 10;
  s.served = 7;
  s.dropped_responses = 1;
  s.deadline_shed = 1;
  s.stream_orphan_steps = 1;
  EXPECT_NO_THROW(gate_accounting(s));
  auto lost = s;
  lost.served = 6;  // one admitted request never answered
  EXPECT_THROW(gate_accounting(lost), GateFailure);
  auto twice = s;
  twice.internal_errors = 1;  // one answered twice
  EXPECT_THROW(gate_accounting(twice), GateFailure);
  auto evicted = s;
  evicted.streams_evicted = 1;
  EXPECT_THROW(gate_accounting(evicted), GateFailure);
}

}  // namespace
}  // namespace perfbench
