// Run-ledger subsystem tests: JsonValue build/parse round-trips, RunLedger
// write -> parse_ledger round-trips (fresh and resumed streams), the
// spike-health detectors (edge-triggered warnings + counters), SpikeRecord
// merge/add_step structure and overflow guards, per-run gauge retirement,
// dashboard HTML/CSV rendering, and an end-to-end smoke experiment with the
// ledger attached.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>
#include <string>
#include <vector>

#include "core/error.h"
#include "core/json.h"
#include "exp/experiment.h"
#include "exp/sweep.h"
#include "obs/dashboard.h"
#include "obs/ledger.h"
#include "obs/metrics.h"
#include "obs/spike_health.h"
#include "obs/telemetry.h"
#include "snn/spike_stats.h"

using namespace spiketune;

namespace {

/// Enables the given telemetry bits for the lifetime of the guard.
class TelemetryGuard {
 public:
  explicit TelemetryGuard(unsigned bits) : bits_(bits) {
    obs::enable_telemetry(bits_);
  }
  ~TelemetryGuard() { obs::disable_telemetry(bits_); }
  TelemetryGuard(const TelemetryGuard&) = delete;
  TelemetryGuard& operator=(const TelemetryGuard&) = delete;

 private:
  unsigned bits_;
};

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

const obs::MetricSnapshot* find_metric(
    const std::vector<obs::MetricSnapshot>& snaps, const std::string& name) {
  for (const auto& s : snaps)
    if (s.name == name) return &s;
  return nullptr;
}

// The result points into `snaps`: binding a temporary snapshot would dangle.
const obs::MetricSnapshot* find_metric(std::vector<obs::MetricSnapshot>&&,
                                       const std::string&) = delete;

// ---------------------------------------------------------------- JsonValue

TEST(Json, BuildDumpParseRoundTrip) {
  auto obj = JsonValue::make_object();
  obj.set("s", "he\"llo\n");
  obj.set("n", 1.5);
  obj.set("i", std::int64_t{42});
  obj.set("b", true);
  obj.set("z", JsonValue());
  auto arr = JsonValue::make_array();
  arr.push_back(1.0);
  arr.push_back("two");
  obj.set("a", std::move(arr));

  const std::string text = obj.dump();
  const JsonValue back = JsonValue::parse(text, "test");
  EXPECT_EQ(back.string_or("s", ""), "he\"llo\n");
  EXPECT_DOUBLE_EQ(back.number_or("n", 0.0), 1.5);
  EXPECT_DOUBLE_EQ(back.number_or("i", 0.0), 42.0);
  EXPECT_TRUE(back.find("b")->as_bool());
  EXPECT_TRUE(back.find("z")->is_null());
  ASSERT_NE(back.find("a"), nullptr);
  EXPECT_EQ(back.find("a")->as_array().size(), 2u);
  EXPECT_EQ(back.find("a")->as_array()[1].as_string(), "two");
}

TEST(Json, PreservesInsertionOrder) {
  auto obj = JsonValue::make_object();
  obj.set("zebra", 1);
  obj.set("alpha", 2);
  const std::string text = obj.dump();
  EXPECT_LT(text.find("zebra"), text.find("alpha"));
  // set() on an existing key overwrites in place.
  obj.set("zebra", 3);
  EXPECT_DOUBLE_EQ(obj.number_or("zebra", 0.0), 3.0);
  EXPECT_EQ(obj.as_object().size(), 2u);
}

TEST(Json, StrictParseRejectsBadInput) {
  EXPECT_THROW(JsonValue::parse("{\"a\":1", "t"), InvalidArgument);
  EXPECT_THROW(JsonValue::parse("{\"a\":1} x", "t"), InvalidArgument);
  EXPECT_THROW(JsonValue::parse("{'a':1}", "t"), InvalidArgument);
  EXPECT_THROW(JsonValue::parse("", "t"), InvalidArgument);
  EXPECT_THROW(JsonValue::parse("nul", "t"), InvalidArgument);
  EXPECT_THROW(JsonValue::parse("[1,]", "t"), InvalidArgument);
  // Numbers follow the RFC 8259 grammar, not strtod's.
  for (const char* bad : {"-nan", "nan", "inf", "-inf", "+1", ".5", "1.",
                          "0x10", "01", "-", "1e", "1e+", "-.5", "[1.]"})
    EXPECT_THROW(JsonValue::parse(bad, "t"), InvalidArgument) << bad;
  for (const char* good : {"0", "-0", "1.5", "-12.25e+3", "1E-2", "[0,1]"})
    EXPECT_NO_THROW(JsonValue::parse(good, "t")) << good;
  EXPECT_EQ(JsonValue::parse("-12.25e+3", "t").as_number(), -12250.0);
}

TEST(Json, ParseRejectsRunawayNesting) {
  std::string deep(100, '[');
  deep += std::string(100, ']');
  EXPECT_THROW(JsonValue::parse(deep, "t"), InvalidArgument);
}

TEST(Json, UnicodeEscapeDecodes) {
  const JsonValue v = JsonValue::parse("\"a\\u00e9b\"", "t");
  EXPECT_EQ(v.as_string(), "a\xc3\xa9"
                           "b");
}

TEST(Json, NonFiniteNumbersSerializeAsNull) {
  auto obj = JsonValue::make_object();
  obj.set("bad", std::numeric_limits<double>::quiet_NaN());
  EXPECT_NE(obj.dump().find("\"bad\":null"), std::string::npos);
}

TEST(Json, AppendJsonlLineAppendsAndNamesTheFileOnFailure) {
  const std::string path = temp_path("append_jsonl.jsonl");
  std::remove(path.c_str());
  append_jsonl_line(path, "{\"a\":1}");
  append_jsonl_line(path, "{\"b\":2}");
  std::ifstream in(path);
  const std::string text((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
  EXPECT_EQ(text, "{\"a\":1}\n{\"b\":2}\n");

  const std::string missing = temp_path("no_such_dir/x.jsonl");
  try {
    append_jsonl_line(missing, "{}");
    FAIL() << "append into a missing directory must throw";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find(missing), std::string::npos)
        << e.what();
  }
}

// ---------------------------------------------------------------- RunLedger

obs::LedgerManifest test_manifest() {
  obs::LedgerManifest m;
  m.run_id = "unit";
  m.config_fingerprint = 0xDEADBEEFCAFEF00DULL;
  m.seed = 0xda7aULL;
  m.threads = 2;
  m.argv = "test --ledger=x";
  m.build = "test-build";
  m.info = {{"dataset", "svhn"}, {"encoder", "direct"}};
  m.params = {{"epochs", 3.0}, {"beta", 0.25}};
  return m;
}

obs::LedgerEpoch test_epoch(std::int64_t e) {
  obs::LedgerEpoch ep;
  ep.epoch = e;
  ep.train_loss = 2.3 - 0.1 * static_cast<double>(e);
  ep.train_accuracy = 0.1 * static_cast<double>(e + 1);
  ep.lr = 5e-3;
  ep.grad_norm_mean = 1.25;
  ep.grad_norm_max = 4.0;
  ep.firing_rate = 0.05 * static_cast<double>(e + 1);
  ep.layers = {{0, "conv2d", false, 1.0, 1.0},
               {1, "lif", true, 1.0, 0.1 * static_cast<double>(e + 1)}};
  ep.hw = {{"latency_us", 20.0 - static_cast<double>(e)},
           {"throughput_fps", 1e5},
           {"fps_per_watt", 3e4}};
  return ep;
}

TEST(RunLedger, DisabledLedgerIsNoOp) {
  obs::RunLedger ledger;
  EXPECT_FALSE(ledger.enabled());
  ledger.write_manifest(test_manifest());  // must not crash or create files
  ledger.write_epoch(test_epoch(0));
}

TEST(RunLedger, WriteParseRoundTrip) {
  const std::string path = temp_path("ledger_roundtrip.jsonl");
  std::remove(path.c_str());
  {
    obs::RunLedger ledger(path);
    ledger.write_manifest(test_manifest());
    for (std::int64_t e = 0; e < 3; ++e) ledger.write_epoch(test_epoch(e));
    obs::LedgerWarning w;
    w.epoch = 2;
    w.detector = "dead_layer";
    w.layer = "lif";
    w.value = 0.0;
    w.threshold = 1e-3;
    w.message = "layer died";
    ledger.write_warning(w);
    obs::LedgerFinal fin;
    fin.values = {{"accuracy", 0.3}, {"fps_per_watt", 3e4}};
    ledger.write_final(fin);
  }

  // Every line is a standalone JSON object tagged with a record type.
  std::ifstream in(path);
  std::string line;
  std::size_t lines = 0;
  while (std::getline(in, line)) {
    const JsonValue v = JsonValue::parse(line, "ledger-line");
    EXPECT_FALSE(v.string_or("record", "").empty());
    ++lines;
  }
  EXPECT_EQ(lines, 6u);  // manifest + 3 epochs + warning + final

  const obs::ParsedLedger parsed = obs::parse_ledger(path);
  EXPECT_EQ(parsed.manifest.run_id, "unit");
  EXPECT_EQ(parsed.manifest.config_fingerprint, 0xDEADBEEFCAFEF00DULL);
  EXPECT_EQ(parsed.manifest.seed, 0xda7aULL);
  EXPECT_EQ(parsed.manifest.threads, 2);
  EXPECT_EQ(parsed.manifest.resumed_from, -1);
  EXPECT_EQ(parsed.manifest_count, 1);
  ASSERT_EQ(parsed.epochs.size(), 3u);
  for (std::size_t i = 0; i < parsed.epochs.size(); ++i) {
    EXPECT_EQ(parsed.epochs[i].epoch, static_cast<std::int64_t>(i));
    ASSERT_EQ(parsed.epochs[i].layers.size(), 2u);
    EXPECT_EQ(parsed.epochs[i].layers[1].name, "lif");
    EXPECT_TRUE(parsed.epochs[i].layers[1].spiking);
    EXPECT_EQ(parsed.epochs[i].hw.size(), 3u);
  }
  EXPECT_DOUBLE_EQ(parsed.epochs[1].train_accuracy, 0.2);
  ASSERT_EQ(parsed.warnings.size(), 1u);
  EXPECT_EQ(parsed.warnings[0].detector, "dead_layer");
  ASSERT_TRUE(parsed.has_final);
  EXPECT_EQ(parsed.final_record.values.size(), 2u);
  EXPECT_DOUBLE_EQ(parsed.final_record.values[0].second, 0.3);
}

TEST(RunLedger, ResumeAppendsWithMarker) {
  const std::string path = temp_path("ledger_resume.jsonl");
  std::remove(path.c_str());
  {
    obs::RunLedger ledger(path);
    ledger.write_manifest(test_manifest());
    ledger.write_epoch(test_epoch(0));
    ledger.write_epoch(test_epoch(1));
  }
  {
    obs::RunLedger ledger(path, /*append=*/true);
    auto m = test_manifest();
    m.resumed_from = 2;
    ledger.write_manifest(m);
    ledger.write_epoch(test_epoch(2));
  }
  const obs::ParsedLedger parsed = obs::parse_ledger(path);
  EXPECT_EQ(parsed.manifest_count, 2);
  EXPECT_EQ(parsed.manifest.resumed_from, -1);  // first manifest kept
  ASSERT_EQ(parsed.epochs.size(), 3u);
  EXPECT_EQ(parsed.epochs.back().epoch, 2);
}

TEST(RunLedger, TruncatesWithoutAppend) {
  const std::string path = temp_path("ledger_trunc.jsonl");
  std::remove(path.c_str());
  {
    obs::RunLedger ledger(path);
    ledger.write_manifest(test_manifest());
    ledger.write_epoch(test_epoch(0));
  }
  {
    obs::RunLedger ledger(path);  // fresh run over the same path
    ledger.write_manifest(test_manifest());
  }
  const obs::ParsedLedger parsed = obs::parse_ledger(path);
  EXPECT_EQ(parsed.manifest_count, 1);
  EXPECT_TRUE(parsed.epochs.empty());
}

TEST(RunLedger, ParseRejectsMissingManifest) {
  const std::string path = temp_path("ledger_bad.jsonl");
  {
    std::ofstream out(path);
    out << "{\"record\":\"epoch\",\"epoch\":0}\n";
  }
  EXPECT_THROW(obs::parse_ledger(path), InvalidArgument);
  EXPECT_THROW(obs::parse_ledger(temp_path("no_such_ledger.jsonl")),
               InvalidArgument);
}

TEST(RunLedger, ParseDirSortsAndRequiresRuns) {
  const std::string dir = temp_path("ledger_dir");
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  EXPECT_THROW(obs::parse_ledger_dir(dir), InvalidArgument);
  for (const char* name : {"b_run.jsonl", "a_run.jsonl"}) {
    obs::RunLedger ledger(dir + "/" + name);
    auto m = test_manifest();
    m.run_id = name;
    ledger.write_manifest(m);
    ledger.write_epoch(test_epoch(0));
  }
  const auto runs = obs::parse_ledger_dir(dir);
  ASSERT_EQ(runs.size(), 2u);
  EXPECT_EQ(runs[0].manifest.run_id, "a_run.jsonl");
  EXPECT_EQ(runs[1].manifest.run_id, "b_run.jsonl");
}

// ------------------------------------------------------------------ run ids

TEST(LedgerFlags, SanitizeRunId) {
  EXPECT_EQ(exp::sanitize_run_id("beta=0.25 theta=1"), "beta_0.25_theta_1");
  EXPECT_EQ(exp::sanitize_run_id("a/b\\c"), "a_b_c");
  EXPECT_EQ(exp::sanitize_run_id("ok-name.v2"), "ok-name.v2");
}

// ------------------------------------------------------------- spike health

std::vector<obs::LedgerLayerStat> healthy_layers(double rate) {
  return {{0, "conv2d", false, 1.0, 1.0},
          {1, "lif", true, 1.0, rate},
          {2, "lif", true, 1.0, rate * 1.5}};
}

TEST(SpikeHealth, SilentOnHealthyTrajectory) {
  obs::SpikeHealthMonitor monitor;
  for (std::int64_t e = 0; e < 10; ++e)
    EXPECT_TRUE(monitor.check(e, healthy_layers(0.1 + 0.01 * e)).empty());
  EXPECT_EQ(monitor.warning_count(), 0);
}

TEST(SpikeHealth, DeadLayerFiresOnceAndRearmsAfterRecovery) {
  TelemetryGuard guard(obs::kMetricsBit);
  obs::reset_metrics();
  obs::SpikeHealthMonitor monitor;
  auto dead = healthy_layers(0.1);
  dead[1].out_density = 0.0;

  // Warm-up epochs are a grace period: nothing fires before the minimum
  // epoch.
  EXPECT_TRUE(monitor.check(0, dead).empty());
  static_assert(obs::kSpikeHealthMinEpoch >= 1);

  const auto first = monitor.check(obs::kSpikeHealthMinEpoch, dead);
  ASSERT_EQ(first.size(), 1u);
  EXPECT_EQ(first[0].detector, "dead_layer");
  // Layers are identified by "<index>.<name>": the test topology has two
  // layers named "lif" and only index 1 is dead.
  EXPECT_EQ(first[0].layer, "1.lif");
  EXPECT_DOUBLE_EQ(first[0].value, 0.0);
  EXPECT_DOUBLE_EQ(first[0].threshold, obs::kDeadOutputDensity);
  EXPECT_NE(first[0].message.find("1.lif"), std::string::npos);

  // Staying dead is not news; recovering and dying again is.
  EXPECT_TRUE(monitor.check(obs::kSpikeHealthMinEpoch + 1, dead).empty());
  EXPECT_TRUE(
      monitor.check(obs::kSpikeHealthMinEpoch + 2, healthy_layers(0.1))
          .empty());
  EXPECT_EQ(monitor.check(obs::kSpikeHealthMinEpoch + 3, dead).size(), 1u);
  EXPECT_EQ(monitor.warning_count(), 2);

  const auto snaps = obs::snapshot_metrics();
  const auto* counter = find_metric(snaps, "train.spike_health.dead_layer");
  ASSERT_NE(counter, nullptr);
  EXPECT_EQ(counter->count, 2);
}

TEST(SpikeHealth, SaturatedLayerFires) {
  obs::SpikeHealthMonitor monitor;
  auto layers = healthy_layers(0.1);
  layers[2].out_density = 0.99;
  const auto warnings = monitor.check(obs::kSpikeHealthMinEpoch, layers);
  ASSERT_EQ(warnings.size(), 1u);
  EXPECT_EQ(warnings[0].detector, "saturated_layer");
  EXPECT_DOUBLE_EQ(warnings[0].threshold, obs::kSaturationDensity);
}

TEST(SpikeHealth, CollapseFiresOnMeanRateDrop) {
  obs::SpikeHealthMonitor monitor;
  const auto e0 = obs::kSpikeHealthMinEpoch;
  EXPECT_TRUE(monitor.check(e0, healthy_layers(0.2)).empty());
  // Mean rate falls to < half the running peak -> network-wide collapse.
  const auto warnings = monitor.check(e0 + 1, healthy_layers(0.05));
  ASSERT_EQ(warnings.size(), 1u);
  EXPECT_EQ(warnings[0].detector, "collapse");
  EXPECT_TRUE(warnings[0].layer.empty());
  // The floor is the running peak (mean of 0.2 and 0.3) less the drop.
  EXPECT_DOUBLE_EQ(warnings[0].threshold, 0.25 * (1.0 - obs::kCollapseDrop));
}

// ------------------------------------------------------ SpikeRecord guards

TEST(SpikeRecordGuards, AddStepValidatesIndexAndCounts) {
  snn::SpikeRecord record({"conv", "lif"}, {false, true});
  EXPECT_THROW(record.add_step(2, 1, 4, 1, 4), InvalidArgument);
  EXPECT_THROW(record.add_step(0, -1, 4, 1, 4), InvalidArgument);
  EXPECT_THROW(record.add_step(0, 5, 4, 1, 4), InvalidArgument);
  EXPECT_THROW(record.add_step(0, 1, 4, 5, 4), InvalidArgument);
  record.add_step(0, 1, 4, 2, 4);  // valid counts accumulate
  EXPECT_EQ(record.layers()[0].input_nonzeros, 1);
}

TEST(SpikeRecordGuards, AddStepRejectsOverflow) {
  snn::SpikeRecord record({"lif"}, {true});
  const std::int64_t big = std::numeric_limits<std::int64_t>::max();
  record.add_step(0, big, big, big, big);
  EXPECT_THROW(record.add_step(0, 1, 1, 0, 0), InvalidArgument);
}

TEST(SpikeRecordGuards, MergeRejectsMismatchedStructure) {
  snn::SpikeRecord a({"conv", "lif"}, {false, true});
  a.add_step(0, 1, 4, 2, 4);

  snn::SpikeRecord wrong_count({"conv"}, {false});
  EXPECT_THROW(a.merge(wrong_count), InvalidArgument);
  snn::SpikeRecord wrong_name({"conv", "relu"}, {false, true});
  EXPECT_THROW(a.merge(wrong_name), InvalidArgument);
  snn::SpikeRecord wrong_spiking({"conv", "lif"}, {false, false});
  EXPECT_THROW(a.merge(wrong_spiking), InvalidArgument);

  // A failed merge must leave the destination untouched.
  EXPECT_EQ(a.layers()[0].input_nonzeros, 1);
  EXPECT_EQ(a.layers()[0].input_elements, 4);

  snn::SpikeRecord ok({"conv", "lif"}, {false, true});
  ok.add_step(0, 3, 4, 1, 4);
  a.merge(ok);
  EXPECT_EQ(a.layers()[0].input_nonzeros, 4);
}

TEST(SpikeRecordGuards, MergeRejectsCounterOverflow) {
  snn::SpikeRecord a({"lif"}, {true});
  const std::int64_t big = std::numeric_limits<std::int64_t>::max();
  a.add_step(0, big, big, 0, 0);
  snn::SpikeRecord b({"lif"}, {true});
  b.add_step(0, 1, 1, 0, 0);
  EXPECT_THROW(a.merge(b), InvalidArgument);
  EXPECT_EQ(a.layers()[0].input_nonzeros, big);  // unchanged
}

// ------------------------------------------------------- gauge retirement

TEST(GaugeRetirement, PrefixResetHidesUntilNextSet) {
  TelemetryGuard guard(obs::kMetricsBit);
  obs::reset_metrics();
  const auto g1 = obs::gauge("train.firing_rate.netA.0.lif");
  const auto g2 = obs::gauge("train.firing_rate.netB.0.lif");
  obs::set(g1, 0.25);
  obs::set(g2, 0.5);

  obs::reset_gauges_with_prefix("train.firing_rate.netA.");
  auto snaps = obs::snapshot_metrics();
  EXPECT_EQ(find_metric(snaps, "train.firing_rate.netA.0.lif"), nullptr);
  const auto* kept = find_metric(snaps, "train.firing_rate.netB.0.lif");
  ASSERT_NE(kept, nullptr);
  EXPECT_DOUBLE_EQ(kept->value, 0.5);

  // The next set() revives the retired gauge with the fresh value only.
  obs::set(g1, 0.125);
  snaps = obs::snapshot_metrics();
  const auto* revived = find_metric(snaps, "train.firing_rate.netA.0.lif");
  ASSERT_NE(revived, nullptr);
  EXPECT_DOUBLE_EQ(revived->value, 0.125);
}

// ------------------------------------------------------------- dashboard

std::vector<obs::ParsedLedger> synthetic_runs(std::size_t n) {
  std::vector<obs::ParsedLedger> runs;
  for (std::size_t r = 0; r < n; ++r) {
    obs::ParsedLedger run;
    run.path = "run" + std::to_string(r) + ".jsonl";
    run.manifest = test_manifest();
    run.manifest.run_id = "run" + std::to_string(r);
    for (std::int64_t e = 0; e < 3; ++e) run.epochs.push_back(test_epoch(e));
    run.final_record.values = {{"accuracy", 0.3},
                               {"fps_per_watt", 3e4 + 100.0 * r}};
    run.has_final = true;
    runs.push_back(std::move(run));
  }
  return runs;
}

TEST(Dashboard, RendersSelfContainedHtml) {
  const auto runs = synthetic_runs(2);
  const std::string html = obs::render_dashboard_html(runs, {}, {}, {});
  EXPECT_NE(html.find("<!DOCTYPE html>"), std::string::npos);
  EXPECT_NE(html.find("<svg"), std::string::npos);
  EXPECT_NE(html.find("<polyline"), std::string::npos);
  EXPECT_NE(html.find("run0"), std::string::npos);
  EXPECT_NE(html.find("prefers-color-scheme: dark"), std::string::npos);
  EXPECT_NE(html.find("<title>"), std::string::npos);  // native tooltips
  // Self-contained: no external scripts, stylesheets, images, or fonts.
  EXPECT_EQ(html.find("<script"), std::string::npos);
  EXPECT_EQ(html.find("src="), std::string::npos);
  EXPECT_EQ(html.find("href="), std::string::npos);
  EXPECT_EQ(html.find("@import"), std::string::npos);
  EXPECT_EQ(html.find("http://"), std::string::npos);
  EXPECT_EQ(html.find("https://"), std::string::npos);
}

TEST(Dashboard, EscapesUserStrings) {
  auto runs = synthetic_runs(1);
  runs[0].manifest.run_id = "<script>alert(1)</script>";
  obs::DashboardOptions options;
  options.title = "a < b & c";
  const std::string html = obs::render_dashboard_html(runs, {}, {}, options);
  EXPECT_EQ(html.find("<script>alert"), std::string::npos);
  EXPECT_NE(html.find("&lt;script&gt;alert"), std::string::npos);
  EXPECT_NE(html.find("a &lt; b &amp; c"), std::string::npos);
}

TEST(Dashboard, FoldsBeyondPaletteIntoOther) {
  const auto runs = synthetic_runs(10);  // 10 > the 8-color palette
  const std::string html = obs::render_dashboard_html(runs, {}, {}, {});
  EXPECT_NE(html.find("var(--other)"), std::string::npos);
  EXPECT_NE(html.find("other (3 runs)"), std::string::npos);
}

TEST(Dashboard, RejectsEmptyInput) {
  EXPECT_THROW(obs::render_dashboard_html({}, {}, {}, {}), InvalidArgument);
}

TEST(Dashboard, WritesCsvRows) {
  const std::string path = temp_path("ledger_dash.csv");
  obs::write_ledger_csv(path, synthetic_runs(2));
  std::ifstream in(path);
  std::string line;
  std::vector<std::string> lines;
  while (std::getline(in, line)) lines.push_back(line);
  ASSERT_EQ(lines.size(), 7u);  // header + 2 runs x 3 epochs
  EXPECT_EQ(lines[0],
            "run_id,epoch,train_loss,train_accuracy,lr,grad_norm_mean,"
            "grad_norm_max,firing_rate,latency_us,throughput_fps,watts,"
            "fps_per_watt");
  EXPECT_NE(lines[1].find("run0,0,"), std::string::npos);
}

// ------------------------------------------------------------- end to end

exp::ExperimentConfig smoke_config() {
  auto cfg = exp::ExperimentConfig::for_profile(exp::Profile::kSmoke);
  cfg.model.lif.surrogate = snn::Surrogate::fast_sigmoid(0.25f);
  return cfg;
}

TEST(LedgerEndToEnd, SmokeExperimentWritesFullTrajectory) {
  const std::string dir = temp_path("ledger_e2e");
  std::filesystem::remove_all(dir);
  auto cfg = smoke_config();
  cfg.ledger.dir = dir;
  cfg.ledger.run_id = "smoke";
  cfg.ledger.argv = "test_ledger --e2e";
  const auto result = exp::run_experiment(cfg);

  const auto parsed = obs::parse_ledger(dir + "/smoke.jsonl");
  EXPECT_EQ(parsed.manifest.run_id, "smoke");
  EXPECT_NE(parsed.manifest.config_fingerprint, 0u);
  EXPECT_EQ(parsed.manifest.argv, "test_ledger --e2e");
  ASSERT_EQ(parsed.epochs.size(),
            static_cast<std::size_t>(cfg.trainer.epochs));
  for (const auto& e : parsed.epochs) {
    EXPECT_GT(e.lr, 0.0);
    EXPECT_GT(e.grad_norm_max, 0.0);
    EXPECT_FALSE(e.layers.empty());
    // The hardware trajectory is live from epoch 0.
    bool found_fpsw = false;
    for (const auto& [key, value] : e.hw) {
      if (key == "fps_per_watt") {
        found_fpsw = true;
        EXPECT_GT(value, 0.0);
      }
    }
    EXPECT_TRUE(found_fpsw);
  }
  ASSERT_TRUE(parsed.has_final);
  // The final record is the result-field table: its keys in table order,
  // each value with the result's bits.
  const auto& fin = parsed.final_record.values;
  ASSERT_EQ(fin.size(), std::size(exp::kResultFields));
  for (std::size_t i = 0; i < fin.size(); ++i) {
    const exp::ResultField& field = exp::kResultFields[i];
    EXPECT_EQ(fin[i].first, field.name);
    EXPECT_EQ(std::memcmp(&fin[i].second, &(result.*field.member),
                          sizeof(double)),
              0)
        << field.name;
  }

  // The probe pass must not perturb training: an identical config without
  // the ledger reaches bit-identical accuracy.
  const auto baseline = exp::run_experiment(smoke_config());
  EXPECT_DOUBLE_EQ(baseline.accuracy, result.accuracy);

  // And the dashboard renders the directory.
  const std::string out = dir + "/dash.html";
  obs::write_dashboard_html(out, obs::parse_ledger_dir(dir), {}, {}, {});
  std::ifstream in(out);
  EXPECT_TRUE(in.good());
}

TEST(LedgerEndToEnd, DeadNetworkTriggersSpikeHealthWarnings) {
  TelemetryGuard guard(obs::kMetricsBit);
  obs::reset_metrics();
  const std::string dir = temp_path("ledger_dead");
  std::filesystem::remove_all(dir);
  auto cfg = smoke_config();
  // An unreachable threshold silences every LIF layer: the canonical
  // dead-network failure the monitor exists to catch.
  cfg.model.lif.threshold = 100.0f;
  cfg.ledger.dir = dir;
  cfg.ledger.run_id = "dead";
  exp::run_experiment(cfg);

  const auto parsed = obs::parse_ledger(dir + "/dead.jsonl");
  ASSERT_FALSE(parsed.warnings.empty());
  bool saw_dead = false;
  for (const auto& w : parsed.warnings)
    if (w.detector == "dead_layer") saw_dead = true;
  EXPECT_TRUE(saw_dead);
  const auto snaps = obs::snapshot_metrics();
  const auto* counter = find_metric(snaps, "train.spike_health.dead_layer");
  ASSERT_NE(counter, nullptr);
  EXPECT_GT(counter->count, 0);
}

TEST(LedgerEndToEnd, ResumedRunAppendsSecondManifest) {
  const std::string ledger_dir = temp_path("ledger_resume_e2e");
  const std::string ckpt_dir = temp_path("ledger_resume_ckpt");
  std::filesystem::remove_all(ledger_dir);
  std::filesystem::remove_all(ckpt_dir);

  auto cfg = smoke_config();
  cfg.ledger.dir = ledger_dir;
  cfg.ledger.run_id = "resumable";
  cfg.trainer.checkpoint_dir = ckpt_dir;
  cfg.trainer.stop_after_epochs = 1;  // simulate an interrupted run
  exp::run_experiment(cfg);

  cfg.trainer.stop_after_epochs = 0;
  cfg.trainer.resume = true;
  exp::run_experiment(cfg);

  const auto parsed = obs::parse_ledger(ledger_dir + "/resumable.jsonl");
  EXPECT_GT(parsed.manifest_count, 1);
  ASSERT_EQ(parsed.epochs.size(),
            static_cast<std::size_t>(cfg.trainer.epochs));
  for (std::size_t i = 0; i < parsed.epochs.size(); ++i)
    EXPECT_EQ(parsed.epochs[i].epoch, static_cast<std::int64_t>(i));
  EXPECT_TRUE(parsed.has_final);
}

TEST(LedgerEndToEnd, SweepWritesOneStreamAndCheckpointDirPerPoint) {
  const std::string ledger_dir = temp_path("ledger_sweep");
  const std::string ckpt_dir = temp_path("ledger_sweep_ckpt");
  std::filesystem::remove_all(ledger_dir);
  std::filesystem::remove_all(ckpt_dir);
  auto cfg = smoke_config();
  cfg.train_size = 64;
  cfg.test_size = 32;
  cfg.trainer.epochs = 1;
  cfg.trainer.num_steps = 2;
  cfg.ledger.dir = ledger_dir;
  cfg.ledger.argv = "fig2 --ledger";
  cfg.trainer.checkpoint_dir = ckpt_dir;

  const auto points = exp::run_beta_theta_sweep(cfg, {0.25, 0.5}, {1.0});
  ASSERT_EQ(points.size(), 2u);
  for (const char* key : {"beta=0.25 theta=1", "beta=0.5 theta=1"}) {
    const std::string name = exp::sanitize_run_id(key);
    const auto parsed = obs::parse_ledger(ledger_dir + "/" + name + ".jsonl");
    EXPECT_EQ(parsed.manifest.run_id, key);
    EXPECT_EQ(parsed.manifest.argv, "fig2 --ledger");
    bool tagged = false;  // firing-rate gauges are namespaced per point
    for (const auto& [k, v] : parsed.manifest.info)
      if (k == "run_tag") tagged = v == name;
    EXPECT_TRUE(tagged) << key;
    EXPECT_TRUE(parsed.has_final) << key;
    EXPECT_TRUE(std::filesystem::is_directory(ckpt_dir + "/" + name)) << key;
  }
}

}  // namespace
