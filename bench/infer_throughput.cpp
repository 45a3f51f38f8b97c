// INFER — serving-throughput benchmark for the sparsity-aware inference
// engine.  Compiles a model-zoo network into a CompiledModel, then times
// identical InferenceSession windows with the conv crossover forced to each
// side:
//
//   * sparse  — the event-driven scatter kernel on every conv layer,
//   * dense   — the training stack's direct-conv forward body
//               (snn::Conv2d::forward_samples) on every conv layer.
//
// Linear layers run their one zero-skipping kernel in both modes, so the
// two paths differ only in conv time and the dispatch counts are conv
// layer-steps.  Reports FPS, latency percentiles, and the achieved input
// density of the conv and linear layers.  Because both paths are bit-identical to
// SpikingNetwork::forward, the bench first asserts spike-count parity
// against the dense training path and aborts on any mismatch — a
// performance number for a wrong result is worthless.
//
// Writes BENCH_infer.json (machine-readable summary, consumed by CI) and,
// with --ledger <dir>, a run-ledger stream with the measured numbers.
//
//   ./infer_throughput                        # quickstart CSNN, beta=0.5
//   ./infer_throughput --model mlp --reps 50
//   ./infer_throughput --threads 4 --ledger runs
#include <algorithm>
#include <chrono>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <vector>

#include "core/cli.h"
#include "core/error.h"
#include "core/parallel.h"
#include "core/rng.h"
#include "core/stats.h"
#include "core/table.h"
#include "exp/ledger_flags.h"
#include "exp/standard_flags.h"
#include "infer/session.h"
#include "obs/ledger.h"
#include "obs/metrics.h"
#include "obs/telemetry.h"
#include "snn/model_zoo.h"

using namespace spiketune;

namespace {

struct PathResult {
  double fps = 0.0;          // batch / steady-state mean latency
  double mean_ms = 0.0;      // steady state: first timed window excluded
  double p50_ms = 0.0;
  double p90_ms = 0.0;
  double p99_ms = 0.0;
  double first_window_ms = 0.0;  // the excluded allocation-warming window
  double input_density = 0.0;  // conv and linear layers, exact counts
  std::int64_t sparse_dispatches = 0;
  std::int64_t dense_dispatches = 0;
};

// Times `reps` runs of one window through a session with the crossover
// forced to `crossover` (< 0 dense, >= 1 sparse).  The first timed window
// is reported separately and excluded from the steady-state summary: even
// after the untimed warm-ups, the first measured run can still pay
// one-time costs (page faults on freshly-touched scratch, thread-pool
// spin-up, cold caches) that a long-lived serving process never sees
// again, and with small `reps` that single outlier used to drag the FPS
// figure well below what the engine sustains.
PathResult time_path(const infer::CompiledModel& model,
                     const std::vector<Tensor>& window, double crossover,
                     int warmup, int reps) {
  infer::InferenceSession session(
      model, {.max_batch = window.front().shape()[0],
              .sparse_crossover = crossover,
              .record_stats = false});
  for (int i = 0; i < warmup; ++i) session.run(window);

  PathResult r;
  std::vector<double> lat_ms;
  lat_ms.reserve(static_cast<std::size_t>(reps));
  const double batch = static_cast<double>(window.front().shape()[0]);
  for (int i = 0; i < reps; ++i) {
    const auto t0 = std::chrono::steady_clock::now();
    const auto out = session.run(window);
    const auto t1 = std::chrono::steady_clock::now();
    lat_ms.push_back(
        std::chrono::duration<double, std::milli>(t1 - t0).count());
    if (i == 0) {
      r.input_density = out.mean_input_density;
      r.sparse_dispatches = out.sparse_dispatches;
      r.dense_dispatches = out.dense_dispatches;
    }
  }
  r.first_window_ms = lat_ms.front();
  // Steady state: drop the first timed window (unless it is all we have).
  std::vector<double> steady(
      lat_ms.begin() + (lat_ms.size() > 1 ? 1 : 0), lat_ms.end());
  const LatencyStats stats = summarize_latencies(steady);
  r.mean_ms = stats.mean;
  r.p50_ms = stats.p50;
  r.p90_ms = stats.p90;
  r.p99_ms = stats.p99;
  r.fps = r.mean_ms > 0.0 ? batch / (r.mean_ms / 1e3) : 0.0;
  return r;
}

// Binary spike window: each input element fires with probability `density`
// each step — the serving-side traffic an event-driven accelerator sees.
std::vector<Tensor> spike_window(std::int64_t steps, Shape shape,
                                 double density, Rng& rng) {
  std::vector<Tensor> window;
  window.reserve(static_cast<std::size_t>(steps));
  for (std::int64_t t = 0; t < steps; ++t) {
    Tensor x = Tensor::full(shape, 0.0f);
    float* p = x.data();
    for (std::int64_t i = 0; i < x.numel(); ++i) {
      if (rng.uniform() < density) p[i] = 1.0f;
    }
    window.push_back(std::move(x));
  }
  return window;
}

std::string json_path(const PathResult& r) {
  std::ostringstream os;
  os << "{\"fps\": " << r.fps << ", \"mean_ms\": " << r.mean_ms
     << ", \"p50_ms\": " << r.p50_ms << ", \"p90_ms\": " << r.p90_ms
     << ", \"p99_ms\": " << r.p99_ms
     << ", \"first_window_ms\": " << r.first_window_ms
     << ", \"input_density\": " << r.input_density
     << ", \"sparse_dispatches\": " << r.sparse_dispatches
     << ", \"dense_dispatches\": " << r.dense_dispatches << "}";
  return os.str();
}

}  // namespace

int main(int argc, char** argv) {
  CliFlags flags;
  flags.declare("model", "csnn", "topology: csnn (quickstart) | mlp");
  flags.declare("batch", "32", "samples per window");
  flags.declare("num-steps", "8", "timesteps per window");
  flags.declare("density", "0.15", "input spike probability per step");
  flags.declare("beta", "0.5", "LIF membrane leak");
  flags.declare("theta", "1.5", "LIF firing threshold");
  flags.declare("warmup", "3", "untimed warm-up runs per path");
  flags.declare("reps", "20", "timed runs per path");
  flags.declare("json", "BENCH_infer.json", "JSON summary path (empty: skip)");
  flags.declare("ledger", "", "write a run ledger into this directory");
  exp::declare_standard_flags(flags, exp::DriverKind::kPlain);
  try {
    flags.parse(argc - 1, argv + 1);
  } catch (const Error& e) {
    std::cerr << e.what() << "\n" << flags.usage(argv[0]);
    return 2;
  }
  if (flags.help_requested()) {
    std::cout << flags.usage(argv[0]);
    return 0;
  }
  const auto std_flags =
      exp::apply_standard_flags(flags, exp::DriverKind::kPlain);
  (void)std_flags;

  const std::string model_name = flags.get("model");
  const std::int64_t batch = flags.get_int("batch");
  const std::int64_t num_steps = flags.get_int("num-steps");
  const double density = flags.get_double("density");
  const int warmup = static_cast<int>(flags.get_int("warmup"));
  const int reps = static_cast<int>(flags.get_int("reps"));

  snn::LifConfig lif;
  lif.beta = static_cast<float>(flags.get_double("beta"));
  lif.threshold = static_cast<float>(flags.get_double("theta"));

  snn::NamedModel zoo;
  try {
    zoo = snn::make_model_by_name(model_name, lif);
  } catch (const InvalidArgument&) {
    std::cerr << "unknown --model '" << model_name << "'\n";
    return 2;
  }

  std::vector<std::int64_t> dims{batch};
  for (std::int64_t d : zoo.per_sample.dims()) dims.push_back(d);
  Rng rng(0xbe7c);
  const auto window = spike_window(num_steps, Shape(dims), density, rng);

  std::cout << "== INFER: serving throughput (" << model_name << ", batch "
            << batch << ", T " << num_steps << ", beta "
            << fmt_f(lif.beta, 2) << ", theta " << fmt_f(lif.threshold, 2)
            << ", threads " << num_threads() << ") ==\n";

  const std::string json = flags.get("json");
  const std::string ledger_dir = flags.get("ledger");
  // The ledger is written on BOTH exits (clean and parity failure): a run
  // that fails its gate must still leave a final record, or the sweep
  // dashboard silently shows nothing instead of a red row.
  const auto write_ledger = [&](bool parity_ok, const PathResult* sp,
                                const PathResult* de, double speedup) {
    if (ledger_dir.empty()) return;
    std::error_code ec;
    std::filesystem::create_directories(ledger_dir, ec);
    obs::RunLedger ledger(ledger_dir + "/infer_throughput.jsonl");
    obs::LedgerManifest m;
    m.run_id = "infer_throughput";
    m.threads = num_threads();
    m.argv = exp::join_argv(argc, argv);
    m.build = std::string("cxx ") + __VERSION__;
    m.info.emplace_back("model", model_name);
    m.params.emplace_back("batch", static_cast<double>(batch));
    m.params.emplace_back("num_steps", static_cast<double>(num_steps));
    m.params.emplace_back("beta", lif.beta);
    m.params.emplace_back("theta", lif.threshold);
    m.params.emplace_back("density", density);
    ledger.write_manifest(m);
    obs::LedgerFinal fin;
    fin.values.emplace_back("parity", parity_ok ? 1.0 : 0.0);
    if (sp != nullptr && de != nullptr) {
      fin.values.emplace_back("measured_fps", sp->fps);
      fin.values.emplace_back("dense_fps", de->fps);
      fin.values.emplace_back("speedup", speedup);
      fin.values.emplace_back("p99_ms", sp->p99_ms);
      fin.values.emplace_back("input_density", sp->input_density);
    }
    ledger.write_final(fin);
    std::cout << "wrote " << ledger.path() << "\n";
  };

  // Parity gate: both session paths must reproduce the training-stack
  // forward bit for bit before any timing is believed.
  const auto model = infer::CompiledModel::compile(*zoo.net, zoo.per_sample);
  const auto reference = zoo.net->forward(window);
  std::string parity_error;
  try {
    for (double crossover : {2.0, -1.0}) {
      infer::InferenceSession session(
          model, {.max_batch = batch, .sparse_crossover = crossover});
      const auto got = session.run(window);
      const auto* want = reference.spike_counts.data();
      const auto* have = got.spike_counts.data();
      for (std::int64_t i = 0; i < reference.spike_counts.numel(); ++i) {
        ST_REQUIRE(want[i] == have[i],
                   "parity failure on the " +
                       std::string(crossover >= 1.0 ? "sparse" : "dense") +
                       " path at element " + std::to_string(i) +
                       ": dense forward " + std::to_string(want[i]) +
                       " vs session " + std::to_string(have[i]));
      }
    }
  } catch (const Error& e) {
    parity_error = e.what();
  }
  if (!parity_error.empty()) {
    // Failure path keeps the full observability contract: a JSON summary
    // (parity: false, no timings — they would be lies), the ledger final
    // record, and metrics flushed by std_flags.telemetry at scope exit.
    std::cerr << "PARITY FAILURE: " << parity_error << "\n";
    if (obs::metrics_enabled())
      obs::set(obs::gauge("infer.bench.parity"), 0.0);
    if (!json.empty()) {
      std::ofstream out(json);
      ST_REQUIRE(out.good(), "cannot open " + json + " for writing");
      out << "{\n"
          << "  \"model\": \"" << model_name << "\",\n"
          << "  \"batch\": " << batch << ",\n"
          << "  \"num_steps\": " << num_steps << ",\n"
          << "  \"parity\": false\n"
          << "}\n";
      std::cout << "wrote " << json << "\n";
    }
    write_ledger(false, nullptr, nullptr, 0.0);
    return 1;
  }
  std::cout << "parity: sparse and dense session paths match "
               "SpikingNetwork::forward bitwise\n\n";

  const auto sparse = time_path(model, window, 2.0, warmup, reps);
  const auto dense = time_path(model, window, -1.0, warmup, reps);
  const double speedup = dense.fps > 0.0 ? sparse.fps / dense.fps : 0.0;

  AsciiTable table({"path", "FPS", "mean", "p50", "p90", "p99", "density"});
  table.set_title("serving throughput (" + std::to_string(reps) +
                  " reps, first timed window excluded)");
  auto row = [](const char* name, const PathResult& r) {
    return std::vector<std::string>{
        name,
        fmt_f(r.fps, 0),
        fmt_f(r.mean_ms, 2) + "ms",
        fmt_f(r.p50_ms, 2) + "ms",
        fmt_f(r.p90_ms, 2) + "ms",
        fmt_f(r.p99_ms, 2) + "ms",
        fmt_pct(r.input_density, 1)};
  };
  table.add_row(row("sparse", sparse));
  table.add_row(row("dense", dense));
  table.print(std::cout);
  std::cout << "sparse vs dense: " << fmt_x(speedup, 2)
            << " FPS at achieved input density "
            << fmt_pct(sparse.input_density, 1) << "\n";

  if (obs::metrics_enabled()) {
    obs::set(obs::gauge("infer.bench.parity"), 1.0);
    obs::set(obs::gauge("infer.bench.fps_sparse"), sparse.fps);
    obs::set(obs::gauge("infer.bench.fps_dense"), dense.fps);
    obs::set(obs::gauge("infer.bench.speedup"), speedup);
    obs::set(obs::gauge("infer.bench.input_density"), sparse.input_density);
  }

  if (!json.empty()) {
    std::ofstream out(json);
    ST_REQUIRE(out.good(), "cannot open " + json + " for writing");
    out << "{\n"
        << "  \"model\": \"" << model_name << "\",\n"
        << "  \"batch\": " << batch << ",\n"
        << "  \"num_steps\": " << num_steps << ",\n"
        << "  \"beta\": " << lif.beta << ",\n"
        << "  \"theta\": " << lif.threshold << ",\n"
        << "  \"threads\": " << num_threads() << ",\n"
        << "  \"reps\": " << reps << ",\n"
        << "  \"parity\": true,\n"
        << "  \"sparse\": " << json_path(sparse) << ",\n"
        << "  \"dense\": " << json_path(dense) << ",\n"
        << "  \"speedup\": " << speedup << "\n"
        << "}\n";
    std::cout << "wrote " << json << "\n";
  }

  write_ledger(true, &sparse, &dense, speedup);
  return 0;
}
