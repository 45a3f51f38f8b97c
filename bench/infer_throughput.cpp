// INFER — serving-throughput benchmark for the inference engine.  Compiles
// a model-zoo network into a CompiledModel, then times identical
// InferenceSession windows: every conv layer runs the training stack's
// direct-conv forward body (snn::Conv2d::forward_samples) and every linear
// layer its zero-skipping kernel.  Reports FPS, latency percentiles, and
// the achieved input density of the conv and linear layers.  The session
// is bit-identical to SpikingNetwork::forward, so the bench first asserts
// spike-count parity against the training path and aborts on any mismatch
// — a performance number for a wrong result is worthless.
//
// Writes BENCH_infer.json (machine-readable summary, consumed by CI) and,
// with --ledger <dir>, a run-ledger stream with the measured numbers.
//
//   ./infer_throughput                        # quickstart CSNN, beta=0.5
//   ./infer_throughput --model mlp --reps 50
//   ./infer_throughput --threads 4 --ledger runs
#include <chrono>
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
#include "exp/standard_flags.h"
#include "infer/session.h"
#include "obs/ledger.h"
#include "obs/metrics.h"
#include "obs/telemetry.h"
#include "snn/model_zoo.h"

using namespace spiketune;

namespace {

struct WindowTiming {
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

// Times `reps` runs of one window through a session.  The first timed window
// is reported separately and excluded from the steady-state summary: even
// after the untimed warm-ups, the first measured run can still pay
// one-time costs (page faults on freshly-touched scratch, thread-pool
// spin-up, cold caches) that a long-lived serving process never sees
// again, and with small `reps` that single outlier used to drag the FPS
// figure well below what the engine sustains.
WindowTiming time_windows(const infer::CompiledModel& model,
                          const std::vector<Tensor>& window, int warmup,
                          int reps) {
  infer::InferenceSession session(model,
                                  {.max_batch = window.front().shape()[0]});
  for (int i = 0; i < warmup; ++i) session.run(window);

  WindowTiming r;
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

std::string json_timing(const WindowTiming& r) {
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
  flags.declare("warmup", "3", "untimed warm-up runs");
  flags.declare("reps", "20", "timed runs");
  flags.declare("json", "BENCH_infer.json", "JSON summary path (empty: skip)");
  flags.declare("ledger", "", "write a run ledger into this directory");
  exp::declare_standard_flags(flags, exp::DriverKind::kPlain);
  return run_main(flags, argc, argv, [&] {
    const auto std_flags =
        exp::apply_standard_flags(flags, exp::DriverKind::kPlain);

    const std::string model_name = flags.get("model");
    const std::int64_t batch = flags.get_int("batch");
    const std::int64_t num_steps = flags.get_int("num-steps");
    const double density = flags.get_double("density");
    const int warmup = static_cast<int>(flags.get_int("warmup"));
    const int reps = static_cast<int>(flags.get_int("reps"));

    snn::LifConfig lif;
    lif.beta = static_cast<float>(flags.get_double("beta"));
    lif.threshold = static_cast<float>(flags.get_double("theta"));

    snn::NamedModel zoo = snn::make_model_by_name(model_name, lif);

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
    const auto write_ledger = [&](bool parity_ok, const WindowTiming* r) {
      if (ledger_dir.empty()) return;
      std::error_code ec;
      std::filesystem::create_directories(ledger_dir, ec);
      obs::RunLedger ledger(ledger_dir + "/infer_throughput.jsonl");
      obs::LedgerManifest m;
      m.run_id = "infer_throughput";
      m.threads = num_threads();
      m.argv = join_argv(argc, argv);
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
      if (r != nullptr) {
        fin.values.emplace_back("measured_fps", r->fps);
        fin.values.emplace_back("p99_ms", r->p99_ms);
        fin.values.emplace_back("input_density", r->input_density);
      }
      ledger.write_final(fin);
      std::cout << "wrote " << ledger.path() << "\n";
    };

    // Parity gate: the session must reproduce the training-stack forward
    // bit for bit before any timing is believed.
    const auto model = infer::CompiledModel::compile(*zoo.net, zoo.per_sample);
    const auto reference = zoo.net->forward(window);
    std::string parity_error;
    try {
      infer::InferenceSession session(model, {.max_batch = batch});
      const auto got = session.run(window);
      const auto* want = reference.spike_counts.data();
      const auto* have = got.spike_counts.data();
      for (std::int64_t i = 0; i < reference.spike_counts.numel(); ++i) {
        ST_REQUIRE(want[i] == have[i],
                   "parity failure at element " + std::to_string(i) +
                       ": training forward " + std::to_string(want[i]) +
                       " vs session " + std::to_string(have[i]));
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
      write_ledger(false, nullptr);
      return 1;
    }
    std::cout << "parity: the session matches SpikingNetwork::forward "
                 "bitwise\n\n";

    const auto r = time_windows(model, window, warmup, reps);

    AsciiTable table({"FPS", "mean", "p50", "p90", "p99", "density"});
    table.set_title("serving throughput (" + std::to_string(reps) +
                    " reps, first timed window excluded)");
    table.add_row({fmt_f(r.fps, 0), fmt_f(r.mean_ms, 2) + "ms",
                   fmt_f(r.p50_ms, 2) + "ms", fmt_f(r.p90_ms, 2) + "ms",
                   fmt_f(r.p99_ms, 2) + "ms", fmt_pct(r.input_density, 1)});
    table.print(std::cout);

    if (obs::metrics_enabled()) {
      obs::set(obs::gauge("infer.bench.parity"), 1.0);
      obs::set(obs::gauge("infer.bench.fps"), r.fps);
      obs::set(obs::gauge("infer.bench.input_density"), r.input_density);
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
          << "  \"dense\": " << json_timing(r) << "\n"
          << "}\n";
      std::cout << "wrote " << json << "\n";
    }

    write_ledger(true, &r);
    return 0;
  });
}
