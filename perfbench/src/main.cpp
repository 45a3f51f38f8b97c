// perfbench: the repository benchmark.
//
//   perfbench --workload <train-point|infer-window|serve-stream> --seed <n>
//             --seconds <s> --trace <0|1>
//
// Every workload runs the serve, infer and train phases (phases.h) so every
// run reports every end-to-end metric; the workload gives its own phase 40%
// of the measuring time and the other two 30% each, in kRounds rounds that
// interleave the phases.  --trace 0 prints the end-to-end metrics,
// --trace 1 the per-layer ones (with spans recorded around the public calls
// and written to --trace-dir).  The last line of stdout is the JSON result;
// a failed correctness gate exits 3 and prints no result.
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <stdexcept>
#include <string>

#include "core/parallel.h"
#include "env.h"
#include "gates.h"
#include "phases.h"
#include "report.h"
#include "stats.h"
#include "trace.h"

namespace perfbench {
namespace {

struct Plan {
  const char* workload;
  double infer_share;
  double serve_share;
  double train_share;
};
constexpr Plan kPlans[] = {
    {"train-point", 0.3, 0.3, 0.4},
    {"infer-window", 0.4, 0.3, 0.3},
    {"serve-stream", 0.3, 0.4, 0.3},
};
// Modules that have spans, for the per-module self times.
constexpr const char* kModules[] = {"data", "snn",   "train", "infer",
                                    "hw",   "serve", "exp"};
constexpr int kSetups = 3;
constexpr int kRounds = 6;

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string scratch_root = ".bench_build/tmp";
  std::string trace_dir = ".bench_build/traces";
};

Args parse(int argc, char** argv) {
  Args a;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + flag);
    const std::string v = argv[++i];
    if (flag == "--workload") {
      a.workload = v;
    } else if (flag == "--seed") {
      a.seed = std::stoull(v);
      have_seed = true;
    } else if (flag == "--seconds") {
      a.seconds = std::stod(v);
    } else if (flag == "--trace") {
      if (v != "0" && v != "1")
        throw std::invalid_argument("--trace takes 0 or 1");
      a.trace = v == "1";
    } else if (flag == "--scratch-root") {
      a.scratch_root = v;
    } else if (flag == "--trace-dir") {
      a.trace_dir = v;
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  if (!have_seed) throw std::invalid_argument("--seed is required");
  if (!(a.seconds > 0.0)) throw std::invalid_argument("--seconds must be > 0");
  return a;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

std::string env_json(const Args& a) {
  const char* commit = std::getenv("PERFBENCH_GIT_COMMIT");
  return std::string("{\"workload\": ") + json_string(a.workload) +
         ", \"seed\": " + std::to_string(a.seed) +
         ", \"seconds\": " + std::to_string(a.seconds) +
         ", \"trace\": " + (a.trace ? "1" : "0") +
         ", \"nproc\": " + std::to_string(nproc()) +
         ", \"cpu\": " + json_string(cpu_model()) +
         ", \"compiler\": " + json_string(PERFBENCH_COMPILER) +
         ", \"build_type\": " + json_string(PERFBENCH_BUILD_TYPE) +
         ", \"git_commit\": " +
         json_string(commit != nullptr && *commit ? commit : "unknown") +
         ", \"kernel_threads\": " + std::to_string(kKernelThreads) +
         ", \"serve_workers\": " + std::to_string(kServeWorkers) + "}";
}

int run(const Args& a) {
  const Plan* plan = nullptr;
  for (const Plan& p : kPlans)
    if (a.workload == p.workload) plan = &p;
  if (plan == nullptr)
    throw std::invalid_argument("unknown workload '" + a.workload + "'");
  std::cout << "env " << env_json(a) << std::endl;

  const TempDir scratch(a.scratch_root);
  Tracer tracer(a.trace);
  RunContext ctx;
  ctx.seed = a.seed;
  ctx.tracer = &tracer;

  spiketune::set_num_threads(kKernelThreads);
  // Set-up several times; the median is the metric, the last one is used.
  std::vector<double> setup_s;
  std::unique_ptr<InferPhase> infer;
  std::unique_ptr<ServePhase> serve;
  for (int i = 0; i < kSetups; ++i) {
    serve.reset();
    infer.reset();
    const std::int64_t t0 = now_ns();
    infer = std::make_unique<InferPhase>(a.seed, a.trace);
    serve = std::make_unique<ServePhase>(a.seed, scratch.path());
    setup_s.push_back(static_cast<double>(now_ns() - t0) * 1e-9);
  }
  ctx.e2e.add("setup_s", median(setup_s), "s");

  TrainPhase train(a.seed);
  const double round_s = a.seconds / kRounds;
  for (int r = 0; r < kRounds; ++r) {
    serve->measure(ctx, plan->serve_share * round_s);
    infer->measure(ctx, plan->infer_share * round_s);
    train.measure(ctx, plan->train_share * round_s);
  }
  serve->finish(ctx);
  serve.reset();
  infer->finish(ctx);
  infer.reset();
  train.finish(ctx);
  ctx.e2e.add("peak_rss_mb", peak_rss_mb(), "MB");

  if (a.trace) {
    for (const char* m : kModules)
      ctx.layer.add(std::string("self_ms.") + m, tracer.module_self_ms(m),
                    "ms");
    std::filesystem::create_directories(a.trace_dir);
    const std::string path = a.trace_dir + "/" + a.workload + "-seed" +
                             std::to_string(a.seed) + ".jsonl";
    tracer.write_jsonl(path);
    std::cout << "spans " << path << "\n";
  }
  const Report& out = a.trace ? ctx.layer : ctx.e2e;
  for (const Metric& m : out.metrics())
    std::printf("%-40s %16.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  std::cout << result_json(true, ctx.attempted, ctx.failed, out) << std::endl;
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(perfbench::parse(argc, argv));
  } catch (const perfbench::GateFailure& ex) {
    std::cerr << "perfbench: " << ex.what() << "\n";
    return 3;
  } catch (const std::exception& ex) {
    std::cerr << "perfbench: " << ex.what() << "\n";
    return 2;
  }
}
