// MICRO — google-benchmark suite for the hot kernels underpinning training
// and simulation: GEMM variants, im2col, conv forward/backward (and the
// paired ratio of each against its im2col+GEMM oracle), the LIF step,
// spike encoders, the end-to-end CSNN timestep, and the hardware models
// (allocator, analytic analysis, event-sim tick).
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <vector>

#include "conv_oracle.h"  // tests/: the conv backward's reference loop
#include "core/parallel.h"
#include "core/rng.h"
#include "data/encoders.h"
#include "hw/event_sim.h"
#include "hw/perf_model.h"
#include "snn/conv2d.h"
#include "snn/lif.h"
#include "snn/model_zoo.h"
#include "tensor/gemm.h"
#include "tensor/im2col.h"
#include "tensor/tensor_ops.h"

using namespace spiketune;

namespace {

std::vector<float> random_vec(std::int64_t n, Rng& rng) {
  std::vector<float> v(static_cast<std::size_t>(n));
  for (auto& x : v) x = static_cast<float>(rng.uniform(-1.0, 1.0));
  return v;
}

// Applies the benchmark's `threads` argument for its duration and restores
// the serial default afterwards so later benchmarks are unaffected.
class ThreadsArg {
 public:
  explicit ThreadsArg(benchmark::State& state)
      : threads_(static_cast<int>(state.range(1))) {
    set_num_threads(threads_);
  }
  ~ThreadsArg() { set_num_threads(1); }
  ThreadsArg(const ThreadsArg&) = delete;
  ThreadsArg& operator=(const ThreadsArg&) = delete;

 private:
  int threads_;
};

const std::vector<std::int64_t> kThreadCounts{1, 2, 4};

void BM_Gemm(benchmark::State& state) {
  const std::int64_t n = state.range(0);
  ThreadsArg threads(state);
  Rng rng(1);
  const auto a = random_vec(n * n, rng);
  const auto b = random_vec(n * n, rng);
  std::vector<float> c(static_cast<std::size_t>(n * n));
  for (auto _ : state) {
    gemm(n, n, n, 1.0f, a.data(), b.data(), 0.0f, c.data());
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * 2 * n * n * n);
}
BENCHMARK(BM_Gemm)
    ->UseRealTime()
    ->ArgNames({"n", "threads"})
    ->ArgsProduct({{64, 128, 256}, kThreadCounts});

void BM_GemmSparseSpikes(benchmark::State& state) {
  // Spike-matrix GEMM: A is binary with the given density(%); the kernel's
  // zero-skip makes this the software analog of event-driven compute.
  const std::int64_t n = 256;
  const double density = static_cast<double>(state.range(0)) / 100.0;
  ThreadsArg threads(state);
  Rng rng(2);
  std::vector<float> a(static_cast<std::size_t>(n * n), 0.0f);
  for (auto& x : a) x = rng.bernoulli(density) ? 1.0f : 0.0f;
  const auto b = random_vec(n * n, rng);
  std::vector<float> c(static_cast<std::size_t>(n * n));
  for (auto _ : state) {
    gemm(n, n, n, 1.0f, a.data(), b.data(), 0.0f, c.data());
    benchmark::DoNotOptimize(c.data());
  }
}
BENCHMARK(BM_GemmSparseSpikes)
    ->UseRealTime()
    ->ArgNames({"density", "threads"})
    ->ArgsProduct({{5, 20, 100}, kThreadCounts});

void BM_Im2col(benchmark::State& state) {
  const std::int64_t s = state.range(0);
  ThreadsArg threads(state);
  ConvGeom g{32, s, s, 3, 3, 0, 0, 1, 1};
  Rng rng(3);
  const auto img = random_vec(g.channels * s * s, rng);
  std::vector<float> cols(
      static_cast<std::size_t>(g.col_rows() * g.col_cols()));
  for (auto _ : state) {
    im2col(g, img.data(), cols.data());
    benchmark::DoNotOptimize(cols.data());
  }
}
BENCHMARK(BM_Im2col)
    ->UseRealTime()
    ->ArgNames({"s", "threads"})
    ->ArgsProduct({{16, 32}, kThreadCounts});

void BM_ConvForward(benchmark::State& state) {
  const std::int64_t img = state.range(0);
  ThreadsArg threads(state);
  Rng rng(4);
  snn::Conv2d conv(snn::Conv2dConfig{3, 32, 3}, rng);
  Tensor x = Tensor::uniform(Shape{8, 3, img, img}, rng, -1.0f, 1.0f);
  conv.begin_window(8, false);
  for (auto _ : state) {
    Tensor y = conv.forward_step(x);
    benchmark::DoNotOptimize(y.data());
  }
}
BENCHMARK(BM_ConvForward)
    ->UseRealTime()
    ->ArgNames({"img", "threads"})
    ->ArgsProduct({{16, 32}, kThreadCounts});

// Times `oracle` and `fast` rep by rep, alternating which runs first, with
// `prepare` (untimed) before each `fast`.  The reported time is fast's; the
// counters are the quartiles of the per-pair ratio oracle / fast, so above
// 1 means the kernel under test is faster.
template <typename Oracle, typename Prepare, typename Fast>
void time_pairs(benchmark::State& state, const Oracle& oracle,
                const Prepare& prepare, const Fast& fast) {
  const auto seconds = [](const auto& fn) {
    const auto t0 = std::chrono::steady_clock::now();
    fn();
    benchmark::ClobberMemory();
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
        .count();
  };
  std::vector<double> ratios;
  bool fast_first = false;
  for (auto _ : state) {
    fast_first = !fast_first;
    double t_fast = 0.0;
    double t_oracle = 0.0;
    if (!fast_first) t_oracle = seconds(oracle);
    prepare();
    t_fast = seconds(fast);
    if (fast_first) t_oracle = seconds(oracle);
    state.SetIterationTime(t_fast);
    ratios.push_back(t_oracle / t_fast);
  }
  std::sort(ratios.begin(), ratios.end());
  const auto quantile = [&](double q) {
    return ratios[static_cast<std::size_t>(
        q * static_cast<double>(ratios.size() - 1) + 0.5)];
  };
  state.counters["ratio_q1"] = quantile(0.25);
  state.counters["ratio_p50"] = quantile(0.5);
  state.counters["ratio_q3"] = quantile(0.75);
}

// The CSNN's conv input at layer 1 ([3, 32, 32] binary spikes) or layer 2
// ([32, 15, 15] graded avg-pooled spikes), both at density 0.5.
Tensor csnn_conv_input(bool conv1, std::int64_t n, Rng& rng) {
  const std::int64_t ic = conv1 ? 3 : 32;
  const std::int64_t size = conv1 ? 32 : 15;
  Tensor x(Shape{n, ic, size, size});
  for (std::int64_t i = 0; i < x.numel(); ++i) {
    if (rng.uniform(0.0, 1.0) >= 0.5) continue;
    x[i] = conv1 ? 1.0f
                 : 0.25f * static_cast<float>(1 + (rng.next_u64() & 3));
  }
  return x;
}

// The dense conv forward body against the im2col + gemm + bias oracle it
// replaced, at the CSNN's two conv shapes (batch 32, one thread,
// csnn_conv_input).  It first asserts the two agree bit for bit (a
// mismatch fails the benchmark), then times the pair (time_pairs).
void conv_oracle(const ConvGeom& g, const Tensor& weight, const Tensor& bias,
                 const float* in, std::int64_t n, float* cols, float* out) {
  const std::int64_t ocn = weight.shape()[0];
  const std::int64_t spatial = g.col_cols();
  for (std::int64_t s = 0; s < n; ++s) {
    float* o = out + s * ocn * spatial;
    im2col(g, in + s * g.channels * g.height * g.width, cols);
    gemm(ocn, spatial, g.col_rows(), 1.0f, weight.data(), cols, 0.0f, o);
    for (std::int64_t oc = 0; oc < ocn; ++oc)
      for (std::int64_t i = 0; i < spatial; ++i) o[oc * spatial + i] += bias[oc];
  }
}

void BM_ConvDirectVsIm2colGemm(benchmark::State& state) {
  const bool conv1 = state.range(0) == 1;
  const std::int64_t n = 32;
  const std::int64_t ic = conv1 ? 3 : 32;
  const std::int64_t size = conv1 ? 32 : 15;
  Rng rng(conv1 ? 41 : 42);
  snn::Conv2d conv(snn::Conv2dConfig{ic, 32, 3}, rng);
  const ConvGeom g{ic, size, size, 3, 3};
  const Tensor x = csnn_conv_input(conv1, n, rng);
  const Tensor weight_t = ops::transpose_2d(conv.weight().value);
  const std::int64_t out_elems = n * 32 * g.col_cols();
  std::vector<float> cols(static_cast<std::size_t>(g.col_rows() * g.col_cols()));
  std::vector<float> want(static_cast<std::size_t>(out_elems));
  std::vector<float> got(static_cast<std::size_t>(out_elems));
  const auto oracle = [&] {
    conv_oracle(g, conv.weight().value, conv.bias().value, x.data(), n,
                cols.data(), want.data());
    benchmark::DoNotOptimize(want.data());
  };
  const auto direct = [&] {
    snn::Conv2d::forward_samples(g, weight_t, conv.bias().value, x.data(), n,
                                 nullptr, got.data());
    benchmark::DoNotOptimize(got.data());
  };
  oracle();
  direct();
  if (std::memcmp(want.data(), got.data(), want.size() * sizeof(float)) != 0) {
    state.SkipWithError("direct conv differs from the im2col+gemm oracle");
    return;
  }
  time_pairs(state, oracle, [] {}, direct);
}
BENCHMARK(BM_ConvDirectVsIm2colGemm)
    ->UseManualTime()
    ->ArgNames({"layer"})
    ->Arg(1)
    ->Arg(2);

// The conv backward step against the per-sample im2col, gemm_nt, gemm_tn,
// col2im and bias-sum loop it replaced (tests/conv_oracle.h), at the
// CSNN's two conv shapes (batch 32, one thread, the inputs of
// BM_ConvDirectVsIm2colGemm, gradients uniform in [-1, 1]).  Both compute
// all three gradients.  A bitwise mismatch fails the benchmark; the
// counters are the paired ratio oracle / backward_step.
void BM_ConvBackwardVsIm2colGemm(benchmark::State& state) {
  const bool conv1 = state.range(0) == 1;
  const std::int64_t n = 32;
  Rng rng(conv1 ? 43 : 44);
  const Tensor x = csnn_conv_input(conv1, n, rng);
  const std::int64_t ic = x.shape()[1];
  const std::int64_t size = x.shape()[2];
  snn::Conv2d conv(snn::Conv2dConfig{ic, 32, 3}, rng);
  const ConvGeom g{ic, size, size, 3, 3};
  const Tensor go = Tensor::uniform(Shape{n, 32, g.out_h(), g.out_w()}, rng,
                                    -1.0f, 1.0f);
  Tensor want_gi(x.shape());
  Tensor want_wg(conv.weight().value.shape());
  Tensor want_bg(conv.bias().value.shape());
  Tensor got_gi;
  const auto oracle = [&] {
    oracle::conv_backward_oracle(g, 32, conv.weight().value.data(), x.data(),
                                 go.data(), n, want_gi.data(), want_wg.data(),
                                 want_bg.data());
    benchmark::DoNotOptimize(want_gi.data());
  };
  const auto prepare = [&] {
    conv.begin_window(n, true);
    conv.forward_step(x);
  };
  const auto backward = [&] {
    got_gi = conv.backward_step(go);
    benchmark::DoNotOptimize(got_gi.data());
  };
  oracle();
  prepare();
  backward();
  const auto same = [](const Tensor& a, const Tensor& b) {
    return a.shape() == b.shape() &&
           std::memcmp(a.data(), b.data(),
                       static_cast<std::size_t>(a.numel()) * sizeof(float)) ==
               0;
  };
  if (!same(want_gi, got_gi) || !same(want_wg, conv.weight().grad) ||
      !same(want_bg, conv.bias().grad)) {
    state.SkipWithError("conv backward differs from the im2col+gemm oracle");
    return;
  }
  time_pairs(state, oracle, prepare, backward);
}
BENCHMARK(BM_ConvBackwardVsIm2colGemm)
    ->UseManualTime()
    ->ArgNames({"layer"})
    ->Arg(1)
    ->Arg(2);

void BM_ConvBackward(benchmark::State& state) {
  const std::int64_t img = state.range(0);
  ThreadsArg threads(state);
  Rng rng(5);
  snn::Conv2d conv(snn::Conv2dConfig{3, 32, 3}, rng);
  Tensor x = Tensor::uniform(Shape{8, 3, img, img}, rng, -1.0f, 1.0f);
  const Shape out_shape{8, 32, img - 2, img - 2};
  Tensor g = Tensor::uniform(out_shape, rng, -1.0f, 1.0f);
  for (auto _ : state) {
    state.PauseTiming();
    conv.begin_window(8, true);
    conv.forward_step(x);
    state.ResumeTiming();
    Tensor gx = conv.backward_step(g);
    benchmark::DoNotOptimize(gx.data());
  }
}
BENCHMARK(BM_ConvBackward)
    ->UseRealTime()
    ->ArgNames({"img", "threads"})
    ->ArgsProduct({{16, 32}, kThreadCounts});

void BM_LifStep(benchmark::State& state) {
  const std::int64_t n = state.range(0);
  ThreadsArg threads(state);
  snn::Lif lif(snn::LifConfig{});
  Rng rng(6);
  Tensor x = Tensor::uniform(Shape{1, n}, rng, 0.0f, 2.0f);
  lif.begin_window(1, false);
  for (auto _ : state) {
    Tensor s = lif.forward_step(x);
    benchmark::DoNotOptimize(s.data());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_LifStep)
    ->UseRealTime()
    ->ArgNames({"n", "threads"})
    ->ArgsProduct({{1024, 65536}, kThreadCounts});

void BM_RateEncode(benchmark::State& state) {
  data::RateEncoder enc(7);
  Rng rng(7);
  Tensor batch = Tensor::uniform(Shape{32, 3, 16, 16}, rng, 0.0f, 1.0f);
  std::uint64_t stream = 0;
  for (auto _ : state) {
    auto steps = enc.encode(batch, 8, stream++);
    benchmark::DoNotOptimize(steps.data());
  }
}
BENCHMARK(BM_RateEncode);

void BM_CsnnTimestep(benchmark::State& state) {
  // One full forward window step of the paper topology at 16x16.
  snn::CsnnConfig cfg;
  cfg.image_size = 16;
  auto net = snn::make_svhn_csnn(cfg);
  Rng rng(8);
  const std::vector<Tensor> window{
      Tensor::uniform(Shape{32, 3, 16, 16}, rng, -1.0f, 1.0f)};
  for (auto _ : state) {
    auto out = net->forward(window);
    benchmark::DoNotOptimize(out.spike_counts.data());
  }
}
BENCHMARK(BM_CsnnTimestep);

std::vector<hw::LayerWorkload> bench_workloads() {
  std::vector<hw::LayerWorkload> ws(4);
  const char* names[] = {"conv1", "conv2", "fc1", "fc2"};
  const std::int64_t ins[] = {3072, 7200, 1152, 256};
  const std::int64_t fan[] = {288, 288, 256, 10};
  const std::int64_t neu[] = {28800, 5408, 256, 10};
  for (int i = 0; i < 4; ++i) {
    ws[static_cast<std::size_t>(i)].name = names[i];
    ws[static_cast<std::size_t>(i)].input_size = ins[i];
    ws[static_cast<std::size_t>(i)].fanout = fan[i];
    ws[static_cast<std::size_t>(i)].neurons = neu[i];
    ws[static_cast<std::size_t>(i)].num_weights = 1000;
    ws[static_cast<std::size_t>(i)].avg_input_spikes =
        0.15 * static_cast<double>(ins[i]);
  }
  return ws;
}

void BM_Allocate(benchmark::State& state) {
  const auto ws = bench_workloads();
  const auto dev = hw::kintex_ultrascale_plus_ku5p();
  for (auto _ : state) {
    auto a = hw::allocate(ws, dev, hw::AllocationPolicy::kBalanced);
    benchmark::DoNotOptimize(a.total_pes);
  }
}
BENCHMARK(BM_Allocate);

void BM_AnalyticModel(benchmark::State& state) {
  const auto ws = bench_workloads();
  const auto dev = hw::kintex_ultrascale_plus_ku5p();
  const auto alloc = hw::allocate(ws, dev, hw::AllocationPolicy::kBalanced);
  for (auto _ : state) {
    auto r = hw::analyze(ws, alloc, dev, 25, hw::ComputeMode::kEventDriven);
    benchmark::DoNotOptimize(r.fps_per_watt);
  }
}
BENCHMARK(BM_AnalyticModel);

void BM_EventSimInference(benchmark::State& state) {
  const auto ws = bench_workloads();
  const auto dev = hw::kintex_ultrascale_plus_ku5p();
  const auto alloc = hw::allocate(ws, dev, hw::AllocationPolicy::kBalanced);
  const auto cfg = hw::EventSimConfig::from(ws, alloc, dev);
  Rng rng(9);
  const auto trace = hw::random_trace(ws, 25, rng);
  for (auto _ : state) {
    auto r = hw::simulate_inference(cfg, trace);
    benchmark::DoNotOptimize(r.total_cycles);
  }
}
BENCHMARK(BM_EventSimInference);

}  // namespace
