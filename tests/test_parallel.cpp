// Determinism suite for the thread pool and the threaded kernels, plus
// regression tests for the evaluation-stream and uniform_int fixes.
//
// The central claim under test: for ANY thread count, every threaded kernel
// produces bit-identical results to the serial path (core/parallel.h's
// determinism contract).  Sizes are deliberately odd/ragged so slice
// boundaries never align with the kernels' internal block sizes.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <memory>
#include <mutex>
#include <set>
#include <vector>

#include "core/error.h"
#include "core/parallel.h"
#include "core/rng.h"
#include "data/dataloader.h"
#include "data/encoders.h"
#include "snn/conv2d.h"
#include "snn/lif.h"
#include "snn/linear.h"
#include "snn/loss.h"
#include "snn/network.h"
#include "tensor/gemm.h"
#include "tensor/im2col.h"
#include "train/trainer.h"

namespace spiketune {
namespace {

// Restores the serial default even if a test fails mid-way.
class ThreadGuard {
 public:
  ~ThreadGuard() { set_num_threads(1); }
};

std::vector<float> random_vec(std::int64_t n, Rng& rng) {
  std::vector<float> v(static_cast<std::size_t>(n));
  for (auto& x : v) x = static_cast<float>(rng.uniform(-1.0, 1.0));
  return v;
}

bool bit_equal(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

bool bit_equal(const Tensor& a, const Tensor& b) {
  return a.numel() == b.numel() &&
         std::memcmp(a.data(), b.data(),
                     static_cast<std::size_t>(a.numel()) * sizeof(float)) == 0;
}

TEST(ParallelFor, CoversEveryIndexExactlyOnceOnRaggedRanges) {
  ThreadGuard guard;
  const struct {
    std::int64_t begin, end, grain;
  } cases[] = {{0, 1, 1},   {0, 7, 3},    {3, 101, 7},
               {0, 1000, 64}, {5, 6, 100}, {0, 17, 1}};
  for (int threads : {1, 2, 5, 11}) {
    set_num_threads(threads);
    for (const auto& c : cases) {
      const auto n = static_cast<std::size_t>(c.end - c.begin);
      std::vector<std::atomic<int>> hits(n);
      parallel_for(c.begin, c.end, c.grain,
                   [&](std::int64_t b, std::int64_t e) {
                     ASSERT_LE(c.begin, b);
                     ASSERT_LE(b, e);
                     ASSERT_LE(e, c.end);
                     for (std::int64_t i = b; i < e; ++i)
                       hits[static_cast<std::size_t>(i - c.begin)]
                           .fetch_add(1);
                   });
      for (std::size_t i = 0; i < n; ++i)
        EXPECT_EQ(hits[i].load(), 1)
            << "index " << i << " of [" << c.begin << ", " << c.end
            << ") grain " << c.grain << " threads " << threads;
    }
  }
}

TEST(ParallelFor, EmptyRangeNeverInvokes) {
  ThreadGuard guard;
  set_num_threads(3);
  bool called = false;
  parallel_for(5, 5, 1, [&](std::int64_t, std::int64_t) { called = true; });
  parallel_for(7, 3, 1, [&](std::int64_t, std::int64_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ParallelFor, SlicesRespectGrainAndAreContiguous) {
  ThreadGuard guard;
  set_num_threads(4);
  std::mutex mu;
  std::vector<std::pair<std::int64_t, std::int64_t>> slices;
  parallel_for(0, 103, 10, [&](std::int64_t b, std::int64_t e) {
    std::lock_guard<std::mutex> lock(mu);
    slices.emplace_back(b, e);
  });
  std::sort(slices.begin(), slices.end());
  std::int64_t cursor = 0;
  for (std::size_t s = 0; s < slices.size(); ++s) {
    EXPECT_EQ(slices[s].first, cursor);
    // Every slice except the last holds a whole number of grain units.
    if (s + 1 < slices.size()) {
      EXPECT_EQ((slices[s].second - slices[s].first) % 10, 0);
    }
    cursor = slices[s].second;
  }
  EXPECT_EQ(cursor, 103);
}

TEST(ParallelFor, NestedCallsRunInlineWithoutDeadlock) {
  ThreadGuard guard;
  set_num_threads(4);
  std::atomic<std::int64_t> total{0};
  parallel_for(0, 8, 1, [&](std::int64_t b, std::int64_t e) {
    for (std::int64_t i = b; i < e; ++i)
      parallel_for(0, 10, 1, [&](std::int64_t ib, std::int64_t ie) {
        total.fetch_add(ie - ib);
      });
  });
  EXPECT_EQ(total.load(), 80);
}

TEST(ParallelFor, PropagatesExceptionsFromSlices) {
  ThreadGuard guard;
  set_num_threads(4);
  EXPECT_THROW(
      parallel_for(0, 100, 1,
                   [&](std::int64_t b, std::int64_t) {
                     if (b >= 0) throw InvalidArgument("slice boom");
                   }),
      InvalidArgument);
  // The pool must stay usable after an exception.
  std::atomic<int> count{0};
  parallel_for(0, 10, 1,
               [&](std::int64_t b, std::int64_t e) {
                 count.fetch_add(static_cast<int>(e - b));
               });
  EXPECT_EQ(count.load(), 10);
}

// --- Threaded kernels are bit-identical to serial -------------------------

TEST(ThreadedKernels, GemmBitIdenticalAcrossThreadCounts) {
  ThreadGuard guard;
  const std::int64_t m = 37, n = 53, k = 29;
  Rng rng(11);
  const auto a = random_vec(m * k, rng);
  const auto b = random_vec(k * n, rng);
  const auto c0 = random_vec(m * n, rng);

  set_num_threads(1);
  auto serial = c0;
  gemm(m, n, k, 1.3f, a.data(), b.data(), 0.7f, serial.data());

  for (int threads : {2, 5}) {
    set_num_threads(threads);
    auto c = c0;
    gemm(m, n, k, 1.3f, a.data(), b.data(), 0.7f, c.data());
    EXPECT_TRUE(bit_equal(serial, c)) << "threads=" << threads;
  }
}

TEST(ThreadedKernels, GemmTnBitIdenticalAcrossThreadCounts) {
  ThreadGuard guard;
  const std::int64_t m = 41, n = 23, k = 67;
  Rng rng(12);
  const auto a = random_vec(k * m, rng);  // A is [k, m]
  const auto b = random_vec(k * n, rng);
  const auto c0 = random_vec(m * n, rng);

  set_num_threads(1);
  auto serial = c0;
  gemm_tn(m, n, k, 0.9f, a.data(), b.data(), 1.0f, serial.data());

  for (int threads : {2, 5}) {
    set_num_threads(threads);
    auto c = c0;
    gemm_tn(m, n, k, 0.9f, a.data(), b.data(), 1.0f, c.data());
    EXPECT_TRUE(bit_equal(serial, c)) << "threads=" << threads;
  }
}

TEST(ThreadedKernels, Im2colBitIdenticalAcrossThreadCounts) {
  ThreadGuard guard;
  const ConvGeom g{5, 13, 11, 3, 3, 1, 1, 1, 1};  // odd sizes, padded
  Rng rng(14);
  const auto img = random_vec(g.channels * g.height * g.width, rng);

  set_num_threads(1);
  std::vector<float> cols_serial(
      static_cast<std::size_t>(g.col_rows() * g.col_cols()));
  im2col(g, img.data(), cols_serial.data());

  for (int threads : {2, 5}) {
    set_num_threads(threads);
    std::vector<float> cols(cols_serial.size());
    im2col(g, img.data(), cols.data());
    EXPECT_TRUE(bit_equal(cols_serial, cols)) << "threads=" << threads;
  }
}

struct ConvRun {
  Tensor output;
  Tensor grad_input;
  Tensor weight_grad;
  Tensor bias_grad;
};

ConvRun run_conv(int threads) {
  set_num_threads(threads);
  Rng rng(15);
  snn::Conv2d conv(snn::Conv2dConfig{3, 7, 3, 1}, rng);
  Tensor x = Tensor::uniform(Shape{5, 3, 9, 11}, rng, -1.0f, 1.0f);
  Tensor go = Tensor::uniform(Shape{5, 7, 9, 11}, rng, -1.0f, 1.0f);
  conv.begin_window(5, true);
  ConvRun r;
  r.output = conv.forward_step(x);
  r.grad_input = conv.backward_step(go);
  r.weight_grad = conv.weight().grad;
  r.bias_grad = conv.bias().grad;
  return r;
}

TEST(ThreadedKernels, ConvForwardBackwardBitIdenticalAcrossThreadCounts) {
  ThreadGuard guard;
  const ConvRun serial = run_conv(1);
  for (int threads : {2, 5}) {
    const ConvRun t = run_conv(threads);
    EXPECT_TRUE(bit_equal(serial.output, t.output)) << "threads=" << threads;
    EXPECT_TRUE(bit_equal(serial.grad_input, t.grad_input))
        << "threads=" << threads;
    EXPECT_TRUE(bit_equal(serial.weight_grad, t.weight_grad))
        << "threads=" << threads;
    EXPECT_TRUE(bit_equal(serial.bias_grad, t.bias_grad))
        << "threads=" << threads;
  }
}

struct LifRun {
  std::vector<Tensor> spikes;
  std::vector<Tensor> grads;
  std::int64_t spike_count = 0;
};

LifRun run_lif(int threads) {
  set_num_threads(threads);
  snn::LifConfig cfg;
  cfg.beta = 0.5f;
  cfg.threshold = 0.9f;
  snn::Lif lif(cfg);
  Rng rng(16);
  const std::int64_t steps = 4;
  std::vector<Tensor> inputs;
  std::vector<Tensor> gos;
  for (std::int64_t t = 0; t < steps; ++t) {
    inputs.push_back(Tensor::uniform(Shape{3, 2467}, rng, 0.0f, 2.0f));
    gos.push_back(Tensor::uniform(Shape{3, 2467}, rng, -1.0f, 1.0f));
  }
  LifRun r;
  lif.begin_window(3, true);
  for (const auto& x : inputs) r.spikes.push_back(lif.forward_step(x));
  lif.begin_backward(true);
  for (std::int64_t t = steps - 1; t >= 0; --t)
    r.grads.push_back(
        lif.backward_step(gos[static_cast<std::size_t>(t)]));
  r.spike_count = lif.window_spike_count();
  return r;
}

TEST(ThreadedKernels, LifForwardBackwardBitIdenticalAcrossThreadCounts) {
  ThreadGuard guard;
  const LifRun serial = run_lif(1);
  EXPECT_GT(serial.spike_count, 0);
  for (int threads : {2, 5}) {
    const LifRun t = run_lif(threads);
    EXPECT_EQ(serial.spike_count, t.spike_count) << "threads=" << threads;
    ASSERT_EQ(serial.spikes.size(), t.spikes.size());
    for (std::size_t s = 0; s < serial.spikes.size(); ++s) {
      EXPECT_TRUE(bit_equal(serial.spikes[s], t.spikes[s]))
          << "step " << s << " threads=" << threads;
      EXPECT_TRUE(bit_equal(serial.grads[s], t.grads[s]))
          << "step " << s << " threads=" << threads;
    }
  }
}

// --- Regression: evaluation streams --------------------------------------

TEST(EvalStream, NamespacedAwayFromTrainingAndDistinctPerCall) {
  // Every evaluation stream carries the high-bit tag, so it can never
  // equal a training stream (a plain batch ordinal).
  EXPECT_NE(train::Trainer::eval_stream(0, 0) >> 63, 0u);
  std::set<std::uint64_t> seen;
  for (std::uint64_t call = 0; call < 8; ++call)
    for (std::uint64_t batch = 0; batch < 64; ++batch) {
      const std::uint64_t s = train::Trainer::eval_stream(call, batch);
      EXPECT_NE(s >> 63, 0u);
      EXPECT_TRUE(seen.insert(s).second)
          << "duplicate stream for call " << call << " batch " << batch;
    }
  // Regression: the old code reused 0xe5a1 + batch for every call.
  EXPECT_NE(train::Trainer::eval_stream(0, 0), 0xe5a1ULL);
  EXPECT_NE(train::Trainer::eval_stream(1, 0),
            train::Trainer::eval_stream(0, 0));
}

class StripeDataset final : public data::Dataset {
 public:
  std::int64_t size() const override { return 16; }
  int num_classes() const override { return 2; }
  Shape image_shape() const override { return Shape{1, 4, 4}; }
  data::Example get(std::int64_t i) const override {
    data::Example ex;
    ex.label = static_cast<int>(i % 2);
    ex.image = Tensor(Shape{1, 4, 4});
    Rng rng = Rng(4242).fork(static_cast<std::uint64_t>(i));
    for (std::int64_t p = 0; p < 16; ++p)
      ex.image[p] = static_cast<float>(rng.uniform(0.2, 0.9));
    return ex;
  }
};

struct EvalPair {
  train::EvalMetrics first;
  train::EvalMetrics second;
};

EvalPair evaluate_twice() {
  auto ds = std::make_shared<data::InMemoryDataset>(
      data::InMemoryDataset::from(StripeDataset()));
  data::DataLoader loader(ds, 8, false);
  data::RateEncoder encoder(77);
  snn::RateCrossEntropyLoss loss(4.0);
  auto net = std::make_unique<snn::SpikingNetwork>();
  net->add<snn::Flatten>();
  Rng rng(21);
  net->add<snn::Linear>(snn::LinearConfig{16, 8}, rng);
  net->add<snn::Lif>(snn::LifConfig{});
  train::TrainerConfig tcfg;
  tcfg.num_steps = 6;
  tcfg.batch_size = 8;
  tcfg.verbose = false;
  train::Trainer trainer(*net, encoder, loss, tcfg);
  EvalPair p;
  p.first = trainer.evaluate(loader);
  p.second = trainer.evaluate(loader);
  return p;
}

// Spikes the rate encoder fed into the network (layer 0's input): the
// direct observable of which encoder streams evaluate() used.
std::int64_t encoded_spikes(const snn::SpikeRecord& record) {
  return record.layers().front().input_nonzeros;
}

TEST(EvalStream, RepeatedEvaluationsUseFreshNoiseButStayReproducible) {
  const EvalPair a = evaluate_twice();
  const EvalPair b = evaluate_twice();
  // Reproducible: the k-th evaluate() of identical trainers matches.
  EXPECT_EQ(a.first.loss, b.first.loss);
  EXPECT_EQ(a.second.loss, b.second.loss);
  EXPECT_EQ(encoded_spikes(a.first.record), encoded_spikes(b.first.record));
  EXPECT_EQ(encoded_spikes(a.second.record),
            encoded_spikes(b.second.record));
  // Fresh noise: the second call does not replay the first call's
  // rate-coding draws (the old hard-coded 0xe5a1 stream did).
  EXPECT_NE(encoded_spikes(a.first.record), encoded_spikes(a.second.record));
}

// --- Regression: Lemire uniform_int ---------------------------------------

TEST(UniformInt, PowerOfTwoRangeTakesHighBits) {
  // For n = 2^k the multiply-shift map reduces to the top k bits of the
  // raw draw (and never rejects) — a direct check that the implementation
  // is Lemire's multiply-shift rather than masking or modulo.
  Rng rng(31);
  Rng twin(31);
  for (int i = 0; i < 1000; ++i)
    EXPECT_EQ(rng.uniform_int(256), twin.next_u64() >> 56);
}

TEST(UniformInt, BoundsHoldAcrossRangeSizes) {
  Rng rng(32);
  const std::uint64_t ns[] = {1,   2,          3,
                              10,  255,        1ULL << 32,
                              (1ULL << 63) + 5, ~0ULL};
  for (const std::uint64_t n : ns)
    for (int i = 0; i < 200; ++i) EXPECT_LT(rng.uniform_int(n), n);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(rng.uniform_int(1), 0u);
}

TEST(UniformInt, RoughlyUniformOverSmallRange) {
  Rng rng(33);
  int hits[10] = {};
  const int draws = 20000;
  for (int i = 0; i < draws; ++i) ++hits[rng.uniform_int(10)];
  for (int b = 0; b < 10; ++b) {
    EXPECT_GT(hits[b], draws / 10 - 400) << "bucket " << b;
    EXPECT_LT(hits[b], draws / 10 + 400) << "bucket " << b;
  }
}

TEST(UniformInt, MatchesMultiplyShiftReference) {
  // Reference: Lemire 2019, "Fast Random Integer Generation in an
  // Interval", Algorithm 5 — driven by a twin generator so both sides see
  // the same raw 64-bit stream, including rejection-heavy n.
  Rng rng(34);
  Rng twin(34);
  const std::uint64_t ns[] = {3, 10, 1000, (1ULL << 63) + 5};
  for (const std::uint64_t n : ns) {
    for (int i = 0; i < 500; ++i) {
      const std::uint64_t got = rng.uniform_int(n);
      unsigned __int128 m = static_cast<unsigned __int128>(twin.next_u64()) * n;
      auto lo = static_cast<std::uint64_t>(m);
      if (lo < n) {
        const std::uint64_t threshold = (0 - n) % n;
        while (lo < threshold) {
          m = static_cast<unsigned __int128>(twin.next_u64()) * n;
          lo = static_cast<std::uint64_t>(m);
        }
      }
      EXPECT_EQ(got, static_cast<std::uint64_t>(m >> 64)) << "n=" << n;
    }
  }
}

}  // namespace
}  // namespace spiketune
