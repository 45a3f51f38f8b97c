// infer-window: whole-window InferenceSession::run over rate-coded SynthSvhn
// 32x32 images through the paper CSNN (T=25, batch 32).  One seeded init is
// compiled twice, at the paper's default point (beta=0.25, theta=1.0) and
// at the knee (beta=0.5, theta=1.5); the two points have different
// per-layer densities, so the sparse/dense dispatch mix differs between
// them.  The infer module does all of the work.
//
// Gate: at both points the session's spike counts and per-layer
// SpikeRecord are bitwise equal to SpikingNetwork::forward, and no spiking
// layer is silent.
#include <string>
#include <vector>

#include "core/parallel.h"
#include "core/rng.h"
#include "data/dataset.h"
#include "data/encoders.h"
#include "data/synth_svhn.h"
#include "exp/sweep.h"
#include "gates.h"
#include "phases.h"
#include "stats.h"
#include "tensor/gemm.h"
#include "tensor/im2col.h"

namespace perfbench {

namespace st = spiketune;
namespace inf = spiketune::infer;

namespace {

constexpr std::int64_t kBatch = 32;

struct PointSpec {
  const char* name;
  float beta;
  float theta;
};
constexpr PointSpec kPoints[] = {{"default", 0.25f, 1.0f},
                                 {"knee", 0.5f, 1.5f}};
// Weighted layers of the CSNN, in order.
constexpr const char* kWeightedNames[] = {"conv1", "conv2", "fc1", "fc2"};

bool weighted(const inf::CompiledLayer& l) {
  return l.kind == inf::OpKind::kConv2d || l.kind == inf::OpKind::kLinear;
}

inf::InferOptions options(bool stats, bool stage_times) {
  inf::InferOptions o;
  o.max_batch = kBatch;
  o.record_stats = stats;
  o.record_stage_times = stage_times;
  return o;
}

/// Synaptic operations one nonzero input of `l` triggers.
std::int64_t fanout(const inf::CompiledLayer& l) {
  const std::int64_t out = l.weight.shape()[0];  // OC or out_features
  return l.kind == inf::OpKind::kConv2d
             ? out * l.geom.kernel_h * l.geom.kernel_w
             : out;
}

/// tensor::gemm and tensor::im2col at the CSNN's own shapes, with the op
/// count and bytes moved computed from those shapes.
void tensor_probes(const inf::CompiledModel& model, RunContext& ctx) {
  st::Rng rng(ctx.seed);
  std::int64_t conv = 0;
  std::int64_t linear = 0;
  for (const inf::CompiledLayer& l : model.layers()) {
    if (!weighted(l)) continue;
    std::int64_t m = 0, n = 0, k = 0;
    std::string name;
    if (l.kind == inf::OpKind::kConv2d) {
      name = conv++ == 0 ? "conv1" : "conv2";
      m = l.weight.shape()[0];
      n = l.geom.col_cols();
      k = l.geom.col_rows();
      const st::Tensor image = st::Tensor::uniform(
          st::Shape{l.geom.channels, l.geom.height, l.geom.width}, rng, 0, 1);
      std::vector<float> cols(static_cast<std::size_t>(k * n));
      const double ns = ns_per_call(
          [&] { st::im2col(l.geom, image.data(), cols.data()); });
      const double bytes =
          4.0 * static_cast<double>(image.numel() + k * n);
      ctx.layer.add("tensor.im2col_gbps." + name, bytes / ns, "GB/s");
    } else if (linear++ == 0) {  // fc1; the 10-way readout is too small
      name = "fc1";
      m = kBatch;
      n = l.weight.shape()[0];
      k = l.weight.shape()[1];
    } else {
      continue;
    }
    const st::Tensor a = st::Tensor::uniform(st::Shape{m, k}, rng, -1, 1);
    const st::Tensor b = st::Tensor::uniform(st::Shape{k, n}, rng, -1, 1);
    st::Tensor c = st::Tensor::zeros(st::Shape{m, n});
    const double ns = ns_per_call([&] {
      st::gemm(m, n, k, 1.0f, a.data(), b.data(), 0.0f, c.data());
    });
    ctx.layer.add("tensor.gemm_gflops." + name,
                  2.0 * static_cast<double>(m * n * k) / ns, "GFLOP/s");
  }
}

}  // namespace

st::snn::CsnnConfig paper_csnn(float beta, float theta) {
  st::snn::CsnnConfig c;
  c.image_size = 32;
  c.lif.beta = beta;
  c.lif.threshold = theta;
  c.lif.surrogate = st::snn::Surrogate::fast_sigmoid(
      static_cast<float>(st::exp::kFig2FastSigmoidSlope));
  c.init_gain = 4.0f;
  return c;
}

std::vector<st::Tensor> rate_coded_window(std::uint64_t seed,
                                          std::int64_t images) {
  st::data::SynthSvhnConfig dc;
  dc.num_examples = images;
  dc.image_size = 32;
  dc.seed = 0x5e7e0000ULL ^ seed;
  const st::data::SynthSvhn dataset(dc);
  std::vector<std::int64_t> idx(static_cast<std::size_t>(images));
  for (std::int64_t i = 0; i < images; ++i) idx[static_cast<std::size_t>(i)] = i;
  const auto batch = st::data::make_batch(dataset, idx);
  return st::data::RateEncoder(0xc0de0000ULL ^ seed)
      .encode(batch.images, kInferSteps, /*stream=*/0);
}

InferPhase::InferPhase(std::uint64_t seed, bool traced) {
  // One batch, so every timed window sees the same input and each window
  // is one sample of the same quantity.
  window_ = rate_coded_window(seed, kBatch);
  // Sessions point at their model, so models are placed before sessions.
  points_.resize(std::size(kPoints));
  for (std::size_t i = 0; i < points_.size(); ++i) {
    InferPointModel& pm = points_[i];
    pm.name = kPoints[i].name;
    pm.net = st::snn::make_svhn_csnn(
        paper_csnn(kPoints[i].beta, kPoints[i].theta));
    const std::int64_t t0 = now_ns();
    pm.model = inf::CompiledModel::compile(*pm.net, st::Shape{3, 32, 32});
    pm.compile_ms = static_cast<double>(now_ns() - t0) * 1e-6;
    pm.session = std::make_unique<inf::InferenceSession>(
        pm.model, options(/*stats=*/false, /*stage_times=*/false));
    if (traced) {
      pm.staged = std::make_unique<inf::InferenceSession>(
          pm.model, options(/*stats=*/false, /*stage_times=*/true));
    }
  }
}

void InferPhase::measure(RunContext& ctx, double seconds) {
  Tracer& tr = *ctx.tracer;
  const std::size_t np = points_.size();
  if (!warm_) {
    // One untimed window per session sizes its buffers.
    for (auto& p : points_) {
      p.session->run(window_);
      if (p.staged) p.staged->run(window_);
    }
    totals_.resize(np);
    warm_ = true;
  }
  // Time owed carries across rounds, so a round that overran its share by
  // part of a window takes it back from the next.
  owed_s_ += seconds;
  const std::int64_t t0 = now_ns();
  double spent = 0.0;
  while (spent < owed_s_) {
    // Points alternate window by window so drift hits both alike.
    for (std::size_t p = 0; p < np; ++p) {
      Totals& t = totals_[p];
      const std::int64_t start = now_ns();
      points_[p].session->run(window_);
      t.window_ns.push_back(static_cast<double>(now_ns() - start));
      ++ctx.attempted;
      if (!points_[p].staged) continue;
      const std::int64_t traced_start = now_ns();
      inf::InferenceResult r;
      {
        Span s(tr, "infer.run");
        r = points_[p].staged->run(window_);
      }
      t.traced_ns += static_cast<double>(now_ns() - traced_start);
      t.index_ns += static_cast<double>(r.index_ns);
      t.sparse_ns += static_cast<double>(r.sparse_kernel_ns);
      t.dense_ns += static_cast<double>(r.dense_kernel_ns);
    }
    spent = static_cast<double>(now_ns() - t0) * 1e-9;
  }
  owed_s_ -= spent;
}

void InferPhase::finish(RunContext& ctx) {
  const std::size_t np = points_.size();
  gate(warm_, "infer phase measured");
  // Correctness, and the per-layer counts: a stats-recording session
  // checked against the dense training path.
  std::vector<inf::InferenceResult> counted;
  for (InferPointModel& pm : points_) {
    inf::InferenceSession check(pm.model,
                                options(/*stats=*/true, /*stage_times=*/false));
    counted.push_back(check.run(window_));
    const inf::InferenceResult& got = counted.back();
    const auto want = pm.net->forward(window_, {.record_stats = true});
    const std::string what = "infer " + pm.name + " vs forward";
    gate(got.spike_counts.shape() == want.spike_counts.shape(),
         what + ": shape");
    gate_bitwise(got.spike_counts.data(), want.spike_counts.data(),
                 static_cast<std::size_t>(want.spike_counts.numel()),
                 what + " spike counts");
    gate_records_equal(got.stats, want.stats, what);
    gate_no_silent_layer(want.stats, "infer " + pm.name);
  }

  const double batch = static_cast<double>(kBatch);
  for (std::size_t p = 0; p < np; ++p)
    ctx.e2e.add("infer_" + points_[p].name + "_samples_per_s",
                batch / (median(totals_[p].window_ns) * 1e-9), "1/s");
  if (!ctx.traced()) return;

  double compile_ms = 0.0;
  double plain_ns = 0.0;
  double traced_ns = 0.0;
  for (const auto& p : points_) compile_ms += p.compile_ms;
  ctx.layer.add("infer.compile_ms", compile_ms / static_cast<double>(np),
                "ms");
  for (std::size_t p = 0; p < np; ++p) {
    const Totals& t = totals_[p];
    const std::string pt = points_[p].name;
    const double n = static_cast<double>(t.window_ns.size());
    const double window_ms = t.traced_ns * 1e-6 / n;
    const double index_ms = t.index_ns * 1e-6 / n;
    const double sparse_ms = t.sparse_ns * 1e-6 / n;
    const double dense_ms = t.dense_ns * 1e-6 / n;
    for (double ns : t.window_ns) plain_ns += ns;
    traced_ns += t.traced_ns;
    ctx.layer.add("infer.window_ms." + pt, window_ms, "ms");
    ctx.layer.add("infer.index_ms." + pt, index_ms, "ms");
    ctx.layer.add("infer.sparse_kernel_ms." + pt, sparse_ms, "ms");
    ctx.layer.add("infer.dense_kernel_ms." + pt, dense_ms, "ms");
    ctx.layer.add("infer.other_ms." + pt,
                  window_ms - index_ms - sparse_ms - dense_ms, "ms");

    const inf::InferenceResult& c = counted[p];
    ctx.layer.add("infer.sparse_dispatches." + pt,
                  static_cast<double>(c.sparse_dispatches), "count");
    ctx.layer.add("infer.dense_dispatches." + pt,
                  static_cast<double>(c.dense_dispatches), "count");
    double synops = 0.0;
    std::size_t w = 0;
    const auto& layers = points_[p].model.layers();
    for (std::size_t i = 0; i < layers.size(); ++i) {
      if (!weighted(layers[i])) continue;
      gate(w < 4, "the CSNN has four weighted layers");
      const auto& a = c.stats.layers()[i];
      ctx.layer.add("infer.in_density." + pt + "." + kWeightedNames[w++],
                    a.input_density(), "ratio");
      synops += static_cast<double>(a.input_nonzeros) *
                static_cast<double>(fanout(layers[i]));
    }
    gate(w == 4, "the CSNN has four weighted layers");
    ctx.layer.add("infer.synops." + pt, synops, "count");
    // Untraced time of the window the synops were counted over.
    ctx.layer.add("infer.ns_per_synop." + pt, median(t.window_ns) / synops,
                  "ns");
  }
  ctx.layer.add("trace.overhead_pct.infer",
                100.0 * (traced_ns - plain_ns) / plain_ns, "%");
  tensor_probes(points_[0].model, ctx);
}

}  // namespace perfbench
