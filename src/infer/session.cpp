#include "infer/session.h"

#include <algorithm>

#include "core/error.h"
#include "core/parallel.h"
#include "obs/flight.h"
#include "obs/metrics.h"
#include "obs/profiler.h"
#include "snn/conv2d.h"
#include "snn/lif.h"
#include "snn/linear.h"
#include "snn/pool.h"
#include "tensor/tensor_ops.h"

namespace spiketune::infer {

InferenceSession::InferenceSession(const CompiledModel& model,
                                   InferOptions config)
    : model_(&model), config_(config) {
  ST_REQUIRE(model.num_layers() > 0, "cannot build a session on empty model");
  ST_REQUIRE(config_.max_batch > 0, "max_batch must be positive");
  acts_.resize(model.num_layers());
  for (const auto& l : model.layers()) {
    if (l.kind == OpKind::kConv2d)
      padded_stride_ =
          std::max(padded_stride_, snn::Conv2d::padded_elems(l.geom));
  }
  ensure_capacity(config_.max_batch);
}

void InferenceSession::ensure_capacity(std::int64_t batch) {
  if (batch <= capacity_) return;
  const auto& layers = model_->layers();
  for (std::size_t li = 0; li < layers.size(); ++li) {
    // Flatten has no plane: step_batch passes its input through.
    if (layers[li].kind == OpKind::kFlatten) continue;
    acts_[li].resize(static_cast<std::size_t>(batch * layers[li].out_elems));
  }
  padded_.resize(static_cast<std::size_t>(batch * padded_stride_));
  m_rows_.resize(static_cast<std::size_t>(batch));
  fresh_.resize(static_cast<std::size_t>(batch));
  // One scratch stream per row, for the rows run() is handed as null.
  while (pool_.size() < static_cast<std::size_t>(batch))
    pool_.emplace_back(*model_);
  capacity_ = batch;
}

void InferenceSession::step_batch(StreamState* const* streams, std::int64_t n,
                                  const float* x, float* window_counts,
                                  InferenceResult& result, StepTotals& totals) {
  const auto& layers = model_->layers();
  const std::size_t arena_elems =
      static_cast<std::size_t>(model_->membrane_elems());
  const std::int64_t out_f = model_->output_shape()[0];
  for (std::int64_t s = 0; s < n; ++s) {
    ST_REQUIRE(streams[s] != nullptr, "null stream in batch");
    ST_REQUIRE(streams[s]->arena_.size() == arena_elems &&
                   streams[s]->counts_.size() ==
                       static_cast<std::size_t>(out_f),
               "stream state does not match this session's model");
    fresh_[static_cast<std::size_t>(s)] =
        streams[s]->steps_done_ == 0 ? 1 : 0;
  }

  const bool timed = config_.record_stage_times;
  std::int64_t prev_out_nz = -1;  // boundary count carried layer to layer
  for (std::size_t li = 0; li < layers.size(); ++li) {
    const CompiledLayer& l = layers[li];
    float* out = acts_[li].data();
    const float* y = out;  // this layer's output, read by the next
    const std::int64_t in_total = n * l.in_elems;
    std::int64_t in_nz = prev_out_nz;
    std::int64_t out_nz = -1;

    switch (l.kind) {
      case OpKind::kConv2d: {
        // The exact nonzero count feeds mean_input_density, the recorded
        // stats and the flight event; the kernel itself reads every pixel.
        const std::uint64_t t0 = timed ? obs::telemetry_now_ns() : 0;
        in_nz = ops::count_nonzero(x, in_total);
        const std::uint64_t t1 = timed ? obs::telemetry_now_ns() : 0;
        if (timed) result.index_ns += t1 - t0;
        obs::flight_record(obs::FlightEventId::kInferDenseDispatch,
                           static_cast<std::uint64_t>(li),
                           static_cast<std::uint64_t>(in_nz));
        ST_PROF_SCOPE("infer.conv_dense");
        ++result.dense_dispatches;
        snn::Conv2d::forward_samples(l.geom, l.weight_t, l.bias, x, n,
                                     padded_.data(), out);
        if (timed) result.dense_kernel_ns += obs::telemetry_now_ns() - t1;
        totals.dispatch_nz += in_nz;
        totals.dispatch_elems += in_total;
        break;
      }
      case OpKind::kLinear: {
        // One zero-skipping kernel at every density; its time counts as
        // sparse-kernel time.
        ST_PROF_SCOPE("infer.linear");
        const std::uint64_t t0 = timed ? obs::telemetry_now_ns() : 0;
        in_nz = snn::Linear::forward_rows(
            x, n, l.in_elems, l.out_elems, l.weight_t.data(),
            l.bias.numel() > 0 ? l.bias.data() : nullptr, out);
        if (timed) result.sparse_kernel_ns += obs::telemetry_now_ns() - t0;
        totals.dispatch_nz += in_nz;
        totals.dispatch_elems += in_total;
        break;
      }
      case OpKind::kLif: {
        // Each row's membrane plane lives in its own stream's arena and a
        // fresh stream reads none, as on timestep 0 of a training window.
        ST_PROF_SCOPE("infer.lif");
        for (std::int64_t s = 0; s < n; ++s)
          m_rows_[static_cast<std::size_t>(s)] =
              streams[s]->arena_.data() + l.membrane_offset;
        out_nz = snn::Lif::step_rows(x, n, l.out_elems, m_rows_.data(),
                                     fresh_.data(), l.beta, l.threshold, out);
        totals.spikes += out_nz;
        break;
      }
      case OpKind::kMaxPool2d: {
        ST_PROF_SCOPE("infer.maxpool");
        snn::MaxPool2d::forward_planes(x, n * l.in_shape[0], l.in_shape[1],
                                       l.in_shape[2], l.pool_kernel, out,
                                       nullptr);
        break;
      }
      case OpKind::kAvgPool2d: {
        ST_PROF_SCOPE("infer.avgpool");
        snn::AvgPool2d::forward_planes(x, n * l.in_shape[0], l.in_shape[1],
                                       l.in_shape[2], l.pool_kernel, out);
        break;
      }
      case OpKind::kFlatten:
        // A reshape: the next layer reads this layer's input as it is.
        y = x;
        if (in_nz >= 0) out_nz = in_nz;
        break;
    }

    if (config_.record_stats) {
      if (in_nz < 0) in_nz = ops::count_nonzero(x, in_total);
      if (out_nz < 0) out_nz = ops::count_nonzero(y, n * l.out_elems);
      result.stats.add_step(li, in_nz, in_total, out_nz, n * l.out_elems);
      prev_out_nz = out_nz;
    }
    x = y;
  }

  // window counts += final-layer spikes; disjoint elementwise adds of
  // identical values, so the sum matches the dense path's ops::add_ exactly.
  parallel_for(0, n * out_f, kElemGrain,
               [&](std::int64_t b, std::int64_t e) {
                 for (std::int64_t i = b; i < e; ++i)
                   window_counts[i] += x[i];
               });
  // Each stream's lifetime tally advances by the same 0/1 floats — exact
  // small-integer accumulation, so cumulative_counts() after k steps equals
  // a k-step window's spike_counts bit for bit.
  parallel_for(0, n, 1, [&](std::int64_t sb, std::int64_t se) {
    for (std::int64_t s = sb; s < se; ++s) {
      float* c = streams[s]->counts_.data();
      const float* xs = x + s * out_f;
      for (std::int64_t j = 0; j < out_f; ++j) c[j] += xs[j];
    }
  });
  for (std::int64_t s = 0; s < n; ++s) ++streams[s]->steps_done_;
}

InferenceResult InferenceSession::run(const std::vector<Tensor>& step_inputs) {
  ST_REQUIRE(!step_inputs.empty(), "window must contain at least one step");
  const std::int64_t n = step_inputs.front().shape()[0];
  ST_REQUIRE(n > 0, "batch must be non-empty");
  // A window is just n fresh streams born at t=0 and stepped T times.
  const std::vector<StreamState*> fresh(static_cast<std::size_t>(n), nullptr);
  return run(fresh.data(), n, step_inputs);
}

InferenceResult InferenceSession::run(StreamState* const* streams,
                                      std::int64_t n,
                                      const std::vector<Tensor>& step_inputs) {
  ST_PROF_SCOPE("infer.run");
  ST_REQUIRE(!step_inputs.empty(), "window must contain at least one step");
  ST_REQUIRE(n > 0, "batch must be non-empty");
  const Shape& model_in = model_->input_shape();
  for (const Tensor& t : step_inputs) {
    const Shape& s = t.shape();
    ST_REQUIRE(s.rank() == model_in.rank() + 1 && s[0] == n,
               "step input must be [N, " + model_in.str() + "...], got " +
                   s.str());
    for (std::size_t d = 0; d < model_in.rank(); ++d)
      ST_REQUIRE(s[d + 1] == model_in[d],
                 "step input " + s.str() + " does not match model input " +
                     model_in.str());
  }
  ensure_capacity(n);
  // A null row runs on a scratch stream reset here, so it starts at t = 0
  // and whatever it leaves in the pool is reset before its next use.
  std::vector<StreamState*> rows(streams, streams + n);
  std::size_t scratch_used = 0;
  for (StreamState*& row : rows) {
    if (row != nullptr) continue;
    row = &pool_[scratch_used++];
    row->reset();
  }

  const std::int64_t steps = static_cast<std::int64_t>(step_inputs.size());

  InferenceResult result;
  result.stats = model_->make_record();
  result.timesteps = steps;
  result.spike_counts = Tensor(Shape{n, model_->output_shape()[0]});

  StepTotals totals;
  for (std::int64_t t = 0; t < steps; ++t)
    step_batch(rows.data(), n, step_inputs[static_cast<std::size_t>(t)].data(),
               result.spike_counts.data(), result, totals);

  result.stats.note_window(steps, n);
  result.mean_input_density =
      totals.dispatch_elems > 0
          ? static_cast<double>(totals.dispatch_nz) /
                static_cast<double>(totals.dispatch_elems)
          : 0.0;

  if (obs::metrics_enabled()) {
    static const obs::MetricId kSpikes = obs::counter("infer.spikes");
    static const obs::MetricId kSteps = obs::counter("infer.steps");
    static const obs::MetricId kDense = obs::counter("infer.dense_dispatch");
    obs::add(kSpikes, totals.spikes);
    obs::add(kSteps, steps);
    obs::add(kDense, result.dense_dispatches);
  }
  return result;
}

Tensor InferenceSession::step(StreamState& stream, const Tensor& events) {
  ST_PROF_SCOPE("infer.step");
  const Shape& model_in = model_->input_shape();
  const Shape& s = events.shape();
  bool match = s.rank() == model_in.rank();
  for (std::size_t d = 0; match && d < model_in.rank(); ++d)
    match = s[d] == model_in[d];
  ST_REQUIRE(match, "step events must be per-sample " + model_in.str() +
                        ", got " + s.str());
  ensure_capacity(1);

  InferenceResult result;
  if (config_.record_stats) result.stats = model_->make_record();
  Tensor out(Shape{model_->output_shape()[0]});
  StreamState* ptr = &stream;
  StepTotals totals;
  step_batch(&ptr, 1, events.data(), out.data(), result, totals);

  if (obs::metrics_enabled()) {
    static const obs::MetricId kSpikes = obs::counter("infer.spikes");
    static const obs::MetricId kSteps = obs::counter("infer.steps");
    obs::add(kSpikes, totals.spikes);
    obs::add(kSteps, 1);
  }
  return out;
}

}  // namespace spiketune::infer
