#include "infer/session.h"

#include <algorithm>
#include <atomic>

#include "core/error.h"
#include "core/parallel.h"
#include "obs/flight.h"
#include "obs/metrics.h"
#include "obs/profiler.h"
#include "tensor/gemm.h"
#include "tensor/im2col.h"

namespace spiketune::infer {

namespace {

// Matches snn::Lif's slicing economics for elementwise loops.
constexpr std::int64_t kElemGrain = 2048;

// Same nonzero predicate as ops::count_nonzero; per-slice integer tallies
// sum exactly for any slicing.
std::int64_t count_nonzero(const float* p, std::int64_t n) {
  std::atomic<std::int64_t> total{0};
  parallel_for(0, n, kElemGrain, [&](std::int64_t b, std::int64_t e) {
    std::int64_t local = 0;
    for (std::int64_t i = b; i < e; ++i) local += (p[i] != 0.0f);
    total.fetch_add(local, std::memory_order_relaxed);
  });
  return total.load(std::memory_order_relaxed);
}

}  // namespace

InferenceSession::InferenceSession(const CompiledModel& model,
                                   InferOptions config)
    : model_(&model), config_(config) {
  ST_REQUIRE(model.num_layers() > 0, "cannot build a session on empty model");
  ST_REQUIRE(config_.max_batch > 0, "max_batch must be positive");
  acts_.resize(model.num_layers());
  for (const auto& l : model.layers()) {
    if (l.kind == OpKind::kConv2d) {
      const std::int64_t spatial = l.geom.col_cols();
      scratch_stride_ = std::max(scratch_stride_, spatial * l.out_shape[0]);
      cols_stride_ = std::max(cols_stride_, l.geom.col_rows() * spatial);
      idx_stride_ = std::max(idx_stride_, l.in_elems);
    } else if (l.kind == OpKind::kLinear) {
      idx_stride_ = std::max(idx_stride_, l.in_elems);
    }
  }
  ensure_capacity(config_.max_batch);
}

void InferenceSession::ensure_capacity(std::int64_t batch) {
  if (batch <= capacity_) return;
  const auto& layers = model_->layers();
  for (std::size_t li = 0; li < layers.size(); ++li)
    acts_[li].resize(static_cast<std::size_t>(batch * layers[li].out_elems));
  nz_idx_.resize(static_cast<std::size_t>(batch * idx_stride_));
  nz_count_.resize(static_cast<std::size_t>(batch));
  scratch_.resize(static_cast<std::size_t>(batch * scratch_stride_));
  cols_.resize(static_cast<std::size_t>(batch * cols_stride_));
  m_rows_.resize(static_cast<std::size_t>(batch));
  fresh_.resize(static_cast<std::size_t>(batch));
  // One scratch stream per row, for the rows run() is handed as null.
  while (pool_.size() < static_cast<std::size_t>(batch))
    pool_.emplace_back(*model_);
  capacity_ = batch;
}

std::int64_t InferenceSession::build_index_lists(const float* in,
                                                 std::int64_t batch,
                                                 std::int64_t in_elems) {
  std::atomic<std::int64_t> total{0};
  parallel_for(0, batch, 1, [&](std::int64_t sb, std::int64_t se) {
    std::int64_t local = 0;
    for (std::int64_t s = sb; s < se; ++s) {
      const float* x = in + s * in_elems;
      std::int32_t* idx = nz_idx_.data() + s * idx_stride_;
      std::int64_t c = 0;
      for (std::int64_t i = 0; i < in_elems; ++i)
        if (x[i] != 0.0f) idx[c++] = static_cast<std::int32_t>(i);
      nz_count_[static_cast<std::size_t>(s)] = c;
      local += c;
    }
    total.fetch_add(local, std::memory_order_relaxed);
  });
  return total.load(std::memory_order_relaxed);
}

namespace {

// --- Conv2d -----------------------------------------------------------------
//
// Sparse path: per sample, scatter each nonzero input pixel through the
// [K, OC] transposed weights into a zeroed [spatial, OC] scratch, then
// transpose into the [OC, OH, OW] output fusing the bias add.  For any fixed
// output element, contributions land in ascending p = (ic, kh, kw) order —
// the dense im2col+GEMM reduction order — and the terms that differ between
// the two paths are exact ±0.0 products, so the result is bit-identical to
// the dense kernel (DESIGN.md §10).

void conv_sparse(const CompiledLayer& l, const float* in, std::int64_t n,
                 const std::int32_t* nz_idx, std::int64_t idx_stride,
                 const std::int64_t* nz_count, float* scratch,
                 std::int64_t scratch_stride, float* out) {
  ST_PROF_SCOPE("infer.conv_sparse");
  const ConvGeom& g = l.geom;
  const std::int64_t oh = g.out_h();
  const std::int64_t ow = g.out_w();
  const std::int64_t spatial = oh * ow;
  const std::int64_t ocn = l.out_shape[0];
  const std::int64_t hw = g.height * g.width;
  const float* wt = l.weight_t.data();
  const float* b = l.bias.numel() > 0 ? l.bias.data() : nullptr;

  parallel_for(0, n, 1, [&](std::int64_t sb, std::int64_t se) {
    for (std::int64_t s = sb; s < se; ++s) {
      float* scr = scratch + s * scratch_stride;
      std::fill(scr, scr + spatial * ocn, 0.0f);
      const float* x = in + s * l.in_elems;
      const std::int32_t* idx = nz_idx + s * idx_stride;
      const std::int64_t cnt = nz_count[s];
      for (std::int64_t e = 0; e < cnt; ++e) {
        const std::int64_t f = idx[e];
        const float v = x[f];
        const std::int64_t ic = f / hw;
        const std::int64_t rem = f - ic * hw;
        const std::int64_t iy = rem / g.width;
        const std::int64_t ix = rem - iy * g.width;
        const std::int64_t base_p = ic * g.kernel_h * g.kernel_w;
        for (std::int64_t kh = 0; kh < g.kernel_h; ++kh) {
          const std::int64_t oy = iy + g.pad_h - kh;
          if (oy < 0 || oy >= oh) continue;
          for (std::int64_t kw = 0; kw < g.kernel_w; ++kw) {
            const std::int64_t ox = ix + g.pad_w - kw;
            if (ox < 0 || ox >= ow) continue;
            const float* wrow = wt + (base_p + kh * g.kernel_w + kw) * ocn;
            float* srow = scr + (oy * ow + ox) * ocn;
            for (std::int64_t oc = 0; oc < ocn; ++oc)
              srow[oc] += v * wrow[oc];
          }
        }
      }
      float* o = out + s * l.out_elems;
      for (std::int64_t oc = 0; oc < ocn; ++oc) {
        float* oplane = o + oc * spatial;
        if (b != nullptr) {
          const float bv = b[oc];
          for (std::int64_t sp = 0; sp < spatial; ++sp)
            oplane[sp] = scr[sp * ocn + oc] + bv;
        } else {
          for (std::int64_t sp = 0; sp < spatial; ++sp)
            oplane[sp] = scr[sp * ocn + oc];
        }
      }
    }
  });
}

// Dense fallback: exactly snn::Conv2d::forward_step, with the im2col buffer
// drawn from the session's preallocated arena instead of a per-slice vector.
void conv_dense(const CompiledLayer& l, const float* in, std::int64_t n,
                float* cols, std::int64_t cols_stride, float* out) {
  ST_PROF_SCOPE("infer.conv_dense");
  const ConvGeom& g = l.geom;
  const std::int64_t spatial = g.col_cols();
  const std::int64_t kk = g.col_rows();
  const std::int64_t ocn = l.out_shape[0];
  const float* b = l.bias.numel() > 0 ? l.bias.data() : nullptr;

  parallel_for(0, n, 1, [&](std::int64_t sb, std::int64_t se) {
    for (std::int64_t s = sb; s < se; ++s) {
      float* c = cols + s * cols_stride;
      im2col(g, in + s * l.in_elems, c);
      gemm(ocn, spatial, kk, 1.0f, l.weight.data(), c, 0.0f,
           out + s * l.out_elems);
      if (b != nullptr) {
        float* o = out + s * l.out_elems;
        for (std::int64_t oc = 0; oc < ocn; ++oc) {
          const float bv = b[oc];
          float* plane = o + oc * spatial;
          for (std::int64_t sp = 0; sp < spatial; ++sp) plane[sp] += bv;
        }
      }
    }
  });
}

// --- Linear -----------------------------------------------------------------

void linear_sparse(const CompiledLayer& l, const float* in, std::int64_t n,
                   const std::int32_t* nz_idx, std::int64_t idx_stride,
                   const std::int64_t* nz_count, float* out) {
  ST_PROF_SCOPE("infer.linear_sparse");
  const std::int64_t out_f = l.out_shape[0];
  const float* wt = l.weight_t.data();
  const float* b = l.bias.numel() > 0 ? l.bias.data() : nullptr;

  parallel_for(0, n, 1, [&](std::int64_t sb, std::int64_t se) {
    for (std::int64_t s = sb; s < se; ++s) {
      float* o = out + s * out_f;
      std::fill(o, o + out_f, 0.0f);
      const float* x = in + s * l.in_elems;
      const std::int32_t* idx = nz_idx + s * idx_stride;
      const std::int64_t cnt = nz_count[s];
      for (std::int64_t e = 0; e < cnt; ++e) {
        const std::int64_t f = idx[e];
        const float v = x[f];
        const float* wrow = wt + f * out_f;
        for (std::int64_t j = 0; j < out_f; ++j) o[j] += v * wrow[j];
      }
      if (b != nullptr)
        for (std::int64_t j = 0; j < out_f; ++j) o[j] += b[j];
    }
  });
}

// Dense fallback: exactly snn::Linear::forward_step.
void linear_dense(const CompiledLayer& l, const float* in, std::int64_t n,
                  float* out) {
  ST_PROF_SCOPE("infer.linear_dense");
  const std::int64_t out_f = l.out_shape[0];
  gemm_nt(n, out_f, l.in_elems, 1.0f, in, l.weight.data(), 0.0f, out);
  if (l.bias.numel() > 0) {
    const float* b = l.bias.data();
    for (std::int64_t i = 0; i < n; ++i)
      for (std::int64_t j = 0; j < out_f; ++j) out[i * out_f + j] += b[j];
  }
}

// --- LIF --------------------------------------------------------------------
//
// In-place membrane update, no caches.  Identical elementwise recurrence to
// snn::Lif::forward_step, but each row's membrane plane lives in its own
// stream's arena (m_rows[s]) and carries its own freshness flag: a fresh
// stream's step reads no membrane term at all, matching the dense layer's
// has_membrane_ gate on timestep 0.  The flat [0, n*out_elems) slicing and
// the per-element arithmetic are unchanged from the pre-streaming kernel —
// only the address each element's membrane lives at differs — so outputs
// are bit-identical at any thread count.  Returns the spike tally (exact:
// per-slice integer counts).

std::int64_t lif_step(const CompiledLayer& l, const float* in, std::int64_t n,
                      const unsigned char* fresh, float* const* m_rows,
                      float* out) {
  ST_PROF_SCOPE("infer.lif");
  const float beta = l.beta;
  const float theta = l.threshold;
  const std::int64_t stride = l.out_elems;
  const std::int64_t total = n * stride;
  std::atomic<std::int64_t> fired{0};
  parallel_for(0, total, kElemGrain, [&](std::int64_t b, std::int64_t e) {
    std::int64_t local = 0;
    std::int64_t i = b;
    std::int64_t s = b / stride;
    std::int64_t j = b - s * stride;
    while (i < e) {
      const std::int64_t row_end = std::min(e, i + (stride - j));
      float* m = m_rows[s] + j;
      const bool first_step = fresh[s] != 0;
      for (std::int64_t k = 0; i < row_end; ++i, ++k) {
        float u = in[i];
        if (!first_step) u += beta * m[k];
        const bool fire = u > theta;
        out[i] = fire ? 1.0f : 0.0f;
        if (fire) {
          u -= theta;
          ++local;
        }
        m[k] = u;
      }
      ++s;
      j = 0;
    }
    fired.fetch_add(local, std::memory_order_relaxed);
  });
  return fired.load(std::memory_order_relaxed);
}

// --- Pooling ----------------------------------------------------------------
//
// Same per-window arithmetic as snn::MaxPool2d / snn::AvgPool2d (first-
// element init + strict > for max; ascending (dy, dx) accumulation for avg),
// parallelized over planes — each plane's output is computed independently.

void maxpool(const CompiledLayer& l, const float* in, std::int64_t n,
             float* out) {
  ST_PROF_SCOPE("infer.maxpool");
  const std::int64_t h = l.in_shape[1];
  const std::int64_t w = l.in_shape[2];
  const std::int64_t oh = l.out_shape[1];
  const std::int64_t ow = l.out_shape[2];
  const std::int64_t k = l.pool_kernel;
  parallel_for(0, n * l.in_shape[0], 1,
               [&](std::int64_t pb, std::int64_t pe) {
                 for (std::int64_t p = pb; p < pe; ++p) {
                   const float* iplane = in + p * h * w;
                   float* oplane = out + p * oh * ow;
                   for (std::int64_t y = 0; y < oh; ++y) {
                     for (std::int64_t x = 0; x < ow; ++x) {
                       const std::int64_t y0 = y * k;
                       const std::int64_t x0 = x * k;
                       float best = iplane[y0 * w + x0];
                       for (std::int64_t dy = 0; dy < k; ++dy)
                         for (std::int64_t dx = 0; dx < k; ++dx) {
                           const float v = iplane[(y0 + dy) * w + (x0 + dx)];
                           if (v > best) best = v;
                         }
                       oplane[y * ow + x] = best;
                     }
                   }
                 }
               });
}

void avgpool(const CompiledLayer& l, const float* in, std::int64_t n,
             float* out) {
  ST_PROF_SCOPE("infer.avgpool");
  const std::int64_t h = l.in_shape[1];
  const std::int64_t w = l.in_shape[2];
  const std::int64_t oh = l.out_shape[1];
  const std::int64_t ow = l.out_shape[2];
  const std::int64_t k = l.pool_kernel;
  const float inv = 1.0f / static_cast<float>(k * k);
  parallel_for(0, n * l.in_shape[0], 1,
               [&](std::int64_t pb, std::int64_t pe) {
                 for (std::int64_t p = pb; p < pe; ++p) {
                   const float* iplane = in + p * h * w;
                   float* oplane = out + p * oh * ow;
                   for (std::int64_t y = 0; y < oh; ++y) {
                     for (std::int64_t x = 0; x < ow; ++x) {
                       float acc = 0.0f;
                       for (std::int64_t dy = 0; dy < k; ++dy)
                         for (std::int64_t dx = 0; dx < k; ++dx)
                           acc += iplane[(y * k + dy) * w + (x * k + dx)];
                       oplane[y * ow + x] = acc * inv;
                     }
                   }
                 }
               });
}

}  // namespace

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

  std::int64_t prev_out_nz = -1;  // boundary count carried layer to layer
  for (std::size_t li = 0; li < layers.size(); ++li) {
    const CompiledLayer& l = layers[li];
    float* out = acts_[li].data();
    const std::int64_t in_total = n * l.in_elems;
    std::int64_t in_nz = prev_out_nz;
    std::int64_t out_nz = -1;

    switch (l.kind) {
      case OpKind::kConv2d:
      case OpKind::kLinear: {
        // Exact batch-wide density drives the kernel choice, so dispatch
        // is deterministic for any thread count.
        const bool timed = config_.record_stage_times;
        const std::uint64_t t0 = timed ? obs::telemetry_now_ns() : 0;
        const std::int64_t nz = build_index_lists(x, n, l.in_elems);
        const std::uint64_t t1 = timed ? obs::telemetry_now_ns() : 0;
        if (timed) result.index_ns += t1 - t0;
        in_nz = nz;
        totals.dispatch_nz += nz;
        totals.dispatch_elems += in_total;
        const double density =
            static_cast<double>(nz) / static_cast<double>(in_total);
        obs::flight_record(density <= config_.sparse_crossover
                               ? obs::FlightEventId::kInferSparseDispatch
                               : obs::FlightEventId::kInferDenseDispatch,
                           static_cast<std::uint64_t>(li),
                           static_cast<std::uint64_t>(nz));
        if (density <= config_.sparse_crossover) {
          ++result.sparse_dispatches;
          if (l.kind == OpKind::kConv2d)
            conv_sparse(l, x, n, nz_idx_.data(), idx_stride_,
                        nz_count_.data(), scratch_.data(), scratch_stride_,
                        out);
          else
            linear_sparse(l, x, n, nz_idx_.data(), idx_stride_,
                          nz_count_.data(), out);
          if (timed) result.sparse_kernel_ns += obs::telemetry_now_ns() - t1;
        } else {
          ++result.dense_dispatches;
          if (l.kind == OpKind::kConv2d)
            conv_dense(l, x, n, cols_.data(), cols_stride_, out);
          else
            linear_dense(l, x, n, out);
          if (timed) result.dense_kernel_ns += obs::telemetry_now_ns() - t1;
        }
        break;
      }
      case OpKind::kLif: {
        for (std::int64_t s = 0; s < n; ++s)
          m_rows_[static_cast<std::size_t>(s)] =
              streams[s]->arena_.data() + l.membrane_offset;
        out_nz = lif_step(l, x, n, fresh_.data(), m_rows_.data(), out);
        totals.spikes += out_nz;
        break;
      }
      case OpKind::kMaxPool2d:
        maxpool(l, x, n, out);
        break;
      case OpKind::kAvgPool2d:
        avgpool(l, x, n, out);
        break;
      case OpKind::kFlatten:
        std::copy(x, x + in_total, out);
        if (in_nz >= 0) out_nz = in_nz;  // reshape preserves nonzeros
        break;
    }

    if (config_.record_stats) {
      if (in_nz < 0) in_nz = count_nonzero(x, in_total);
      if (out_nz < 0) out_nz = count_nonzero(out, n * l.out_elems);
      result.stats.add_step(li, in_nz, in_total, out_nz, n * l.out_elems);
      prev_out_nz = out_nz;
    }
    x = out;
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
    static const obs::MetricId kSparse = obs::counter("infer.sparse_dispatch");
    static const obs::MetricId kDense = obs::counter("infer.dense_dispatch");
    obs::add(kSpikes, totals.spikes);
    obs::add(kSteps, steps);
    obs::add(kSparse, result.sparse_dispatches);
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
