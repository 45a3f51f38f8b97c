// Per-request span timelines for the serving stack.
//
// A RequestSpan is the wall-clock skeleton of one served request: six
// timestamps, each declared once as a row of SPIKETUNE_SPAN_STAMPS with the
// stage that ends at it.  The stamp fields, JSONL keys, span_times() and
// every per-stage view (STAT, windowed and obs histograms, serve_top, the
// dashboard) come from that table.  Stage durations are derived, not
// stored, so they sum to end-to-end time by construction.
//
// SpanRecorder is the daemon-side sink: a bounded ring of sampled spans.
// Sampling is a counter-modulo gate on the server-assigned request ID —
// when a request is not sampled the entire span path costs one modulo and
// a predictable branch; when it is, recording is one mutex-protected ring
// store per request (off the per-sample hot path by construction, since at
// most 1-in-N requests take it).  The ring keeps the most recent
// `capacity` spans; `recorded()` counts everything ever sampled so drops
// are visible.  write_jsonl dumps the ring for offline analysis; the
// dashboard reads it back with parse_span_jsonl.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <iterator>
#include <mutex>
#include <string>
#include <vector>

namespace spiketune::obs {

// X(stamp, stage), in request order: `stamp` names RequestSpan::<stamp>_ns
// and its JSONL key; `stage` names the interval from the previous stamp to
// this one (the first stamp opens the span and ends no stage).
// clang-format off
#define SPIKETUNE_SPAN_STAMPS(X)                                           \
  X(recv, nullptr)     /* frame fully read */                              \
  X(admit, "decode")   /* frame parse + validation */                      \
  X(assemble, "queue") /* waiting for batchmates / a worker */             \
  X(infer, "assemble") /* batch tensor packing */                          \
  X(done, "infer")     /* kernel time, sparse or dense */                  \
  X(send, "respond")   /* serialize + write back */
// clang-format on

struct RequestSpan {
  std::uint64_t server_id = 0;  // daemon-assigned, unique per admitted req
  std::uint64_t client_id = 0;  // echoed from the request frame
  int num_steps = 0;
  int batch = 0;  // size of the batch this request rode in
#define SPIKETUNE_X(stamp, stage) std::uint64_t stamp##_ns = 0;
  SPIKETUNE_SPAN_STAMPS(SPIKETUNE_X)
#undef SPIKETUNE_X
  // Kernel split inside [infer, done], when the session records it.
  std::uint64_t sparse_kernel_ns = 0;
  std::uint64_t dense_kernel_ns = 0;
  bool ok = true;
};

struct SpanStamp {
  const char* key;  // JSONL key, "<stamp>_ns"
  std::uint64_t RequestSpan::*field;
  const char* stage;  // the stage this stamp ends, or nullptr
};

inline constexpr SpanStamp kSpanStamps[] = {
#define SPIKETUNE_X(stamp, stage) \
  {#stamp "_ns", &RequestSpan::stamp##_ns, stage},
    SPIKETUNE_SPAN_STAMPS(SPIKETUNE_X)
#undef SPIKETUNE_X
};

/// Stage i runs from stamp i to stamp i + 1, so the stages tile
/// [recv, send] exactly.
inline constexpr std::size_t kNumStages = std::size(kSpanStamps) - 1;
constexpr const char* stage_name(std::size_t i) {
  return kSpanStamps[i + 1].stage;
}
/// "<stage>_us": the stage's STAT `stages` key and, after "serve.", its obs
/// histogram.
inline std::string stage_key(std::size_t i) {
  return std::string(stage_name(i)) + "_us";
}

/// A span's stage durations and end-to-end time, in microseconds.
struct SpanTimes {
  std::array<double, kNumStages> stage_us{};
  double e2e_us = 0.0;
};

inline SpanTimes span_times(const RequestSpan& s) {
  // Signed, so stamps out of order give a negative stage, not a wrapped one.
  const auto us = [&s](std::size_t from, std::size_t to) {
    return static_cast<double>(static_cast<std::int64_t>(
               s.*kSpanStamps[to].field - s.*kSpanStamps[from].field)) /
           1e3;
  };
  SpanTimes t;
  for (std::size_t i = 0; i < kNumStages; ++i) t.stage_us[i] = us(i, i + 1);
  t.e2e_us = us(0, kNumStages);
  return t;
}

/// Bounded, sampled ring of request spans.  Thread-safe.
class SpanRecorder {
 public:
  /// `sample_every` of 0 disables recording entirely; 1 records every
  /// request; N records requests whose id % N == 0.
  SpanRecorder(std::size_t capacity, std::uint64_t sample_every);

  /// Cheap gate: should the span machinery run for this request at all?
  bool sampled(std::uint64_t server_id) const {
    return sample_every_ != 0 && server_id % sample_every_ == 0;
  }
  std::uint64_t sample_every() const { return sample_every_; }

  void record(const RequestSpan& span);

  /// Spans ever recorded (>= snapshot().size() once the ring wraps).
  std::int64_t recorded() const {
    return recorded_.load(std::memory_order_relaxed);
  }

  /// Copy of the retained spans, oldest first.
  std::vector<RequestSpan> snapshot() const;

  /// Appends the retained spans as JSONL (one object per span, all times
  /// in ns).  Throws spiketune::Error on I/O failure.
  void write_jsonl(const std::string& path) const;

  /// The same JSONL as a string — what serve registers as the crash
  /// handler's extra-snapshot provider (obs/crash.h).
  std::string dump_jsonl() const;

 private:
  const std::size_t capacity_;
  const std::uint64_t sample_every_;
  mutable std::mutex mu_;
  std::vector<RequestSpan> ring_;
  std::size_t next_ = 0;  // ring insertion cursor once full
  std::atomic<std::int64_t> recorded_{0};
};

/// Parses a span JSONL file back into spans, in file order (tolerates
/// blank lines; throws on malformed JSON or missing file).  A missing stamp
/// takes the previous stamp's value, so its stage reads as zero.
std::vector<RequestSpan> parse_span_jsonl(const std::string& path);

}  // namespace spiketune::obs
