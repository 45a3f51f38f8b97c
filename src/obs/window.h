// Sliding-window ("last N seconds") metric aggregates.
//
// The registry's counters and histograms (obs/metrics.h) are since-start
// totals — right for end-of-run reports, useless for asking a live daemon
// "what is p99 over the last ten seconds?".  WindowedHistogram and
// WindowedRate answer that with a ring of epoch slots: time is divided into
// fixed epochs (1 s by default), each slot accumulates one epoch's samples
// in plain atomics, and a reader merges the slots whose epoch tag still
// falls inside the window.  Old epochs are never swept by a background
// thread — the first writer that lands in a recycled slot claims it with a
// CAS and zeroes it, so the structure has no maintenance cost when idle.
//
// Concurrency contract:
//   * record_at()/add() are safe from any number of threads; the hot path
//     is an epoch division, a tag load, and a handful of relaxed RMWs;
//   * merged_at()/per_second_at() are safe concurrently with writers, but a
//     snapshot taken while a slot is being recycled may transiently miss
//     the first samples of the newest epoch (bounded by one epoch);
//   * a writer stalled so long that its epoch's slot was already recycled
//     for a newer epoch drops the sample and counts it in dropped_late() —
//     with epochs + 2 slots that takes a stall of more than epochs seconds.
//
// Every method takes an explicit `now_ns` so tests can drive a synthetic
// clock, except WindowedRate::add(n), which reads obs::telemetry_now_ns().
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>

#include "obs/metrics.h"

namespace spiketune::obs {

struct WindowConfig {
  std::uint64_t epoch_ns = 1'000'000'000;  // slot granularity (1 s)
  int epochs = 10;                         // window length in epochs
};

/// Sliding-window latency/size distribution: LogHistogram semantics over
/// the last `epochs` epochs (including the current, partial one).
class WindowedHistogram {
 public:
  explicit WindowedHistogram(WindowConfig config = {});
  ~WindowedHistogram();  // out of line: Slot is incomplete here

  void record_at(double value, std::uint64_t now_ns);

  /// Merged view of every in-window epoch; empty histogram when no sample
  /// landed inside the window (quantile() then returns 0, per LogHistogram).
  LogHistogram merged_at(std::uint64_t now_ns) const;

  /// Samples dropped because their epoch's slot was already recycled.
  std::int64_t dropped_late() const {
    return dropped_late_.load(std::memory_order_relaxed);
  }
  const WindowConfig& config() const { return config_; }

 private:
  struct Slot;
  Slot& claim_slot(std::uint64_t epoch, bool& ok);

  WindowConfig config_;
  int num_slots_ = 0;
  std::unique_ptr<Slot[]> slots_;
  std::atomic<std::int64_t> dropped_late_{0};
};

/// Sliding-window event rate (QPS, rejections/s): per-epoch counts, the
/// rate being the in-window total over the time the window covers.
class WindowedRate {
 public:
  explicit WindowedRate(WindowConfig config = {});
  ~WindowedRate();  // out of line: Slot is incomplete here

  void add(std::int64_t n = 1);
  void add_at(std::int64_t n, std::uint64_t now_ns);

  /// total_in_window_at() over the seconds from the start of the window's
  /// oldest epoch (clamped at time 0) to now, so the current, partial epoch
  /// counts with the time it has run.
  double per_second_at(std::uint64_t now_ns) const;

  /// Total events across every in-window epoch (current one included).
  std::int64_t total_in_window_at(std::uint64_t now_ns) const;

  std::int64_t dropped_late() const {
    return dropped_late_.load(std::memory_order_relaxed);
  }
  const WindowConfig& config() const { return config_; }

 private:
  struct Slot;

  WindowConfig config_;
  int num_slots_ = 0;
  std::unique_ptr<Slot[]> slots_;
  std::atomic<std::int64_t> dropped_late_{0};
};

}  // namespace spiketune::obs
