// Scoped hierarchical profiler.
//
//   void gemm(...) {
//     ST_PROF_SCOPE("gemm");
//     ...
//   }
//
// Each thread accumulates a call tree keyed by the runtime nesting of
// active scopes: "gemm" under "train.forward" and "gemm" under
// "train.backward" are distinct nodes, so the summary table shows where
// time actually goes per phase.  Scope enter/exit is a clock read plus a
// small-child lookup on the thread's own tree — no locks, no contention —
// and a single relaxed atomic load when profiling is disabled (see
// obs/telemetry.h).  Per-node durations also feed a LogHistogram so the
// summary can report tail latencies, and when tracing is on every scope
// additionally emits a Chrome trace event (obs/trace.h).  The tree, the
// trace events and the thread's label share one per-thread scope record,
// so a scope exit feeds both through a single lookup.
//
// The summary merges all threads' trees by path.  It must not run
// concurrently with active scopes on other threads; drivers call it after
// the workload completes (the parallel pool is idle between kernels).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "obs/telemetry.h"

namespace spiketune::obs {

/// RAII scope timer; prefer the ST_PROF_SCOPE macro.  `name` must outlive
/// the scope (string literals; interned names for dynamic strings).
/// The optional histogram id additionally records the duration (ns) into
/// that metric when metrics are enabled.
class ScopedTimer {
 public:
  explicit ScopedTimer(const char* name) : ScopedTimer(name, kNoMetric) {}
  ScopedTimer(const char* name, MetricId duration_hist_ns);
  ~ScopedTimer();

  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

 private:
  const char* name_ = nullptr;  // null => telemetry was off at entry
  std::uint64_t t0_ = 0;
  unsigned mask_ = 0;
  MetricId hist_ = kNoMetric;
};

/// Like ScopedTimer but *always* measures wall time, so callers can both
/// feed the profiler/trace and read the duration for their own reports
/// (e.g. ExperimentResult::train_seconds) from one clock — the two can't
/// drift apart.  Not for hot paths.
class PhaseTimer {
 public:
  explicit PhaseTimer(const char* name);
  ~PhaseTimer();

  /// Stops the timer (idempotent) and returns the elapsed seconds.
  double stop();
  /// Elapsed seconds so far (without stopping).
  double seconds() const;

  PhaseTimer(const PhaseTimer&) = delete;
  PhaseTimer& operator=(const PhaseTimer&) = delete;

 private:
  const char* name_;
  std::uint64_t t0_;
  std::uint64_t elapsed_ns_ = 0;
  unsigned mask_ = 0;
  bool stopped_ = false;
};

/// One merged profile node, preorder with `depth` giving the hierarchy.
struct ProfileEntry {
  std::string name;
  int depth = 0;
  std::int64_t calls = 0;
  std::uint64_t total_ns = 0;
  std::uint64_t self_ns = 0;  // total minus time in child scopes
  LogHistogram hist;          // per-call durations (ns)
};

/// Merges every thread's tree (live + exited) by path; children sorted by
/// total time, descending.
std::vector<ProfileEntry> profile_entries();

/// Hierarchical summary rendered via core/table: scope, calls, total,
/// self, mean, p95.  Empty string when nothing was recorded.
std::string profile_report();

/// Drops all accumulated profile data (trace events and thread labels
/// stay).  Must not race active scopes.
void reset_profile();

}  // namespace spiketune::obs

#define ST_OBS_CONCAT2(a, b) a##b
#define ST_OBS_CONCAT(a, b) ST_OBS_CONCAT2(a, b)
/// Profiles the enclosing block under `name` (a string literal).
#define ST_PROF_SCOPE(name) \
  ::spiketune::obs::ScopedTimer ST_OBS_CONCAT(st_prof_scope_, __LINE__)(name)
