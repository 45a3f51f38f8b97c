// Telemetry master switch shared by the obs subsystem.
//
// Metrics (obs/metrics.h), the scoped profiler (obs/profiler.h) and the
// Chrome-trace recorder (obs/trace.h) are all gated on one process-wide
// bitmask.  Every hot-path hook loads it once with relaxed ordering and
// early-outs when its bit is clear, so fully disabled telemetry costs a
// single atomic load per call site — cheap enough to leave compiled into
// the GEMM/im2col/LIF kernels permanently.
#pragma once

#include <cstdint>
#include <string>

namespace spiketune::obs {

/// Telemetry facets; values are bits of the process-wide mask.
enum TelemetryBits : unsigned {
  kMetricsBit = 1u << 0,  // counters / gauges / histograms record
  kProfileBit = 1u << 1,  // ST_PROF_SCOPE accumulates per-thread timings
  kTraceBit = 1u << 2,    // scopes also append Chrome trace events
};

/// Current mask (relaxed load; the only cost on disabled hot paths).
unsigned telemetry_mask();

void enable_telemetry(unsigned bits);
void disable_telemetry(unsigned bits);

inline bool metrics_enabled() { return telemetry_mask() & kMetricsBit; }
inline bool profile_enabled() { return telemetry_mask() & kProfileBit; }
inline bool trace_enabled() { return telemetry_mask() & kTraceBit; }

/// Monotonic nanoseconds since the process's telemetry epoch (first use).
std::uint64_t telemetry_now_ns();

/// Human label for the calling thread in trace output (e.g. "worker-1").
/// Threads without a label render as "thread-<ordinal>".  Stored in the
/// thread's scope record (obs/profiler.cpp); resets keep it, and it goes
/// with the thread unless the thread left profile or trace data behind.
void set_thread_label(const std::string& label);

}  // namespace spiketune::obs
