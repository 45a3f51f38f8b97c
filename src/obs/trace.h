// Chrome trace-event recorder (chrome://tracing / Perfetto JSON).
//
// While tracing is enabled every profiler scope appends one complete ("X")
// event — name, start, duration, thread — to a per-thread buffer, and
// `trace_counter` appends counter ("C") samples (e.g. per-epoch loss or
// firing rates) that Perfetto renders as tracks.  Buffers are lock-free
// (each thread appends to its own), bounded (drops are counted, not
// silent), and merged into one JSON document by `write_trace_json`, which
// also emits thread-name metadata so pool workers are labeled in the UI.
// A thread's buffer, profiler tree and label are one scope record, so this
// API is implemented in obs/profiler.cpp.
//
// Typical driver flow (see obs/flags.h for the --trace plumbing):
//   obs::start_trace();
//   ... workload ...
//   obs::stop_trace();
//   obs::write_trace_json("trace.json");
#pragma once

#include <cstdint>
#include <string>

namespace spiketune::obs {

/// Clears old events, records the trace epoch, and enables kTraceBit.
void start_trace();

/// Disables kTraceBit; buffered events remain until reset/write.
void stop_trace();

/// Appends a counter sample visible as a Perfetto counter track.  No-op
/// when tracing is disabled.
void trace_counter(const char* name, double value);

/// Appends a complete ("X") event with an explicit start/duration, for
/// spans reconstructed after the fact (e.g. a request's queue wait, known
/// only once the worker picks the batch up).  No-op when disabled.
void trace_span(const char* name, std::uint64_t t0_ns, std::uint64_t dur_ns);

/// Appends a flow event tying together spans of one logical operation
/// (e.g. one request) across threads.  `phase` is 's' (start), 't' (step),
/// or 'f' (finish); `flow_id` groups the arrows; all events of one flow
/// must share `name`.  Perfetto draws arrows start → step → finish.  The
/// timestamp should sit INSIDE the enclosing span on that thread — use the
/// `_at` variant to pin it.  No-op when disabled.
void trace_flow(const char* name, std::uint64_t flow_id, char phase);
void trace_flow_at(const char* name, std::uint64_t flow_id, char phase,
                   std::uint64_t ts_ns);

/// Total buffered events across all threads (dropped ones excluded).
std::size_t trace_event_count();

/// Events dropped because a thread hit its buffer cap.
std::size_t trace_dropped_count();

/// Writes all buffered events as one Chrome trace JSON document.  Safe to
/// call after stop_trace(); throws spiketune::Error on I/O failure.
void write_trace_json(const std::string& path);

/// Drops all buffered events (profile trees and thread labels stay).  Must
/// not race active scopes.
void reset_trace();

}  // namespace spiketune::obs
