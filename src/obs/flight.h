// Black-box flight recorder: the last few thousand events per thread,
// always on, cheap enough to leave armed in production.
//
// The windowed metrics, spans, and STAT endpoint (obs/window.h, obs/spans.h)
// only help while the process is alive to be scraped; the failures that
// matter in a serving daemon are exactly the ones that kill it first.  The
// flight recorder keeps a per-thread ring of fixed-size binary events
// (monotonic timestamp, thread ordinal, event id, two u64 arguments) in one
// contiguous pre-allocated region, so the fatal-signal handler
// (obs/crash.h) can dump the complete recent history of every thread with
// nothing but write() calls — no allocation, no locks, no formatting.
//
// Writer discipline mirrors the metrics registry (obs/metrics.h): each
// thread claims its own slot once (a single CAS) and is then the only
// writer to its ring, so the hot path is plain stores plus one release
// store of the cursor.  Readers (snapshot, STAT occupancy, the crash dump)
// only trust events below the cursor, which the release/acquire pair makes
// complete.  When the recorder is disarmed every call is one relaxed
// atomic load and a branch — the same contract as `metrics_enabled()`.
//
// The raw dump format is the region's own memory: a 64-byte header, then
// `max_threads` slot headers, then the rings.  decode_flight_dump() turns a
// dump back into timestamp-sorted events, filtering the (at most one per
// thread) event that was mid-write when the process died.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace spiketune::obs {

/// Event vocabulary.  Fixed at compile time so the decoder can name every
/// id without a side table in the dump; append only — ids are stable wire
/// values once shipped.
enum class FlightEventId : std::uint16_t {
  kNone = 0,
  // serve: connection + request lifecycle.
  kConnAccept = 1,      // a0 = connections so far
  kConnClose = 2,       // a0 = connections so far
  kFrameDecode = 3,     // a0 = client request id, a1 = payload bytes
  kRequestAdmit = 4,    // a0 = server id, a1 = queue depth
  kBatchAssemble = 5,   // a0 = batch size, a1 = num steps
  kBatchDispatch = 6,   // a0 = batch size
  kResponseSent = 7,    // a0 = server id, a1 = 1 ok / 0 dropped
  kDeadlineShed = 8,    // a0 = server id, a1 = deadline_us
  kFaultInjected = 9,   // a0 = connection index, a1 = op sequence
  kStatRequest = 10,    // a0 = client request id
  kCrashInjected = 11,  // a0 = frame count, a1 = signal (fault crash_at op)
  // stream: per-stream lifecycle (infer::StreamManager).
  kStreamOpen = 12,     // a0 = stream id, a1 = live streams
  kStreamClose = 13,    // a0 = stream id, a1 = live streams
  kStreamEvict = 14,    // a0 = stream id, a1 = in-memory streams
  kStreamRestore = 15,  // a0 = stream id, a1 = steps done at restore
  // infer: one per conv layer step.  20 (the retired sparse-scatter
  // dispatch) stays unused, so old dumps still decode 21 as this one.
  kInferDenseDispatch = 21,  // a0 = layer index, a1 = nonzero count
  // train: epoch / checkpoint boundaries.
  kEpochStart = 30,         // a0 = epoch
  kEpochEnd = 31,           // a0 = epoch, a1 = accuracy in ppm
  kCheckpointSave = 32,     // a0 = next epoch
  kCheckpointRestore = 33,  // a0 = resumed epoch
  // crash: stamped by the fatal handler itself.
  kCrashSignal = 40,  // a0 = signal number, a1 = fault address
};

/// Decoder-facing name for an event id ("?" for unknown ids, which is how
/// a torn record that survived validation still renders safely).
const char* flight_event_name(std::uint16_t id);

/// One ring entry.  The dump format is this struct's bytes verbatim
/// (little-endian on every supported target); keep it trivially copyable
/// and exactly 32 bytes.
struct FlightRecord {
  std::uint64_t ts_ns = 0;  // obs::telemetry_now_ns at record time
  std::uint16_t thread = 0;  // recorder slot ordinal (not the OS tid)
  std::uint16_t event = 0;   // FlightEventId
  std::uint32_t reserved = 0;
  std::uint64_t a0 = 0;
  std::uint64_t a1 = 0;
};
static_assert(sizeof(FlightRecord) == 32, "dump format is frozen");

struct FlightConfig {
  /// Ring capacity per thread, rounded up to a power of two (>= 64).
  std::uint32_t events_per_thread = 4096;
  /// Thread slots pre-allocated in the region.  Threads beyond this record
  /// nothing and count into dropped().
  std::uint32_t max_threads = 64;
};

/// Allocates the region and opens the gate.  Re-arming replaces the region
/// (the old one is leaked by design: retired threads may still hold
/// pointers into it, exactly like the metrics registry's leaked Registry).
void arm_flight_recorder(const FlightConfig& config = {});

/// Closes the gate; the region stays readable for dump/snapshot/stats.
void disarm_flight_recorder();

/// True between arm and disarm (one relaxed atomic load).
bool flight_enabled();

/// Freezes recording without forgetting the region — what the fatal
/// handler calls first so the rings stop moving under the dump.
/// Async-signal-safe (a single relaxed atomic store).
void freeze_flight_recorder();

/// Stamps one kCrashSignal event into the calling thread's ring, bypassing
/// the enabled gate (the handler freezes the recorder first).  Only safe
/// from the crashing thread: it reuses the slot that thread already
/// claimed, so it is plain stores — async-signal-safe.  No-op when the
/// thread never recorded anything (no slot to reuse: claiming here would
/// need a CAS loop mid-crash for an event the decoder can live without).
void flight_record_crash_marker(int signo, std::uint64_t fault_addr);

namespace detail {
void flight_record_impl(FlightEventId id, std::uint64_t a0, std::uint64_t a1);
}

/// Records one event into the calling thread's ring.  With the recorder
/// disarmed this is one relaxed atomic load and a branch.
inline void flight_record(FlightEventId id, std::uint64_t a0 = 0,
                          std::uint64_t a1 = 0) {
  if (flight_enabled()) detail::flight_record_impl(id, a0, a1);
}

/// Occupancy / drop accounting (what STAT reports).
struct FlightStats {
  bool armed = false;
  std::int64_t recorded = 0;   // events ever written (sum of cursors)
  std::int64_t retained = 0;   // events currently held in the rings
  std::int64_t dropped = 0;    // events lost to slot exhaustion
  std::int64_t threads = 0;    // slots claimed
  std::int64_t capacity_per_thread = 0;
  std::int64_t region_bytes = 0;
};
FlightStats flight_stats();

/// Writes the whole region (header + slot headers + rings) to `fd`.
/// Async-signal-safe: write() in a loop, nothing else.  Returns false when
/// no region exists or a write fails.
bool dump_flight_rings(int fd);

/// One decoded event (seq is the per-thread monotonic write index, so gaps
/// reveal ring rollover).
struct DecodedFlightEvent {
  std::uint64_t ts_ns = 0;
  int thread = 0;
  std::uint16_t id = 0;
  std::string name;
  std::uint64_t a0 = 0;
  std::uint64_t a1 = 0;
  std::uint64_t seq = 0;
};

/// Everything a dump file decodes to.
struct DecodedFlightDump {
  std::uint32_t capacity_per_thread = 0;
  std::uint32_t max_threads = 0;
  std::int64_t recorded = 0;
  std::int64_t dropped = 0;
  std::int64_t threads = 0;
  std::int64_t torn = 0;  // records skipped by validation
  std::vector<DecodedFlightEvent> events;  // sorted by (ts_ns, thread, seq)
};

/// Parses a raw dump written by dump_flight_rings.  Throws InvalidArgument
/// on a bad magic/size and spiketune::Error on I/O failure.
DecodedFlightDump decode_flight_dump(const std::string& path);

/// Decodes the live region in-process (tests; also serve_top debugging).
/// Only complete events (below each cursor) are returned.
DecodedFlightDump snapshot_flight_events();

// --- offline post-mortem timeline (spiketune_flightdump output) -------------

/// One line of the merged timeline JSONL: flight events and request spans
/// interleaved by timestamp.
struct TimelineEntry {
  std::string kind;  // "event" | "span"
  std::uint64_t ts_ns = 0;
  int thread = 0;        // events only
  std::string event;     // event name, or "span" stage summary
  std::uint64_t a0 = 0;
  std::uint64_t a1 = 0;
};

/// Parsed `spiketune_flightdump --out` timeline: a crash header (when the
/// bundle recorded one) plus the merged entries in file order.
struct PostmortemTimeline {
  bool has_crash = false;
  int signal = 0;
  std::string signame;
  std::string fingerprint;
  std::string build;
  std::int64_t events = 0;
  std::int64_t torn = 0;
  std::int64_t dropped = 0;
  std::int64_t threads = 0;
  std::vector<TimelineEntry> entries;
};

/// Parses a timeline JSONL written by spiketune_flightdump (tolerates blank
/// lines; throws on malformed JSON or a missing file).
PostmortemTimeline parse_timeline_jsonl(const std::string& path);

}  // namespace spiketune::obs
