#include "obs/flight.h"

#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <fstream>
#include <mutex>

#include "core/error.h"
#include "core/json.h"
#include "obs/telemetry.h"

namespace spiketune::obs {
namespace {

// The dump format relies on reading the atomics' storage as plain integers
// (both in dump_flight_rings, which writes the live region's bytes, and in
// the decoder, which reinterprets the file).  That is only sound when the
// atomic is layout-compatible with its value type — true on every target we
// build for, and asserted so a port that breaks it fails loudly.
static_assert(sizeof(std::atomic<std::uint64_t>) == sizeof(std::uint64_t),
              "raw-region dump assumes lock-free layout-compatible atomics");
static_assert(std::atomic<std::uint64_t>::is_always_lock_free,
              "raw-region dump assumes lock-free atomics");

constexpr char kMagic[8] = {'S', 'T', 'F', 'R', '0', '0', '0', '1'};

/// First 64 bytes of the region and of every dump file.
struct RegionHeader {
  char magic[8];
  std::uint32_t events_per_thread = 0;  // power of two
  std::uint32_t max_threads = 0;
  std::uint32_t record_size = 0;  // sizeof(FlightRecord)
  std::uint32_t slot_header_size = 0;
  std::atomic<std::uint64_t> dropped{0};
  std::atomic<std::uint32_t> claimed{0};
  std::uint32_t pad0 = 0;
  std::uint64_t pad1[3] = {0, 0, 0};
};
static_assert(sizeof(RegionHeader) == 64, "dump format is frozen");

/// Per-thread slot header: the cursor counts events ever written by this
/// thread; the ring index is cursor & (capacity - 1).
struct SlotHeader {
  std::uint32_t ordinal = 0;
  std::uint32_t pad0 = 0;
  std::atomic<std::uint64_t> cursor{0};
  std::uint64_t pad1[2] = {0, 0};
};
static_assert(sizeof(SlotHeader) == 32, "dump format is frozen");

/// One contiguous allocation: header, then max_threads slot headers, then
/// max_threads rings of events_per_thread records each.  Contiguity is
/// what lets the crash handler dump everything with a single write loop.
struct FlightRegion {
  RegionHeader* header = nullptr;
  SlotHeader* slots = nullptr;
  FlightRecord* records = nullptr;
  std::size_t bytes = 0;
  // Owning pointer to the block (freed never — see arm_flight_recorder).
  char* block = nullptr;

  SlotHeader* slot(std::uint32_t i) const { return &slots[i]; }
  FlightRecord* ring(std::uint32_t slot_index) const {
    return records +
           static_cast<std::size_t>(slot_index) * header->events_per_thread;
  }
};

/// Gate the hot path loads: null when disarmed or frozen.
std::atomic<FlightRegion*> g_enabled{nullptr};
/// Stable pointer for dump/stats/snapshot; survives freeze/disarm.
std::atomic<FlightRegion*> g_region{nullptr};

std::mutex g_arm_mu;

std::uint32_t round_up_pow2(std::uint32_t v, std::uint32_t floor) {
  if (v < floor) v = floor;
  std::uint32_t p = floor;
  while (p < v) p <<= 1;
  return p;
}

/// Per-thread claimed slot, cached against the region it belongs to so a
/// re-arm (tests) transparently claims a slot in the new region.
struct ThreadSlot {
  FlightRegion* region = nullptr;
  SlotHeader* slot = nullptr;
  FlightRecord* ring = nullptr;
  std::uint32_t mask = 0;
};
thread_local ThreadSlot t_slot;

/// Claims a slot in `region` for the calling thread; returns false when the
/// region's slots are exhausted (the thread then records nothing and its
/// writes count into dropped).
bool claim_slot(FlightRegion* region) {
  RegionHeader* h = region->header;
  std::uint32_t mine = h->claimed.fetch_add(1, std::memory_order_relaxed);
  if (mine >= h->max_threads) {
    // Undo so `claimed` stays a slot count, not an attempt count.
    h->claimed.fetch_sub(1, std::memory_order_relaxed);
    t_slot = {region, nullptr, nullptr, 0};
    return false;
  }
  SlotHeader* s = region->slot(mine);
  s->ordinal = mine;
  t_slot = {region, s, region->ring(mine), h->events_per_thread - 1};
  return true;
}

const char* signal_name_or(int sig, const char* fallback) {
  switch (sig) {
    case 4: return "SIGILL";
    case 6: return "SIGABRT";
    case 7: return "SIGBUS";
    case 8: return "SIGFPE";
    case 11: return "SIGSEGV";
    default: return fallback;
  }
}

/// Decodes one region image (live or mmap'd-from-file) into sorted events.
/// `live` selects acquire loads on the cursors (in-process snapshot racing
/// active writers) versus plain reads (dump file, nothing concurrent).
DecodedFlightDump decode_region(const RegionHeader* h, const SlotHeader* slots,
                                const FlightRecord* records, bool live) {
  DecodedFlightDump out;
  out.capacity_per_thread = h->events_per_thread;
  out.max_threads = h->max_threads;
  out.dropped = static_cast<std::int64_t>(
      h->dropped.load(std::memory_order_relaxed));
  const std::uint32_t claimed =
      std::min(h->claimed.load(std::memory_order_relaxed), h->max_threads);
  out.threads = claimed;
  const std::uint32_t cap = h->events_per_thread;
  for (std::uint32_t t = 0; t < claimed; ++t) {
    const std::uint64_t cursor =
        live ? slots[t].cursor.load(std::memory_order_acquire)
             : slots[t].cursor.load(std::memory_order_relaxed);
    out.recorded += static_cast<std::int64_t>(cursor);
    const std::uint64_t n = std::min<std::uint64_t>(cursor, cap);
    const FlightRecord* ring =
        records + static_cast<std::size_t>(t) * cap;
    for (std::uint64_t i = 0; i < n; ++i) {
      const std::uint64_t seq = cursor - n + i;
      const FlightRecord& r = ring[seq & (cap - 1)];
      // A record mid-write when the process died (or raced by snapshot
      // before its cursor moved — impossible below the cursor, but a dump
      // taken without freezing can tear the one in-flight record per
      // thread): a zero timestamp or an unknown event id marks it torn.
      if (r.ts_ns == 0 ||
          std::strcmp(flight_event_name(r.event), "?") == 0) {
        ++out.torn;
        continue;
      }
      DecodedFlightEvent e;
      e.ts_ns = r.ts_ns;
      e.thread = static_cast<int>(r.thread);
      e.id = r.event;
      e.name = flight_event_name(r.event);
      e.a0 = r.a0;
      e.a1 = r.a1;
      e.seq = seq;
      out.events.push_back(std::move(e));
    }
  }
  std::sort(out.events.begin(), out.events.end(),
            [](const DecodedFlightEvent& a, const DecodedFlightEvent& b) {
              if (a.ts_ns != b.ts_ns) return a.ts_ns < b.ts_ns;
              if (a.thread != b.thread) return a.thread < b.thread;
              return a.seq < b.seq;
            });
  return out;
}

}  // namespace

const char* flight_event_name(std::uint16_t id) {
  switch (static_cast<FlightEventId>(id)) {
    case FlightEventId::kNone: return "none";
    case FlightEventId::kConnAccept: return "serve.conn_accept";
    case FlightEventId::kConnClose: return "serve.conn_close";
    case FlightEventId::kFrameDecode: return "serve.frame_decode";
    case FlightEventId::kRequestAdmit: return "serve.request_admit";
    case FlightEventId::kBatchAssemble: return "serve.batch_assemble";
    case FlightEventId::kBatchDispatch: return "serve.batch_dispatch";
    case FlightEventId::kResponseSent: return "serve.response_sent";
    case FlightEventId::kDeadlineShed: return "serve.deadline_shed";
    case FlightEventId::kFaultInjected: return "serve.fault_injected";
    case FlightEventId::kStatRequest: return "serve.stat_request";
    case FlightEventId::kCrashInjected: return "serve.crash_injected";
    case FlightEventId::kStreamOpen: return "stream.open";
    case FlightEventId::kStreamClose: return "stream.close";
    case FlightEventId::kStreamEvict: return "stream.evict";
    case FlightEventId::kStreamRestore: return "stream.restore";
    case FlightEventId::kInferDenseDispatch: return "infer.dense_dispatch";
    case FlightEventId::kEpochStart: return "train.epoch_start";
    case FlightEventId::kEpochEnd: return "train.epoch_end";
    case FlightEventId::kCheckpointSave: return "train.checkpoint_save";
    case FlightEventId::kCheckpointRestore: return "train.checkpoint_restore";
    case FlightEventId::kCrashSignal: return "crash.signal";
  }
  return "?";
}

void arm_flight_recorder(const FlightConfig& config) {
  std::lock_guard<std::mutex> lock(g_arm_mu);
  const std::uint32_t cap = round_up_pow2(config.events_per_thread, 64);
  const std::uint32_t threads =
      std::max<std::uint32_t>(1, config.max_threads);
  const std::size_t bytes = sizeof(RegionHeader) +
                            static_cast<std::size_t>(threads) *
                                sizeof(SlotHeader) +
                            static_cast<std::size_t>(threads) * cap *
                                sizeof(FlightRecord);
  // Leaked on purpose, like the metrics Registry: retired threads may still
  // hold t_slot pointers into a previous region, and the crash handler may
  // fire at any instant — a region, once published, must stay valid for the
  // life of the process.
  char* block = new char[bytes];
  std::memset(block, 0, bytes);
  auto* region = new FlightRegion();
  region->block = block;
  region->bytes = bytes;
  region->header = new (block) RegionHeader();
  std::memcpy(region->header->magic, kMagic, sizeof(kMagic));
  region->header->events_per_thread = cap;
  region->header->max_threads = threads;
  region->header->record_size = sizeof(FlightRecord);
  region->header->slot_header_size = sizeof(SlotHeader);
  region->slots =
      reinterpret_cast<SlotHeader*>(block + sizeof(RegionHeader));
  for (std::uint32_t i = 0; i < threads; ++i) new (&region->slots[i]) SlotHeader();
  region->records = reinterpret_cast<FlightRecord*>(
      block + sizeof(RegionHeader) +
      static_cast<std::size_t>(threads) * sizeof(SlotHeader));
  g_region.store(region, std::memory_order_release);
  g_enabled.store(region, std::memory_order_release);
}

void disarm_flight_recorder() {
  g_enabled.store(nullptr, std::memory_order_release);
}

bool flight_enabled() {
  return g_enabled.load(std::memory_order_relaxed) != nullptr;
}

void freeze_flight_recorder() {
  // Async-signal-safe: one store.  Writers racing this store may complete
  // one more record each; the decoder's torn-record filter covers the rest.
  g_enabled.store(nullptr, std::memory_order_relaxed);
}

void flight_record_crash_marker(int signo, std::uint64_t fault_addr) {
  // Runs inside the fatal-signal handler.  The recorder is already frozen,
  // so nothing races the crashing thread's own slot; everything below is
  // plain loads/stores plus relaxed atomics on memory that cannot move.
  FlightRegion* region = g_region.load(std::memory_order_relaxed);
  if (region == nullptr) return;
  if (t_slot.region != region || t_slot.slot == nullptr) return;
  const std::uint64_t c = t_slot.slot->cursor.load(std::memory_order_relaxed);
  FlightRecord& r = t_slot.ring[c & t_slot.mask];
  r.ts_ns = telemetry_now_ns();
  r.thread = static_cast<std::uint16_t>(t_slot.slot->ordinal);
  r.event = static_cast<std::uint16_t>(FlightEventId::kCrashSignal);
  r.reserved = 0;
  r.a0 = static_cast<std::uint64_t>(signo);
  r.a1 = fault_addr;
  t_slot.slot->cursor.store(c + 1, std::memory_order_relaxed);
}

namespace detail {

void flight_record_impl(FlightEventId id, std::uint64_t a0, std::uint64_t a1) {
  FlightRegion* region = g_enabled.load(std::memory_order_acquire);
  if (region == nullptr) return;  // lost the race with disarm/freeze
  if (t_slot.region != region) {
    if (!claim_slot(region)) {
      region->header->dropped.fetch_add(1, std::memory_order_relaxed);
      return;
    }
  }
  if (t_slot.slot == nullptr) {
    region->header->dropped.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  const std::uint64_t c = t_slot.slot->cursor.load(std::memory_order_relaxed);
  FlightRecord& r = t_slot.ring[c & t_slot.mask];
  r.ts_ns = telemetry_now_ns();
  r.thread = static_cast<std::uint16_t>(t_slot.slot->ordinal);
  r.event = static_cast<std::uint16_t>(id);
  r.reserved = 0;
  r.a0 = a0;
  r.a1 = a1;
  // Publish: a reader that acquires cursor >= c+1 sees the record complete.
  t_slot.slot->cursor.store(c + 1, std::memory_order_release);
}

}  // namespace detail

FlightStats flight_stats() {
  FlightStats out;
  FlightRegion* region = g_region.load(std::memory_order_acquire);
  if (region == nullptr) return out;
  out.armed = g_enabled.load(std::memory_order_relaxed) != nullptr;
  const RegionHeader* h = region->header;
  out.dropped = static_cast<std::int64_t>(
      h->dropped.load(std::memory_order_relaxed));
  const std::uint32_t claimed =
      std::min(h->claimed.load(std::memory_order_relaxed), h->max_threads);
  out.threads = claimed;
  out.capacity_per_thread = h->events_per_thread;
  out.region_bytes = static_cast<std::int64_t>(region->bytes);
  for (std::uint32_t t = 0; t < claimed; ++t) {
    const std::uint64_t cursor =
        region->slot(t)->cursor.load(std::memory_order_acquire);
    out.recorded += static_cast<std::int64_t>(cursor);
    out.retained += static_cast<std::int64_t>(
        std::min<std::uint64_t>(cursor, h->events_per_thread));
  }
  return out;
}

bool dump_flight_rings(int fd) {
  // Async-signal-safe by construction: reads the region pointer (stable
  // once published) and loops write(2) over its bytes.  Torn in-flight
  // records are the decoder's problem, not ours — call
  // freeze_flight_recorder() first to bound them to one per thread.
  FlightRegion* region = g_region.load(std::memory_order_acquire);
  if (region == nullptr || fd < 0) return false;
  const char* p = region->block;
  std::size_t left = region->bytes;
  while (left > 0) {
    const ssize_t n = ::write(fd, p, left);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    p += n;
    left -= static_cast<std::size_t>(n);
  }
  return true;
}

DecodedFlightDump snapshot_flight_events() {
  FlightRegion* region = g_region.load(std::memory_order_acquire);
  ST_REQUIRE(region != nullptr, "flight recorder was never armed");
  return decode_region(region->header, region->slots, region->records,
                       /*live=*/true);
}

DecodedFlightDump decode_flight_dump(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  ST_REQUIRE(in.good(), "cannot open flight dump " + path);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  ST_REQUIRE(bytes.size() >= sizeof(RegionHeader),
             "flight dump truncated: " + path);
  const auto* h = reinterpret_cast<const RegionHeader*>(bytes.data());
  ST_REQUIRE(std::memcmp(h->magic, kMagic, sizeof(kMagic)) == 0,
               "not a flight dump (bad magic): " + path);
  ST_REQUIRE(h->record_size == sizeof(FlightRecord) &&
                   h->slot_header_size == sizeof(SlotHeader),
               "flight dump layout mismatch: " + path);
  ST_REQUIRE(h->events_per_thread >= 64 && h->max_threads >= 1 &&
                   (h->events_per_thread & (h->events_per_thread - 1)) == 0,
               "flight dump header corrupt: " + path);
  const std::size_t want =
      sizeof(RegionHeader) +
      static_cast<std::size_t>(h->max_threads) * sizeof(SlotHeader) +
      static_cast<std::size_t>(h->max_threads) * h->events_per_thread *
          sizeof(FlightRecord);
  ST_REQUIRE(bytes.size() >= want, "flight dump truncated: " + path);
  const auto* slots = reinterpret_cast<const SlotHeader*>(
      bytes.data() + sizeof(RegionHeader));
  const auto* records = reinterpret_cast<const FlightRecord*>(
      bytes.data() + sizeof(RegionHeader) +
      static_cast<std::size_t>(h->max_threads) * sizeof(SlotHeader));
  return decode_region(h, slots, records, /*live=*/false);
}

PostmortemTimeline parse_timeline_jsonl(const std::string& path) {
  std::ifstream in(path);
  ST_REQUIRE(in.good(), "cannot open timeline " + path);
  PostmortemTimeline out;
  std::string line;
  std::size_t lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    if (line.empty()) continue;
    const JsonValue v =
        JsonValue::parse(line, path + ":" + std::to_string(lineno));
    const std::string record = v.string_or("record", "");
    if (record == "crash") {
      out.has_crash = true;
      out.signal = static_cast<int>(v.number_or("signal", 0));
      out.signame = v.string_or("signame",
                                signal_name_or(out.signal, "unknown"));
      out.fingerprint = v.string_or("fingerprint", "");
      out.build = v.string_or("build", "");
      out.events = static_cast<std::int64_t>(v.number_or("events", 0));
      out.torn = static_cast<std::int64_t>(v.number_or("torn", 0));
      out.dropped = static_cast<std::int64_t>(v.number_or("dropped", 0));
      out.threads = static_cast<std::int64_t>(v.number_or("threads", 0));
    } else if (record == "event" || record == "span") {
      TimelineEntry e;
      e.kind = record;
      e.ts_ns = static_cast<std::uint64_t>(v.number_or("ts_ns", 0));
      e.thread = static_cast<int>(v.number_or("thread", 0));
      e.event = v.string_or("event", record);
      e.a0 = static_cast<std::uint64_t>(v.number_or("a0", 0));
      e.a1 = static_cast<std::uint64_t>(v.number_or("a1", 0));
      out.entries.push_back(std::move(e));
    }
    // Unknown record kinds are skipped so the format can grow.
  }
  return out;
}

}  // namespace spiketune::obs
