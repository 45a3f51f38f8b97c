#include "obs/profiler.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>

#include "core/error.h"
#include "core/json.h"
#include "core/logging.h"
#include "core/table.h"
#include "obs/trace.h"

namespace spiketune::obs {

namespace {

// Per-thread trace cap: a trace hitting this is ~100 MB of JSON already.
constexpr std::size_t kMaxEventsPerThread = 1u << 20;

struct ProfNode {
  std::string name;
  std::uint32_t parent = 0;
  std::vector<std::uint32_t> children;
  std::int64_t calls = 0;
  std::uint64_t total_ns = 0;
  LogHistogram hist;
};

struct TraceEvent {
  const char* name;  // string literal or interned name; never owned
  std::uint64_t ts_ns;
  std::uint64_t dur_ns;  // 'X' events only
  char phase;            // 'X' complete, 'C' counter, 's'/'t'/'f' flow
  double value;          // 'C' events only
  std::uint64_t id;      // flow events only
};

/// Everything one thread's scopes leave behind: its call tree (node 0 is a
/// synthetic root), its Chrome-trace events, and its label.  Only the
/// owning thread appends; readers take the registry mutex at quiescent
/// points (profiler.h, trace.h).  The label alone is written under that
/// mutex, so a thread may label itself at any time.
struct ScopeRecord {
  std::vector<ProfNode> nodes;
  std::uint32_t current = 0;
  std::vector<TraceEvent> events;
  std::size_t dropped = 0;
  int tid = 0;
  std::string label;

  ScopeRecord() { clear_tree(); }
  void clear_tree() {
    nodes.clear();
    nodes.emplace_back();
    current = 0;
  }
  void clear_trace() {
    events.clear();
    dropped = 0;
  }
  /// A label alone is not worth keeping once the thread is gone.
  bool holds_data() const {
    return nodes.size() > 1 || !events.empty() || dropped;
  }
};

struct ScopeRegistry {
  std::mutex mu;
  std::vector<ScopeRecord*> live;
  std::vector<std::unique_ptr<ScopeRecord>> retired;
  std::atomic<std::uint64_t> trace_epoch_ns{0};
};

// Leaked: see obs/metrics.cpp.
ScopeRegistry& registry() {
  static auto* r = new ScopeRegistry();
  return *r;
}

/// Owns the calling thread's record; the registry holds its address.
struct RecordHandle {
  ScopeRecord record;
  RecordHandle(const RecordHandle&) = delete;
  RecordHandle& operator=(const RecordHandle&) = delete;
  RecordHandle() {
    record.tid = thread_ordinal();
    ScopeRegistry& r = registry();
    std::lock_guard<std::mutex> lock(r.mu);
    r.live.push_back(&record);
  }
  ~RecordHandle() {
    ScopeRegistry& r = registry();
    std::lock_guard<std::mutex> lock(r.mu);
    r.live.erase(std::find(r.live.begin(), r.live.end(), &record));
    if (record.holds_data())
      r.retired.push_back(std::make_unique<ScopeRecord>(std::move(record)));
  }
};

ScopeRecord& local_record() {
  thread_local RecordHandle handle;
  return handle.record;
}

/// Calls f on every record, live then retired, under the registry mutex.
template <class F>
void for_each_record(F&& f) {
  ScopeRegistry& r = registry();
  std::lock_guard<std::mutex> lock(r.mu);
  for (ScopeRecord* rec : r.live) f(*rec);
  for (const auto& rec : r.retired) f(*rec);
}

/// Applies `clear` to every record, then forgets exited threads' records
/// left with nothing in them.
template <class F>
void clear_records(F&& clear) {
  ScopeRegistry& r = registry();
  std::lock_guard<std::mutex> lock(r.mu);
  for (ScopeRecord* rec : r.live) clear(*rec);
  for (const auto& rec : r.retired) clear(*rec);
  std::erase_if(r.retired, [](const auto& rec) { return !rec->holds_data(); });
}

void prof_enter(ScopeRecord& rec, const char* name) {
  for (std::uint32_t child : rec.nodes[rec.current].children) {
    if (rec.nodes[child].name == name) {
      rec.current = child;
      return;
    }
  }
  const auto idx = static_cast<std::uint32_t>(rec.nodes.size());
  ProfNode node;
  node.name = name;
  node.parent = rec.current;
  rec.nodes.push_back(std::move(node));
  rec.nodes[rec.current].children.push_back(idx);
  rec.current = idx;
}

void prof_exit(ScopeRecord& rec, std::uint64_t dur_ns) {
  ProfNode& node = rec.nodes[rec.current];
  ++node.calls;
  node.total_ns += dur_ns;
  node.hist.record(static_cast<double>(dur_ns));
  rec.current = node.parent;
}

void append(ScopeRecord& rec, const TraceEvent& ev) {
  if (rec.events.size() >= kMaxEventsPerThread) {
    ++rec.dropped;
    return;
  }
  rec.events.push_back(ev);
}

/// Ends a scope opened with telemetry bits `mask`: one record lookup feeds
/// both the call tree and the trace.
void scope_exit(unsigned mask, const char* name, std::uint64_t t0_ns,
                std::uint64_t dur_ns) {
  if (!(mask & (kProfileBit | kTraceBit))) return;
  ScopeRecord& rec = local_record();
  if (mask & kProfileBit) prof_exit(rec, dur_ns);
  if (mask & kTraceBit)
    append(rec, TraceEvent{name, t0_ns, dur_ns, 'X', 0.0, 0});
}

/// Microseconds with sub-ns-safe fixed formatting (Chrome ts unit is us).
std::string us(std::uint64_t ns) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%llu.%03llu",
                static_cast<unsigned long long>(ns / 1000),
                static_cast<unsigned long long>(ns % 1000));
  return buf;
}

/// Path-merged view of all threads' trees.
struct MergedNode {
  std::int64_t calls = 0;
  std::uint64_t total_ns = 0;
  LogHistogram hist;
  std::map<std::string, MergedNode> children;
};

void merge_into(const ScopeRecord& tree, std::uint32_t idx, MergedNode& into) {
  const ProfNode& node = tree.nodes[idx];
  for (std::uint32_t child_idx : node.children) {
    const ProfNode& child = tree.nodes[child_idx];
    MergedNode& slot = into.children[child.name];
    slot.calls += child.calls;
    slot.total_ns += child.total_ns;
    slot.hist.merge(child.hist);
    merge_into(tree, child_idx, slot);
  }
}

void flatten(const MergedNode& node, int depth,
             std::vector<ProfileEntry>& out) {
  std::vector<const std::pair<const std::string, MergedNode>*> kids;
  for (const auto& kv : node.children) kids.push_back(&kv);
  std::sort(kids.begin(), kids.end(), [](const auto* a, const auto* b) {
    return a->second.total_ns > b->second.total_ns;
  });
  for (const auto* kv : kids) {
    const MergedNode& child = kv->second;
    std::uint64_t in_children = 0;
    for (const auto& gc : child.children) in_children += gc.second.total_ns;
    ProfileEntry e;
    e.name = kv->first;
    e.depth = depth;
    e.calls = child.calls;
    e.total_ns = child.total_ns;
    e.self_ns =
        child.total_ns > in_children ? child.total_ns - in_children : 0;
    e.hist = child.hist;
    out.push_back(std::move(e));
    flatten(child, depth + 1, out);
  }
}

}  // namespace

ScopedTimer::ScopedTimer(const char* name, MetricId duration_hist_ns) {
  unsigned want = kProfileBit | kTraceBit;
  if (duration_hist_ns != kNoMetric) want |= kMetricsBit;
  const unsigned mask = telemetry_mask() & want;
  if (!mask) return;  // disabled fast path: one relaxed load + branch
  name_ = name;
  mask_ = mask;
  hist_ = duration_hist_ns;
  t0_ = telemetry_now_ns();
  if (mask_ & kProfileBit) prof_enter(local_record(), name);
}

ScopedTimer::~ScopedTimer() {
  if (!name_) return;
  const std::uint64_t dur = telemetry_now_ns() - t0_;
  scope_exit(mask_, name_, t0_, dur);
  if (mask_ & kMetricsBit) observe(hist_, static_cast<double>(dur));
}

PhaseTimer::PhaseTimer(const char* name)
    : name_(name),
      t0_(telemetry_now_ns()),
      mask_(telemetry_mask() & (kProfileBit | kTraceBit)) {
  if (mask_ & kProfileBit) prof_enter(local_record(), name_);
}

double PhaseTimer::stop() {
  if (!stopped_) {
    elapsed_ns_ = telemetry_now_ns() - t0_;
    stopped_ = true;
    scope_exit(mask_, name_, t0_, elapsed_ns_);
  }
  return static_cast<double>(elapsed_ns_) * 1e-9;
}

double PhaseTimer::seconds() const {
  const std::uint64_t ns =
      stopped_ ? elapsed_ns_ : telemetry_now_ns() - t0_;
  return static_cast<double>(ns) * 1e-9;
}

PhaseTimer::~PhaseTimer() { stop(); }

std::vector<ProfileEntry> profile_entries() {
  MergedNode root;
  for_each_record([&](const ScopeRecord& rec) { merge_into(rec, 0, root); });
  std::vector<ProfileEntry> out;
  flatten(root, 0, out);
  return out;
}

std::string profile_report() {
  const auto entries = profile_entries();
  if (entries.empty()) return "";
  std::uint64_t top_total = 0;
  for (const ProfileEntry& e : entries)
    if (e.depth == 0) top_total += e.total_ns;
  AsciiTable table({"scope", "calls", "total ms", "self ms", "mean us",
                    "p95 us", "% top"});
  table.set_title("profile (merged over threads)");
  for (const ProfileEntry& e : entries) {
    std::string name;
    for (int i = 0; i < e.depth; ++i) name += "  ";
    name += e.name;
    const double total_ms = static_cast<double>(e.total_ns) * 1e-6;
    const double self_ms = static_cast<double>(e.self_ns) * 1e-6;
    const double mean_us = e.hist.mean_or(0.0) * 1e-3;
    const double p95_us = e.hist.quantile(0.95) * 1e-3;
    const double pct =
        top_total ? 100.0 * static_cast<double>(e.total_ns) /
                        static_cast<double>(top_total)
                  : 0.0;
    table.add_row({name, std::to_string(e.calls), fmt_f(total_ms, 3),
                   fmt_f(self_ms, 3), fmt_f(mean_us, 1), fmt_f(p95_us, 1),
                   fmt_f(pct, 1)});
  }
  return table.render();
}

void reset_profile() {
  clear_records([](ScopeRecord& rec) { rec.clear_tree(); });
}

void set_thread_label(const std::string& label) {
  ScopeRecord& rec = local_record();
  std::lock_guard<std::mutex> lock(registry().mu);
  rec.label = label;
}

// --- Chrome trace (obs/trace.h) ---------------------------------------------

void start_trace() {
  reset_trace();
  registry().trace_epoch_ns.store(telemetry_now_ns(),
                                  std::memory_order_relaxed);
  enable_telemetry(kTraceBit);
}

void stop_trace() { disable_telemetry(kTraceBit); }

void trace_counter(const char* name, double value) {
  if (!trace_enabled()) return;
  append(local_record(),
         TraceEvent{name, telemetry_now_ns(), 0, 'C', value, 0});
}

void trace_span(const char* name, std::uint64_t t0_ns,
                std::uint64_t dur_ns) {
  if (!trace_enabled()) return;
  append(local_record(), TraceEvent{name, t0_ns, dur_ns, 'X', 0.0, 0});
}

void trace_flow(const char* name, std::uint64_t flow_id, char phase) {
  trace_flow_at(name, flow_id, phase, telemetry_now_ns());
}

void trace_flow_at(const char* name, std::uint64_t flow_id, char phase,
                   std::uint64_t ts_ns) {
  if (!trace_enabled()) return;
  ST_REQUIRE(phase == 's' || phase == 't' || phase == 'f',
             "flow phase must be 's', 't', or 'f'");
  append(local_record(), TraceEvent{name, ts_ns, 0, phase, 0.0, flow_id});
}

std::size_t trace_event_count() {
  std::size_t n = 0;
  for_each_record([&](const ScopeRecord& rec) { n += rec.events.size(); });
  return n;
}

std::size_t trace_dropped_count() {
  std::size_t n = 0;
  for_each_record([&](const ScopeRecord& rec) { n += rec.dropped; });
  return n;
}

void write_trace_json(const std::string& path) {
  const std::uint64_t epoch =
      registry().trace_epoch_ns.load(std::memory_order_relaxed);
  std::ofstream out(path, std::ios::trunc);
  ST_REQUIRE(out.good(), "cannot open trace output: " + path);
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  std::size_t dropped = 0;
  for_each_record([&](const ScopeRecord& rec) {
    dropped += rec.dropped;
    if (rec.events.empty()) return;
    if (!first) out << ",";
    first = false;
    out << "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":"
        << rec.tid << ",\"args\":{\"name\":"
        << json_quote(rec.label.empty() ? "thread-" + std::to_string(rec.tid)
                                        : rec.label)
        << "}}";
    for (const TraceEvent& ev : rec.events) {
      const std::uint64_t rel = ev.ts_ns >= epoch ? ev.ts_ns - epoch : 0;
      out << ",{\"name\":" << json_quote(ev.name)
          << ",\"cat\":\"spiketune\",\"ph\":\"" << ev.phase
          << "\",\"pid\":1,\"tid\":" << rec.tid << ",\"ts\":" << us(rel);
      if (ev.phase == 'X') out << ",\"dur\":" << us(ev.dur_ns);
      if (ev.phase == 'C')
        out << ",\"args\":{\"value\":" << ev.value << "}";
      if (ev.phase == 's' || ev.phase == 't' || ev.phase == 'f') {
        out << ",\"id\":" << ev.id;
        // Bind the finish arrow to the enclosing slice's end, per the
        // trace-event spec, so the last hop renders at the right edge.
        if (ev.phase == 'f') out << ",\"bp\":\"e\"";
      }
      out << "}";
    }
  });
  out << "]}";
  out.flush();
  ST_REQUIRE(out.good(), "failed writing trace output: " + path);
  if (dropped)
    ST_LOG_WARN << "trace dropped " << dropped
                << " events (per-thread buffer cap)";
}

void reset_trace() {
  clear_records([](ScopeRecord& rec) { rec.clear_trace(); });
}

}  // namespace spiketune::obs
