// In-memory spans recorded around calls into the library's public API.
//
// The benchmark times each layer from the outside: a Span wraps one public
// call (DataLoader::next, SpikingNetwork::backward, ...) and is recorded
// with its parent, the innermost span open when it started.  Spans stay in
// memory and are written out once, when the run ends.  A disabled tracer
// records nothing, so the untraced run pays one branch per span.
//
// Spans are opened and closed on the benchmark's main thread only; a span
// must close before its parent does.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

/// Monotonic clock in nanoseconds (std::chrono::steady_clock).
std::int64_t now_ns();

/// Calls `fn` until at least 3 calls and 30 ms have passed; returns the
/// mean nanoseconds per call.  For probes of calls too short to time once.
template <typename Fn>
double ns_per_call(Fn&& fn) {
  std::int64_t calls = 0;
  const std::int64_t t0 = now_ns();
  std::int64_t t1 = t0;
  while (calls < 3 || t1 - t0 < 30'000'000) {
    fn();
    ++calls;
    t1 = now_ns();
  }
  return static_cast<double>(t1 - t0) / static_cast<double>(calls);
}

struct SpanRecord {
  std::uint32_t id = 0;      // 1-based; 0 means "no span"
  std::uint32_t parent = 0;  // 0 for a root span
  std::string name;          // "<module>.<call>", e.g. "snn.backward"
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  double ms() const { return static_cast<double>(end_ns - start_ns) * 1e-6; }
};

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }
  /// Opens a span under the innermost open one; returns 0 when disabled.
  std::uint32_t open(std::string_view name);
  void close(std::uint32_t id);

  const std::vector<SpanRecord>& spans() const { return spans_; }
  /// Summed duration and count of the closed spans called `name`.
  double total_ms(std::string_view name) const;
  std::int64_t count(std::string_view name) const;
  /// A span's self time is its duration minus its children's durations.
  /// self_ms sums it over the spans called `name`; module_self_ms over
  /// every span whose name starts with "<module>.".
  double self_ms(std::string_view name) const;
  double module_self_ms(std::string_view module) const;
  /// Summed duration of the direct children of every span called `name`.
  double children_ms(std::string_view name) const;

  /// One JSON object per span: id, parent, name, start_ns, end_ns.
  void write_jsonl(const std::string& path) const;

 private:
  double self_of(const SpanRecord& s) const;

  bool enabled_;
  std::vector<SpanRecord> spans_;
  std::vector<std::uint32_t> open_;  // stack of open span ids
};

/// Scoped span: opens on construction, closes on destruction.
class Span {
 public:
  Span(Tracer& tracer, std::string_view name)
      : tracer_(tracer), id_(tracer.open(name)) {}
  ~Span() { tracer_.close(id_); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer& tracer_;
  std::uint32_t id_;
};

}  // namespace perfbench
