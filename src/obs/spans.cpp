#include "obs/spans.h"

#include <fstream>
#include <sstream>

#include "core/error.h"
#include "core/json.h"

namespace spiketune::obs {

SpanRecorder::SpanRecorder(std::size_t capacity, std::uint64_t sample_every)
    : capacity_(capacity), sample_every_(sample_every) {
  ST_REQUIRE(capacity_ > 0, "span recorder capacity must be positive");
  ring_.reserve(capacity_);
}

void SpanRecorder::record(const RequestSpan& span) {
  recorded_.fetch_add(1, std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(mu_);
  if (ring_.size() < capacity_) {
    ring_.push_back(span);
  } else {
    ring_[next_] = span;
    next_ = (next_ + 1) % capacity_;
  }
}

std::vector<RequestSpan> SpanRecorder::snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<RequestSpan> out;
  out.reserve(ring_.size());
  // Oldest first: once wrapped, `next_` points at the oldest slot.
  for (std::size_t i = 0; i < ring_.size(); ++i)
    out.push_back(ring_[(next_ + i) % ring_.size()]);
  return out;
}

std::string SpanRecorder::dump_jsonl() const {
  const std::vector<RequestSpan> spans = snapshot();
  std::string out;
  for (const RequestSpan& s : spans) {
    JsonValue o = JsonValue::make_object();
    o.set("server_id", JsonValue(static_cast<std::int64_t>(s.server_id)));
    o.set("client_id", JsonValue(static_cast<std::int64_t>(s.client_id)));
    o.set("num_steps", JsonValue(s.num_steps));
    o.set("batch", JsonValue(s.batch));
    for (const SpanStamp& st : kSpanStamps)
      o.set(st.key, JsonValue(static_cast<std::int64_t>(s.*st.field)));
    o.set("sparse_kernel_ns",
          JsonValue(static_cast<std::int64_t>(s.sparse_kernel_ns)));
    o.set("dense_kernel_ns",
          JsonValue(static_cast<std::int64_t>(s.dense_kernel_ns)));
    o.set("ok", JsonValue(s.ok));
    out += o.dump();
    out += "\n";
  }
  return out;
}

void SpanRecorder::write_jsonl(const std::string& path) const {
  std::ofstream out(path, std::ios::app);
  ST_REQUIRE(out.good(), "cannot open span log: " + path);
  out << dump_jsonl();
  out.flush();
  ST_REQUIRE(out.good(), "failed writing span log: " + path);
}

std::vector<RequestSpan> parse_span_jsonl(const std::string& path) {
  std::ifstream in(path);
  ST_REQUIRE(in.good(), "cannot open span log: " + path);
  std::vector<RequestSpan> out;
  std::string line;
  int lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    if (line.empty()) continue;
    const std::string where = path + ":" + std::to_string(lineno);
    const JsonValue o = JsonValue::parse(line, where);
    // The file is outside input: range-check before the integer cast.
    const auto u64 = [&](const char* key, double fallback) {
      const double v = o.number_or(key, fallback);
      ST_REQUIRE(v >= 0.0 && v < 0x1p64, where + ": " + key + " out of range");
      return static_cast<std::uint64_t>(v);
    };
    RequestSpan s;
    s.server_id = u64("server_id", 0);
    s.client_id = u64("client_id", 0);
    s.num_steps = static_cast<int>(o.number_or("num_steps", 0));
    s.batch = static_cast<int>(o.number_or("batch", 0));
    std::uint64_t prev = 0;
    for (const SpanStamp& st : kSpanStamps)
      prev = s.*st.field = u64(st.key, static_cast<double>(prev));
    s.sparse_kernel_ns = u64("sparse_kernel_ns", 0);
    s.dense_kernel_ns = u64("dense_kernel_ns", 0);
    if (const JsonValue* ok = o.find("ok")) s.ok = ok->as_bool();
    out.push_back(s);
  }
  return out;
}

}  // namespace spiketune::obs
