#include "trace.h"

#include <chrono>
#include <fstream>
#include <stdexcept>

namespace perfbench {

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::uint32_t Tracer::open(std::string_view name) {
  if (!enabled_) return 0;
  SpanRecord s;
  s.id = static_cast<std::uint32_t>(spans_.size() + 1);
  s.parent = open_.empty() ? 0 : open_.back();
  s.name = std::string(name);
  s.start_ns = now_ns();
  spans_.push_back(std::move(s));
  open_.push_back(spans_.back().id);
  return spans_.back().id;
}

void Tracer::close(std::uint32_t id) {
  if (id == 0) return;
  const std::int64_t t = now_ns();
  if (open_.empty() || open_.back() != id)
    throw std::logic_error("span closed out of order");
  open_.pop_back();
  spans_[id - 1].end_ns = t;
}

double Tracer::total_ms(std::string_view name) const {
  double ms = 0.0;
  for (const SpanRecord& s : spans_)
    if (s.name == name) ms += s.ms();
  return ms;
}

std::int64_t Tracer::count(std::string_view name) const {
  std::int64_t n = 0;
  for (const SpanRecord& s : spans_)
    if (s.name == name) ++n;
  return n;
}

double Tracer::self_of(const SpanRecord& s) const {
  double ms = s.ms();
  // Children are recorded after their parent, so only later ids qualify.
  for (std::size_t i = s.id; i < spans_.size(); ++i)
    if (spans_[i].parent == s.id) ms -= spans_[i].ms();
  return ms;
}

double Tracer::self_ms(std::string_view name) const {
  double ms = 0.0;
  for (const SpanRecord& s : spans_)
    if (s.name == name) ms += self_of(s);
  return ms;
}

double Tracer::module_self_ms(std::string_view module) const {
  const std::string prefix = std::string(module) + ".";
  double ms = 0.0;
  for (const SpanRecord& s : spans_)
    if (s.name.compare(0, prefix.size(), prefix) == 0) ms += self_of(s);
  return ms;
}

double Tracer::children_ms(std::string_view name) const {
  double ms = 0.0;
  for (const SpanRecord& s : spans_) {
    if (s.name != name) continue;
    for (std::size_t i = s.id; i < spans_.size(); ++i)
      if (spans_[i].parent == s.id) ms += spans_[i].ms();
  }
  return ms;
}

void Tracer::write_jsonl(const std::string& path) const {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write spans to " + path);
  for (const SpanRecord& s : spans_) {
    out << "{\"id\":" << s.id << ",\"parent\":" << s.parent << ",\"name\":\""
        << s.name << "\",\"start_ns\":" << s.start_ns
        << ",\"end_ns\":" << s.end_ns << "}\n";
  }
}

}  // namespace perfbench
