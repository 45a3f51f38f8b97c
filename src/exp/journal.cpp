#include "exp/journal.h"

#include <fcntl.h>
#include <unistd.h>

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>

#include "core/error.h"
#include "core/json.h"

namespace spiketune::exp {

namespace {

std::string json_number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

// Minimal parser for the flat JSON objects this journal writes: string and
// number values only.  Strict enough to reject a torn final line.
class FlatJsonParser {
 public:
  FlatJsonParser(const std::string& line, const std::string& context)
      : s_(line), ctx_(context) {}

  JournalEntry parse() {
    JournalEntry entry;
    skip_ws();
    expect('{');
    skip_ws();
    if (peek() != '}') {
      while (true) {
        const std::string key = parse_string();
        skip_ws();
        expect(':');
        skip_ws();
        if (peek() == '"') {
          const std::string value = parse_string();
          if (key == "key") entry.key = value;
          else if (key == "status") entry.status = value;
          else if (key == "error") entry.error = value;
          // Unknown string fields are ignored (forward compatibility).
        } else {
          entry.values[key] = parse_number();
        }
        skip_ws();
        if (peek() == ',') {
          ++pos_;
          skip_ws();
          continue;
        }
        break;
      }
    }
    expect('}');
    skip_ws();
    ST_REQUIRE(pos_ == s_.size(), "trailing characters in " + ctx_);
    ST_REQUIRE(!entry.key.empty() && !entry.status.empty(),
               "journal line missing key/status in " + ctx_);
    return entry;
  }

 private:
  char peek() const {
    ST_REQUIRE(pos_ < s_.size(), "truncated journal line in " + ctx_);
    return s_[pos_];
  }

  void expect(char c) {
    ST_REQUIRE(peek() == c, std::string("expected '") + c + "' in " + ctx_);
    ++pos_;
  }

  void skip_ws() {
    while (pos_ < s_.size() &&
           std::isspace(static_cast<unsigned char>(s_[pos_])))
      ++pos_;
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      const char c = peek();
      ++pos_;
      if (c == '"') return out;
      if (c != '\\') {
        out += c;
        continue;
      }
      const char esc = peek();
      ++pos_;
      switch (esc) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          ST_REQUIRE(pos_ + 4 <= s_.size(),
                     "truncated \\u escape in " + ctx_);
          const unsigned long code =
              std::strtoul(s_.substr(pos_, 4).c_str(), nullptr, 16);
          pos_ += 4;
          // This journal only emits \u for ASCII control characters.
          out += static_cast<char>(code & 0x7F);
          break;
        }
        default:
          throw InvalidArgument("bad escape in " + ctx_);
      }
    }
  }

  double parse_number() {
    const char* begin = s_.c_str() + pos_;
    char* end = nullptr;
    const double v = std::strtod(begin, &end);
    ST_REQUIRE(end != begin, "expected a number in " + ctx_);
    pos_ += static_cast<std::size_t>(end - begin);
    return v;
  }

  const std::string& s_;
  const std::string ctx_;
  std::size_t pos_ = 0;
};

}  // namespace

SweepJournal::SweepJournal(std::string path) : path_(std::move(path)) {
  ST_REQUIRE(!path_.empty(), "journal path must not be empty");
  std::ifstream in(path_);
  if (!in.good()) return;  // first run: file created on first append
  std::string line;
  std::size_t lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    if (line.empty()) continue;
    std::ostringstream ctx;
    ctx << path_ << ":" << lineno;
    entries_.push_back(FlatJsonParser(line, ctx.str()).parse());
  }
}

const JournalEntry* SweepJournal::find(const std::string& key) const {
  const JournalEntry* found = nullptr;
  for (const auto& e : entries_)
    if (e.key == key) found = &e;  // last entry for the key wins
  return found;
}

void SweepJournal::append(const JournalEntry& entry) {
  if (!enabled()) return;
  std::ostringstream line;
  line << "{\"key\":" << json_quote(entry.key)
       << ",\"status\":" << json_quote(entry.status);
  if (!entry.error.empty()) line << ",\"error\":" << json_quote(entry.error);
  for (const auto& [k, v] : entry.values)
    line << "," << json_quote(k) << ":" << json_number(v);
  line << "}\n";
  const std::string text = line.str();

  // Append + fsync: the journal is the sweep's source of truth on restart,
  // so each point must be durable the moment it is recorded.
  const int fd =
      ::open(path_.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
  ST_REQUIRE(fd >= 0, "cannot open sweep journal for append: " + path_);
  std::size_t written = 0;
  while (written < text.size()) {
    const ::ssize_t n =
        ::write(fd, text.data() + written, text.size() - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      ::close(fd);
      throw Error("sweep journal write failed: " + path_);
    }
    written += static_cast<std::size_t>(n);
  }
  ::fsync(fd);
  ::close(fd);
  entries_.push_back(entry);
}

std::map<std::string, double> SweepJournal::result_values(
    const ExperimentResult& result) {
  return {
      {"accuracy", result.accuracy},
      {"loss", result.loss},
      {"firing_rate", result.firing_rate},
      {"sparsity", result.sparsity},
      {"latency_us", result.latency_us},
      {"throughput_fps", result.throughput_fps},
      {"watts", result.watts},
      {"fps_per_watt", result.fps_per_watt},
      {"final_train_accuracy", result.final_train_accuracy},
      {"train_seconds", result.train_seconds},
  };
}

ExperimentResult SweepJournal::to_result(const JournalEntry& entry) {
  ExperimentResult r;
  auto get = [&entry](const char* k) {
    const auto it = entry.values.find(k);
    return it == entry.values.end() ? 0.0 : it->second;
  };
  r.accuracy = get("accuracy");
  r.loss = get("loss");
  r.firing_rate = get("firing_rate");
  r.sparsity = get("sparsity");
  r.latency_us = get("latency_us");
  r.throughput_fps = get("throughput_fps");
  r.watts = get("watts");
  r.fps_per_watt = get("fps_per_watt");
  r.final_train_accuracy = get("final_train_accuracy");
  r.train_seconds = get("train_seconds");
  return r;
}

void SweepJournal::record_done(const std::string& key,
                               const ExperimentResult& result) {
  JournalEntry e;
  e.key = key;
  e.status = "done";
  e.values = result_values(result);
  append(e);
}

void SweepJournal::record_failed(const std::string& key,
                                 const std::string& error) {
  JournalEntry e;
  e.key = key;
  e.status = "failed";
  e.error = error;
  append(e);
}

}  // namespace spiketune::exp
