#include "core/json.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "core/error.h"

namespace spiketune {

namespace {

void append_number(std::string& out, double v) {
  // Non-finite values are not representable in JSON; emit null so a record
  // containing a NaN metric stays parseable instead of corrupting the file.
  if (!std::isfinite(v)) {
    out += "null";
    return;
  }
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  out += buf;
}

class Parser {
 public:
  Parser(const std::string& text, const std::string& context)
      : s_(text), ctx_(context) {}

  JsonValue parse_document() {
    JsonValue v = parse_value(0);
    skip_ws();
    ST_REQUIRE(pos_ == s_.size(), "trailing characters in " + ctx_);
    return v;
  }

 private:
  static constexpr int kMaxDepth = 64;

  [[noreturn]] void fail(const std::string& what) const {
    throw InvalidArgument(what + " in " + ctx_ + " at byte " +
                          std::to_string(pos_));
  }

  char peek() {
    if (pos_ >= s_.size()) fail("truncated JSON");
    return s_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  void skip_ws() {
    while (pos_ < s_.size() &&
           (s_[pos_] == ' ' || s_[pos_] == '\t' || s_[pos_] == '\n' ||
            s_[pos_] == '\r'))
      ++pos_;
  }

  bool consume_literal(const char* lit) {
    std::size_t n = 0;
    while (lit[n]) ++n;
    if (s_.compare(pos_, n, lit) != 0) return false;
    pos_ += n;
    return true;
  }

  JsonValue parse_value(int depth) {
    if (depth > kMaxDepth) fail("JSON nested too deeply");
    skip_ws();
    const char c = peek();
    switch (c) {
      case '{': {
        ++pos_;
        JsonValue obj = JsonValue::make_object();
        skip_ws();
        if (peek() == '}') {
          ++pos_;
          return obj;
        }
        while (true) {
          skip_ws();
          std::string key = parse_string_body();
          skip_ws();
          expect(':');
          obj.as_object().emplace_back(std::move(key),
                                       parse_value(depth + 1));
          skip_ws();
          if (peek() == ',') {
            ++pos_;
            continue;
          }
          expect('}');
          return obj;
        }
      }
      case '[': {
        ++pos_;
        JsonValue arr = JsonValue::make_array();
        skip_ws();
        if (peek() == ']') {
          ++pos_;
          return arr;
        }
        while (true) {
          arr.push_back(parse_value(depth + 1));
          skip_ws();
          if (peek() == ',') {
            ++pos_;
            continue;
          }
          expect(']');
          return arr;
        }
      }
      case '"':
        return JsonValue(parse_string_body());
      case 't':
        if (consume_literal("true")) return JsonValue(true);
        fail("bad literal");
      case 'f':
        if (consume_literal("false")) return JsonValue(false);
        fail("bad literal");
      case 'n':
        if (consume_literal("null")) return JsonValue();
        fail("bad literal");
      default:
        return JsonValue(parse_number());
    }
  }

  bool next_is(char c) const { return pos_ < s_.size() && s_[pos_] == c; }

  bool next_is_digit() const {
    return pos_ < s_.size() && s_[pos_] >= '0' && s_[pos_] <= '9';
  }

  // RFC 8259: -? (0 | [1-9][0-9]*) (.[0-9]+)? ([eE][+-]?[0-9]+)?.  The span
  // is checked before strtod reads it, because strtod alone also takes inf,
  // nan, hex, a leading '+' or '.' and a trailing '.'.
  double parse_number() {
    const std::size_t begin = pos_;
    auto digits = [this] {
      if (!next_is_digit()) fail("expected a JSON value");
      while (next_is_digit()) ++pos_;
    };
    if (next_is('-')) ++pos_;
    if (next_is('0')) {
      ++pos_;
    } else {
      digits();
    }
    if (next_is('.')) {
      ++pos_;
      digits();
    }
    if (next_is('e') || next_is('E')) {
      ++pos_;
      if (next_is('+') || next_is('-')) ++pos_;
      digits();
    }
    char* end = nullptr;
    const double v = std::strtod(s_.c_str() + begin, &end);
    if (end != s_.c_str() + pos_) fail("malformed JSON number");
    return v;
  }

  std::string parse_string_body() {
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
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          if (pos_ + 4 > s_.size()) fail("truncated \\u escape");
          unsigned long code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = s_[pos_ + static_cast<std::size_t>(i)];
            code <<= 4;
            if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f')
              code |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F')
              code |= static_cast<unsigned>(h - 'A' + 10);
            else
              fail("bad \\u escape");
          }
          pos_ += 4;
          // UTF-8 encode the BMP code point (surrogate pairs are not
          // emitted by our writers; a lone surrogate encodes as-is).
          if (code < 0x80) {
            out += static_cast<char>(code);
          } else if (code < 0x800) {
            out += static_cast<char>(0xC0 | (code >> 6));
            out += static_cast<char>(0x80 | (code & 0x3F));
          } else {
            out += static_cast<char>(0xE0 | (code >> 12));
            out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
            out += static_cast<char>(0x80 | (code & 0x3F));
          }
          break;
        }
        default:
          fail("bad escape");
      }
    }
  }

  const std::string& s_;
  const std::string ctx_;
  std::size_t pos_ = 0;
};

}  // namespace

std::string json_quote(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  out += '"';
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
  return out;
}

bool JsonValue::as_bool() const {
  ST_REQUIRE(type_ == Type::kBool, "JSON value is not a bool");
  return bool_;
}

double JsonValue::as_number() const {
  ST_REQUIRE(type_ == Type::kNumber, "JSON value is not a number");
  return num_;
}

const std::string& JsonValue::as_string() const {
  ST_REQUIRE(type_ == Type::kString, "JSON value is not a string");
  return str_;
}

const JsonValue::Array& JsonValue::as_array() const {
  ST_REQUIRE(type_ == Type::kArray, "JSON value is not an array");
  return arr_;
}

const JsonValue::Object& JsonValue::as_object() const {
  ST_REQUIRE(type_ == Type::kObject, "JSON value is not an object");
  return obj_;
}

JsonValue::Array& JsonValue::as_array() {
  ST_REQUIRE(type_ == Type::kArray, "JSON value is not an array");
  return arr_;
}

JsonValue::Object& JsonValue::as_object() {
  ST_REQUIRE(type_ == Type::kObject, "JSON value is not an object");
  return obj_;
}

const JsonValue* JsonValue::find(const std::string& key) const {
  if (type_ != Type::kObject) return nullptr;
  for (const auto& [k, v] : obj_)
    if (k == key) return &v;
  return nullptr;
}

double JsonValue::number_or(const std::string& key, double fallback) const {
  const JsonValue* v = find(key);
  return v && v->is_number() ? v->num_ : fallback;
}

std::string JsonValue::string_or(const std::string& key,
                                 const std::string& fallback) const {
  const JsonValue* v = find(key);
  return v && v->is_string() ? v->str_ : fallback;
}

void JsonValue::push_back(JsonValue v) {
  ST_REQUIRE(type_ == Type::kArray, "push_back on a non-array JSON value");
  arr_.push_back(std::move(v));
}

void JsonValue::set(const std::string& key, JsonValue v) {
  ST_REQUIRE(type_ == Type::kObject, "set on a non-object JSON value");
  for (auto& [k, existing] : obj_) {
    if (k == key) {
      existing = std::move(v);
      return;
    }
  }
  obj_.emplace_back(key, std::move(v));
}

std::string JsonValue::dump() const {
  std::string out;
  switch (type_) {
    case Type::kNull:
      out = "null";
      break;
    case Type::kBool:
      out = bool_ ? "true" : "false";
      break;
    case Type::kNumber:
      append_number(out, num_);
      break;
    case Type::kString:
      out = json_quote(str_);
      break;
    case Type::kArray: {
      out += '[';
      for (std::size_t i = 0; i < arr_.size(); ++i) {
        if (i) out += ',';
        out += arr_[i].dump();
      }
      out += ']';
      break;
    }
    case Type::kObject: {
      out += '{';
      for (std::size_t i = 0; i < obj_.size(); ++i) {
        if (i) out += ',';
        out += json_quote(obj_[i].first);
        out += ':';
        out += obj_[i].second.dump();
      }
      out += '}';
      break;
    }
  }
  return out;
}

JsonValue JsonValue::parse(const std::string& text,
                           const std::string& context) {
  return Parser(text, context).parse_document();
}

void append_jsonl_line(const std::string& path, const std::string& line) {
  const std::string text = line + "\n";
  const int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
  ST_REQUIRE(fd >= 0, "cannot open " + path + " for append (" +
                          std::strerror(errno) + ")");
  auto fail = [&](const std::string& what) {
    const std::string err = std::strerror(errno);
    ::close(fd);
    throw Error(what + " failed: " + path + " (" + err + ")");
  };
  std::size_t written = 0;
  while (written < text.size()) {
    const ::ssize_t n =
        ::write(fd, text.data() + written, text.size() - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      fail("append");
    }
    written += static_cast<std::size_t>(n);
  }
  if (::fsync(fd) != 0) fail("fsync");
  ::close(fd);
}

}  // namespace spiketune
