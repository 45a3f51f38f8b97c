// Minimal JSON value: build, serialize, parse.
//
// The shared JSON layer of the run ledger (obs/ledger.h), the sweep
// journal (exp/journal.h) and the span log (obs/spans.h).  An
// ordered-object value type (insertion order is preserved so written
// records keep a stable, diff-friendly field order), a compact single-line
// serializer suitable for JSONL, and a strict recursive parser that
// rejects torn or trailing input.  Numbers are IEEE doubles written with
// %.17g, so every finite double round-trips bit for bit; a non-finite
// number is written as null.  Exact 64-bit identities (fingerprints,
// seeds) are carried as hex strings by convention.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace spiketune {

class JsonValue {
 public:
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };
  using Array = std::vector<JsonValue>;
  /// Insertion-ordered key/value pairs (objects here are small; lookup is a
  /// linear scan and serialization preserves the order fields were added).
  using Object = std::vector<std::pair<std::string, JsonValue>>;

  JsonValue() : type_(Type::kNull) {}
  JsonValue(bool b) : type_(Type::kBool), bool_(b) {}
  JsonValue(double v) : type_(Type::kNumber), num_(v) {}
  JsonValue(int v) : type_(Type::kNumber), num_(v) {}
  JsonValue(std::int64_t v)
      : type_(Type::kNumber), num_(static_cast<double>(v)) {}
  JsonValue(const char* s) : type_(Type::kString), str_(s) {}
  JsonValue(std::string s) : type_(Type::kString), str_(std::move(s)) {}

  static JsonValue make_array() { return JsonValue(Type::kArray); }
  static JsonValue make_object() { return JsonValue(Type::kObject); }

  Type type() const { return type_; }
  bool is_null() const { return type_ == Type::kNull; }
  bool is_bool() const { return type_ == Type::kBool; }
  bool is_number() const { return type_ == Type::kNumber; }
  bool is_string() const { return type_ == Type::kString; }
  bool is_array() const { return type_ == Type::kArray; }
  bool is_object() const { return type_ == Type::kObject; }

  /// Typed accessors; throw InvalidArgument on a type mismatch.
  bool as_bool() const;
  double as_number() const;
  const std::string& as_string() const;
  const Array& as_array() const;
  const Object& as_object() const;
  Array& as_array();
  Object& as_object();

  /// Object field lookup: pointer to the value, or nullptr when absent (or
  /// when this value is not an object).
  const JsonValue* find(const std::string& key) const;
  /// Convenience getters with defaults for absent/mistyped fields.
  double number_or(const std::string& key, double fallback) const;
  std::string string_or(const std::string& key,
                        const std::string& fallback) const;

  /// Appends to an array value (throws unless is_array()).
  void push_back(JsonValue v);
  /// Sets (appends or overwrites) an object field (throws unless
  /// is_object()).
  void set(const std::string& key, JsonValue v);

  /// Compact single-line serialization (JSONL-friendly; no whitespace).
  std::string dump() const;

  /// Strict parse of exactly one JSON document; trailing non-whitespace,
  /// truncation, or malformed input throws InvalidArgument mentioning
  /// `context` (e.g. "ledger.jsonl:12").
  static JsonValue parse(const std::string& text,
                         const std::string& context = "json");

 private:
  explicit JsonValue(Type t) : type_(t) {}

  Type type_ = Type::kNull;
  bool bool_ = false;
  double num_ = 0.0;
  std::string str_;
  Array arr_;
  Object obj_;
};

/// Escapes `s` as a JSON string literal including the surrounding quotes.
std::string json_quote(const std::string& s);

/// Appends `line` plus a newline to the JSONL file at `path` (created when
/// absent) with one write loop and an fsync, so a kill at any instant loses
/// at most the record mid-write and never tears an earlier line.  Throws,
/// naming the file, when the open, a write or the fsync fails.
void append_jsonl_line(const std::string& path, const std::string& line);

}  // namespace spiketune
