#include "exp/journal.h"

#include <fstream>
#include <limits>

#include "core/error.h"
#include "core/json.h"

namespace spiketune::exp {

namespace {

JournalEntry parse_entry(const std::string& line, const std::string& where) {
  const JsonValue v = JsonValue::parse(line, where);
  JournalEntry entry;
  entry.key = v.string_or("key", "");
  entry.status = v.string_or("status", "");
  entry.error = v.string_or("error", "");
  ST_REQUIRE(!entry.key.empty() && !entry.status.empty(),
             "journal line missing key/status in " + where);
  for (const ResultField& field : kResultFields) {
    const JsonValue* x = v.find(field.name);
    if (!x) continue;  // absent: the 0.0 default
    ST_REQUIRE(x->is_number() || x->is_null(),
               std::string("journal field '") + field.name +
                   "' is not a number in " + where);
    // JsonValue writes a non-finite value as null.
    entry.result.*field.member =
        x->is_null() ? std::numeric_limits<double>::quiet_NaN()
                     : x->as_number();
  }
  return entry;
}

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
    entries_.push_back(
        parse_entry(line, path_ + ":" + std::to_string(lineno)));
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
  JsonValue line = JsonValue::make_object();
  line.set("key", entry.key);
  line.set("status", entry.status);
  if (entry.status == "done") {
    for (const ResultField& field : kResultFields)
      line.set(field.name, entry.result.*field.member);
  } else {
    line.set("error", entry.error);
  }
  // The journal is the sweep's source of truth on restart, so each point
  // must be durable the moment it is recorded.
  append_jsonl_line(path_, line.dump());
  entries_.push_back(entry);
}

void SweepJournal::record_done(const std::string& key,
                               const ExperimentResult& result) {
  JournalEntry e;
  e.key = key;
  e.status = "done";
  e.result = result;
  e.result.mapping = {};  // the journal holds the scalars only
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
