// Append-only JSONL journal for long hyperparameter sweeps.
//
// Each sweep point writes one line as it finishes — `{"key":...,
// "status":"done", ...result fields...}` on success or `{"key":...,
// "status":"failed", "error":...}` when run_experiment throws.  The result
// fields are the rows of SPIKETUNE_RESULT_FIELDS (exp/experiment.h), keyed
// by field name in table order; lines are written and read through
// core/json, so a non-finite value is written as `null` and read back as
// NaN.  Lines are flushed and fsynced per append, so a crash anywhere in a
// 25-point sweep loses at most the point that was mid-training; on restart
// completed points are restored from the journal and skipped instead of
// retrained.  Failed points are re-attempted (their last entry wins, so a
// later success supersedes the failure).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "exp/experiment.h"

namespace spiketune::exp {

struct JournalEntry {
  std::string key;     // human-readable point label (unique per sweep point)
  std::string status;  // "done" | "failed"
  std::string error;   // populated when status == "failed"
  /// The table's scalar fields (absent ones read 0.0); `mapping` is left
  /// default-constructed.
  ExperimentResult result;
};

class SweepJournal {
 public:
  /// Disabled journal: enabled() == false, record/find are no-ops.
  SweepJournal() = default;

  /// Opens (and replays) the journal at `path`, creating it on first write.
  /// Throws InvalidArgument naming `path:line` if an existing file has a
  /// malformed line (a torn final line included).  Unknown fields are
  /// ignored.
  explicit SweepJournal(std::string path);

  bool enabled() const { return !path_.empty(); }
  const std::string& path() const { return path_; }
  std::size_t size() const { return entries_.size(); }

  /// Latest entry recorded for `key`, or nullptr.
  const JournalEntry* find(const std::string& key) const;

  /// Appends a "done" line carrying the result's scalar fields.
  void record_done(const std::string& key, const ExperimentResult& result);

  /// Appends a "failed" line with the error text.
  void record_failed(const std::string& key, const std::string& error);

 private:
  void append(const JournalEntry& entry);

  std::string path_;
  std::vector<JournalEntry> entries_;
};

}  // namespace spiketune::exp
