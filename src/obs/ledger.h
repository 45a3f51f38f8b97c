// Experiment run ledger: one self-describing JSONL stream per training run.
//
// The paper's causal chain — surrogate/beta/theta hyperparameters -> trained
// spike sparsity -> accelerator latency and FPS/W — is only observable
// end-of-run in the base pipeline.  The ledger makes the *trajectory*
// durable: a `manifest` record (config fingerprint, seed, build, argv)
// followed by one `epoch` record per epoch carrying training metrics,
// per-layer spike densities, and live hardware projections, interleaved
// `warning` records from the spike-health monitor, and a `final` record
// mirroring the end-of-run numbers.  Each record is one JSON line, appended
// with write+fsync like the sweep journal, so a killed run leaves a partial
// but parseable ledger instead of nothing.
//
// Schema (stable; version bumps on breaking changes — see DESIGN.md §9):
//   {"record":"manifest","schema":1,"run_id":...,"fingerprint":"0x..",
//    "seed":"0x..","threads":N,"argv":...,"build":...,
//    "resumed_from":E?,"info":{...strings},"params":{...numbers}}
//   {"record":"epoch","epoch":E,"train_loss":..,"train_accuracy":..,
//    "lr":..,"grad_norm_mean":..,"grad_norm_max":..,"firing_rate":..,
//    "layers":[{"index":i,"name":..,"spiking":..,"in_density":..,
//               "out_density":..}],
//    "hw":{"stage_cycles":..,"latency_us":..,"throughput_fps":..,
//          "watts":..,"fps_per_watt":..,"total_pes":..}}
//   {"record":"warning","epoch":E,"detector":..,"layer":..,"value":..,
//    "threshold":..,"message":..}
//   {"record":"final",...scalar result fields...}
//
// This layer is deliberately generic (strings + doubles): the trainer and
// experiment pipeline populate it, and obs/ stays free of snn/hw types.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace spiketune::obs {

/// Run identity and provenance, written once at the head of the stream (and
/// again, with `resumed_from` set, each time a run resumes into the file).
struct LedgerManifest {
  std::string run_id;
  std::uint64_t config_fingerprint = 0;  // serialized as a hex string
  std::uint64_t seed = 0;                // serialized as a hex string
  int threads = 0;
  std::string argv;   // the driver's command line, verbatim ("" if unknown)
  std::string build;  // compiler/platform stamp
  /// Epoch the resumed run continues from; < 0 marks a fresh run.
  std::int64_t resumed_from = -1;
  /// Free-form string facts (dataset, encoder, loss, device, profile, ...).
  std::vector<std::pair<std::string, std::string>> info;
  /// Numeric hyperparameters (epochs, num_steps, beta, theta, ...).
  std::vector<std::pair<std::string, double>> params;
};

/// One layer's spike densities for one epoch's probe window.
struct LedgerLayerStat {
  std::int64_t index = 0;
  std::string name;
  bool spiking = false;
  double in_density = 0.0;   // fraction of nonzero inputs
  double out_density = 0.0;  // output firing rate (spikes/neuron/step)
};

/// One epoch's training metrics + sparsity + hardware projection.
struct LedgerEpoch {
  std::int64_t epoch = 0;
  double train_loss = 0.0;
  double train_accuracy = 0.0;
  double lr = 0.0;
  double grad_norm_mean = 0.0;
  double grad_norm_max = 0.0;
  /// Mean firing rate over spiking layers for this epoch's probe window.
  double firing_rate = 0.0;
  std::vector<LedgerLayerStat> layers;
  /// Projected hardware metrics (empty when projection was not run).
  std::vector<std::pair<std::string, double>> hw;
};

/// A spike-health detector firing (see obs/spike_health.h).
struct LedgerWarning {
  std::int64_t epoch = 0;
  std::string detector;  // "dead_layer" | "saturated_layer" | "collapse"
  std::string layer;     // "" for network-wide detectors
  double value = 0.0;
  double threshold = 0.0;
  std::string message;
};

/// End-of-run scalars, in the order they are written.  Each driver fills
/// its own; exp::run_experiment writes the rows of SPIKETUNE_RESULT_FIELDS
/// (exp/experiment.h), the same fields a sweep-journal line carries.
struct LedgerFinal {
  std::vector<std::pair<std::string, double>> values;
  /// How the run ended: "clean" (normal exit), "drain" (signal-requested
  /// cooperative shutdown), or "crash" (post-mortem record appended by
  /// spiketune_flightdump from a crash bundle).
  std::string exit_kind = "clean";
};

/// Append-only JSONL writer for one run.  Every record is flushed and
/// fsynced on write, so the ledger survives kills mid-run.
class RunLedger {
 public:
  static constexpr int kSchemaVersion = 1;

  /// Disabled ledger: enabled() == false, writes are no-ops.
  RunLedger() = default;

  /// Opens `path` for writing.  `append` keeps existing records (resume);
  /// otherwise the file is truncated.  Parent directories must exist.
  explicit RunLedger(std::string path, bool append = false);

  bool enabled() const { return !path_.empty(); }
  const std::string& path() const { return path_; }

  void write_manifest(const LedgerManifest& manifest);
  void write_epoch(const LedgerEpoch& epoch);
  void write_warning(const LedgerWarning& warning);
  void write_final(const LedgerFinal& final_record);

 private:
  std::string path_;
};

/// In-memory view of a parsed ledger stream.
struct ParsedLedger {
  std::string path;
  LedgerManifest manifest;  // the first manifest record
  std::int64_t manifest_count = 0;  // > 1 means the run was resumed
  std::vector<LedgerEpoch> epochs;
  std::vector<LedgerWarning> warnings;
  LedgerFinal final_record;
  bool has_final = false;
};

/// Parses a ledger written by RunLedger.  Throws InvalidArgument on
/// malformed lines or a missing/late manifest.
ParsedLedger parse_ledger(const std::string& path);

/// Parses every `*.jsonl` file in `dir`, sorted by filename — e.g. a sweep
/// ledger directory with one run per point.  Throws if none are found.
std::vector<ParsedLedger> parse_ledger_dir(const std::string& dir);

}  // namespace spiketune::obs
