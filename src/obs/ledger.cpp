#include "obs/ledger.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>

#include "core/error.h"
#include "core/json.h"

namespace spiketune::obs {

namespace {

std::string hex_u64(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "0x%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

std::uint64_t parse_hex_u64(const std::string& s) {
  return std::strtoull(s.c_str(), nullptr, 16);
}

JsonValue pairs_to_object(
    const std::vector<std::pair<std::string, double>>& pairs) {
  JsonValue obj = JsonValue::make_object();
  for (const auto& [k, v] : pairs) obj.set(k, JsonValue(v));
  return obj;
}

JsonValue pairs_to_object(
    const std::vector<std::pair<std::string, std::string>>& pairs) {
  JsonValue obj = JsonValue::make_object();
  for (const auto& [k, v] : pairs) obj.set(k, JsonValue(v));
  return obj;
}

std::vector<std::pair<std::string, double>> object_to_number_pairs(
    const JsonValue& obj) {
  std::vector<std::pair<std::string, double>> out;
  if (!obj.is_object()) return out;
  for (const auto& [k, v] : obj.as_object())
    if (v.is_number()) out.emplace_back(k, v.as_number());
  return out;
}

LedgerEpoch epoch_from_json(const JsonValue& v) {
  LedgerEpoch e;
  e.epoch = static_cast<std::int64_t>(v.number_or("epoch", 0));
  e.train_loss = v.number_or("train_loss", 0.0);
  e.train_accuracy = v.number_or("train_accuracy", 0.0);
  e.lr = v.number_or("lr", 0.0);
  e.grad_norm_mean = v.number_or("grad_norm_mean", 0.0);
  e.grad_norm_max = v.number_or("grad_norm_max", 0.0);
  e.firing_rate = v.number_or("firing_rate", 0.0);
  if (const JsonValue* layers = v.find("layers"); layers && layers->is_array()) {
    for (const JsonValue& lv : layers->as_array()) {
      LedgerLayerStat s;
      s.index = static_cast<std::int64_t>(lv.number_or("index", 0));
      s.name = lv.string_or("name", "");
      if (const JsonValue* sp = lv.find("spiking"); sp && sp->is_bool())
        s.spiking = sp->as_bool();
      s.in_density = lv.number_or("in_density", 0.0);
      s.out_density = lv.number_or("out_density", 0.0);
      e.layers.push_back(std::move(s));
    }
  }
  if (const JsonValue* hw = v.find("hw")) e.hw = object_to_number_pairs(*hw);
  return e;
}

LedgerManifest manifest_from_json(const JsonValue& v) {
  LedgerManifest m;
  m.run_id = v.string_or("run_id", "");
  m.config_fingerprint = parse_hex_u64(v.string_or("fingerprint", "0"));
  m.seed = parse_hex_u64(v.string_or("seed", "0"));
  m.threads = static_cast<int>(v.number_or("threads", 0));
  m.argv = v.string_or("argv", "");
  m.build = v.string_or("build", "");
  m.resumed_from =
      static_cast<std::int64_t>(v.number_or("resumed_from", -1.0));
  if (const JsonValue* info = v.find("info"); info && info->is_object())
    for (const auto& [k, val] : info->as_object())
      if (val.is_string()) m.info.emplace_back(k, val.as_string());
  if (const JsonValue* params = v.find("params"))
    m.params = object_to_number_pairs(*params);
  return m;
}

LedgerWarning warning_from_json(const JsonValue& v) {
  LedgerWarning w;
  w.epoch = static_cast<std::int64_t>(v.number_or("epoch", 0));
  w.detector = v.string_or("detector", "");
  w.layer = v.string_or("layer", "");
  w.value = v.number_or("value", 0.0);
  w.threshold = v.number_or("threshold", 0.0);
  w.message = v.string_or("message", "");
  return w;
}

}  // namespace

RunLedger::RunLedger(std::string path, bool append) : path_(std::move(path)) {
  ST_REQUIRE(!path_.empty(), "ledger path must not be empty");
  if (!append) {
    // Truncate (or create) so a restarted fresh run does not interleave
    // with a stale stream from a previous configuration.
    std::ofstream out(path_, std::ios::trunc);
    ST_REQUIRE(out.good(), "cannot open run ledger: " + path_);
  }
}

void RunLedger::write_manifest(const LedgerManifest& m) {
  if (!enabled()) return;
  JsonValue v = JsonValue::make_object();
  v.set("record", JsonValue("manifest"));
  v.set("schema", JsonValue(kSchemaVersion));
  v.set("run_id", JsonValue(m.run_id));
  v.set("fingerprint", JsonValue(hex_u64(m.config_fingerprint)));
  v.set("seed", JsonValue(hex_u64(m.seed)));
  v.set("threads", JsonValue(m.threads));
  if (!m.argv.empty()) v.set("argv", JsonValue(m.argv));
  if (!m.build.empty()) v.set("build", JsonValue(m.build));
  if (m.resumed_from >= 0) v.set("resumed_from", JsonValue(m.resumed_from));
  if (!m.info.empty()) v.set("info", pairs_to_object(m.info));
  if (!m.params.empty()) v.set("params", pairs_to_object(m.params));
  append_jsonl_line(path_, v.dump());
}

void RunLedger::write_epoch(const LedgerEpoch& e) {
  if (!enabled()) return;
  JsonValue v = JsonValue::make_object();
  v.set("record", JsonValue("epoch"));
  v.set("epoch", JsonValue(e.epoch));
  v.set("train_loss", JsonValue(e.train_loss));
  v.set("train_accuracy", JsonValue(e.train_accuracy));
  v.set("lr", JsonValue(e.lr));
  v.set("grad_norm_mean", JsonValue(e.grad_norm_mean));
  v.set("grad_norm_max", JsonValue(e.grad_norm_max));
  v.set("firing_rate", JsonValue(e.firing_rate));
  if (!e.layers.empty()) {
    JsonValue layers = JsonValue::make_array();
    for (const LedgerLayerStat& s : e.layers) {
      JsonValue lv = JsonValue::make_object();
      lv.set("index", JsonValue(s.index));
      lv.set("name", JsonValue(s.name));
      lv.set("spiking", JsonValue(s.spiking));
      lv.set("in_density", JsonValue(s.in_density));
      lv.set("out_density", JsonValue(s.out_density));
      layers.push_back(std::move(lv));
    }
    v.set("layers", std::move(layers));
  }
  if (!e.hw.empty()) v.set("hw", pairs_to_object(e.hw));
  append_jsonl_line(path_, v.dump());
}

void RunLedger::write_warning(const LedgerWarning& w) {
  if (!enabled()) return;
  JsonValue v = JsonValue::make_object();
  v.set("record", JsonValue("warning"));
  v.set("epoch", JsonValue(w.epoch));
  v.set("detector", JsonValue(w.detector));
  if (!w.layer.empty()) v.set("layer", JsonValue(w.layer));
  v.set("value", JsonValue(w.value));
  v.set("threshold", JsonValue(w.threshold));
  v.set("message", JsonValue(w.message));
  append_jsonl_line(path_, v.dump());
}

void RunLedger::write_final(const LedgerFinal& f) {
  if (!enabled()) return;
  JsonValue v = JsonValue::make_object();
  v.set("record", JsonValue("final"));
  v.set("exit_kind",
        JsonValue(f.exit_kind.empty() ? std::string("clean") : f.exit_kind));
  for (const auto& [k, val] : f.values) v.set(k, JsonValue(val));
  append_jsonl_line(path_, v.dump());
}

ParsedLedger parse_ledger(const std::string& path) {
  std::ifstream in(path);
  ST_REQUIRE(in.good(), "cannot open ledger: " + path);
  ParsedLedger out;
  out.path = path;
  std::string line;
  std::size_t lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    if (line.empty()) continue;
    const std::string ctx = path + ":" + std::to_string(lineno);
    const JsonValue v = JsonValue::parse(line, ctx);
    const std::string record = v.string_or("record", "");
    ST_REQUIRE(!record.empty(), "ledger line has no record type in " + ctx);
    if (record == "manifest") {
      if (out.manifest_count == 0) out.manifest = manifest_from_json(v);
      ++out.manifest_count;
    } else if (record == "epoch") {
      ST_REQUIRE(out.manifest_count > 0,
                 "epoch record before any manifest in " + ctx);
      out.epochs.push_back(epoch_from_json(v));
    } else if (record == "warning") {
      out.warnings.push_back(warning_from_json(v));
    } else if (record == "final") {
      out.final_record.values = object_to_number_pairs(v);
      // Drop the non-numeric "record" tag; keep scalar fields only.
      // (Pre-exit_kind ledgers default to "clean".)
      out.final_record.exit_kind = v.string_or("exit_kind", "clean");
      out.has_final = true;
    }
    // Unknown record types are skipped (forward compatibility).
  }
  ST_REQUIRE(out.manifest_count > 0, "ledger has no manifest record: " + path);
  return out;
}

std::vector<ParsedLedger> parse_ledger_dir(const std::string& dir) {
  namespace fs = std::filesystem;
  std::vector<std::string> paths;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    if (!entry.is_regular_file()) continue;
    if (entry.path().extension() == ".jsonl")
      paths.push_back(entry.path().string());
  }
  ST_REQUIRE(!ec, "cannot list ledger directory: " + dir);
  ST_REQUIRE(!paths.empty(), "no *.jsonl ledgers found in: " + dir);
  std::sort(paths.begin(), paths.end());
  std::vector<ParsedLedger> out;
  out.reserve(paths.size());
  for (const std::string& p : paths) out.push_back(parse_ledger(p));
  return out;
}

}  // namespace spiketune::obs
