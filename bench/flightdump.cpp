// SPIKETUNE_FLIGHTDUMP — offline decoder for crash bundles and raw
// flight-recorder dumps (obs/flight.h, obs/crash.h).
//
// Turns the binary ring dump back into a timestamp-merged JSONL timeline:
// one optional "crash" header line (signal, fingerprint, recorder
// occupancy), then interleaved "event" lines (flight records) and "span"
// lines (sampled request spans from the bundle's extra.jsonl).  The
// timeline feeds the dashboard's Post-mortem panel
// (`render_dashboard --postmortem timeline.jsonl`) and is grep-friendly on
// its own.
//
//   spiketune_flightdump --bundle serve_crash                # whole bundle
//   spiketune_flightdump --bundle serve_crash --ledger runs/serve.jsonl
//   spiketune_flightdump --flight flight.bin --out t.jsonl   # rings only
//
// With --ledger, decoding a bundle that contains a crash.meta appends a
// post-mortem final record (exit_kind="crash") to that run ledger, so a
// crashed run shows up in the dashboard's comparison table instead of
// silently missing its final row.
#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "core/cli.h"
#include "core/error.h"
#include "core/json.h"
#include "obs/crash.h"
#include "obs/flight.h"
#include "obs/ledger.h"
#include "obs/spans.h"

using namespace spiketune;

namespace {

// Pulls "key: value" out of the fingerprint block the installer wrote into
// crash.meta (serve writes "build: ...", "fingerprint: ...", "argv: ...").
std::string fingerprint_field(const std::string& text, const std::string& key) {
  std::size_t pos = 0;
  const std::string prefix = key + ": ";
  while (pos < text.size()) {
    std::size_t eol = text.find('\n', pos);
    if (eol == std::string::npos) eol = text.size();
    if (text.compare(pos, prefix.size(), prefix) == 0)
      return text.substr(pos + prefix.size(), eol - pos - prefix.size());
    pos = eol + 1;
  }
  return "";
}

struct TimelineLine {
  std::uint64_t ts_ns = 0;
  int order = 0;  // events before spans at equal timestamps
  std::string json;
};

std::string event_json(const obs::DecodedFlightEvent& e) {
  JsonValue v = JsonValue::make_object();
  v.set("record", JsonValue("event"));
  v.set("ts_ns", JsonValue(static_cast<std::int64_t>(e.ts_ns)));
  v.set("thread", JsonValue(e.thread));
  v.set("seq", JsonValue(static_cast<std::int64_t>(e.seq)));
  v.set("event", JsonValue(e.name));
  v.set("a0", JsonValue(static_cast<std::int64_t>(e.a0)));
  v.set("a1", JsonValue(static_cast<std::int64_t>(e.a1)));
  return v.dump();
}

std::string span_json(const obs::RequestSpan& s) {
  const double e2e_us = obs::span_times(s).e2e_us;
  JsonValue v = JsonValue::make_object();
  v.set("record", JsonValue("span"));
  v.set("ts_ns", JsonValue(static_cast<std::int64_t>(s.recv_ns)));
  v.set("event", JsonValue("serve.request_span"));
  v.set("a0", JsonValue(static_cast<std::int64_t>(s.server_id)));
  v.set("a1", JsonValue(static_cast<std::int64_t>(e2e_us)));
  v.set("batch", JsonValue(s.batch));
  v.set("e2e_us", JsonValue(e2e_us));
  v.set("ok", JsonValue(s.ok));
  return v.dump();
}

}  // namespace

int main(int argc, char** argv) {
  CliFlags flags;
  flags.declare("bundle", "",
                "crash bundle directory from obs/crash.h (reads flight.bin, "
                "crash.meta, extra.jsonl inside it)");
  flags.declare("flight", "",
                "raw flight dump to decode (overrides the bundle's "
                "flight.bin)");
  flags.declare("meta", "",
                "crash.meta to merge (overrides the bundle's crash.meta)");
  flags.declare("spans", "",
                "span JSONL to interleave (overrides the bundle's "
                "extra.jsonl)");
  flags.declare("out", "timeline.jsonl", "merged timeline JSONL output");
  flags.declare("ledger", "",
                "run ledger to append a post-mortem final record "
                "(exit_kind=\"crash\") to when the bundle holds a crash");
  flags.declare("tail", "12",
                "print the last N timeline events to stdout (0 disables)");
  return run_main(flags, argc, argv, [&] {
    namespace fs = std::filesystem;
    const std::string bundle = flags.get("bundle");
    std::string flight_path = flags.get("flight");
    std::string meta_path = flags.get("meta");
    std::string spans_path = flags.get("spans");
    if (!bundle.empty()) {
      if (flight_path.empty()) flight_path = bundle + "/flight.bin";
      if (meta_path.empty() && obs::crash_bundle_present(bundle))
        meta_path = bundle + "/crash.meta";
      if (spans_path.empty() && fs::exists(bundle + "/extra.jsonl"))
        spans_path = bundle + "/extra.jsonl";
    }
    ST_REQUIRE(!flight_path.empty(),
               "nothing to decode: pass --bundle <dir> or --flight <file>");

    const obs::DecodedFlightDump dump = obs::decode_flight_dump(flight_path);

    obs::CrashMeta meta;
    bool has_crash = false;
    if (!meta_path.empty()) {
      meta = obs::parse_crash_meta(meta_path);
      has_crash = true;
    }

    std::vector<obs::RequestSpan> spans;
    if (!spans_path.empty()) spans = obs::parse_span_jsonl(spans_path);

    // Merge events and spans on the shared telemetry clock.  Events sort
    // before spans at equal timestamps: a span's recv_ns is by definition
    // the moment its first event fired.
    std::vector<TimelineLine> lines;
    lines.reserve(dump.events.size() + spans.size());
    for (const auto& e : dump.events) lines.push_back({e.ts_ns, 0, event_json(e)});
    for (const auto& s : spans) lines.push_back({s.recv_ns, 1, span_json(s)});
    std::stable_sort(lines.begin(), lines.end(),
                     [](const TimelineLine& a, const TimelineLine& b) {
                       return a.ts_ns != b.ts_ns ? a.ts_ns < b.ts_ns
                                                 : a.order < b.order;
                     });

    const std::string out_path = flags.get("out");
    std::ofstream out(out_path, std::ios::trunc);
    ST_REQUIRE(out.good(), "cannot open timeline output: " + out_path);
    if (has_crash) {
      JsonValue v = JsonValue::make_object();
      v.set("record", JsonValue("crash"));
      v.set("signal", JsonValue(meta.signal));
      v.set("signame", JsonValue(meta.signame));
      const std::string fp =
          fingerprint_field(meta.fingerprint_text, "fingerprint");
      const std::string build =
          fingerprint_field(meta.fingerprint_text, "build");
      if (!fp.empty()) v.set("fingerprint", JsonValue(fp));
      if (!build.empty()) v.set("build", JsonValue(build));
      v.set("events", JsonValue(static_cast<std::int64_t>(dump.events.size())));
      v.set("torn", JsonValue(dump.torn));
      v.set("dropped", JsonValue(dump.dropped));
      v.set("threads", JsonValue(dump.threads));
      out << v.dump() << "\n";
    }
    for (const TimelineLine& l : lines) out << l.json << "\n";
    ST_REQUIRE(out.good(), "timeline write failed: " + out_path);
    out.close();

    std::cout << "decoded " << flight_path << ": " << dump.events.size()
              << " event(s) across " << dump.threads << " thread(s), "
              << dump.torn << " torn, " << dump.dropped << " dropped";
    if (!spans.empty()) std::cout << ", " << spans.size() << " span(s)";
    std::cout << "\n";
    if (has_crash) {
      std::cout << "crash: " << meta.signame << " (signal " << meta.signal
                << "), fault_addr 0x" << std::hex << meta.fault_addr
                << std::dec << ", " << meta.backtrace.size()
                << " backtrace frame(s)\n";
    }
    std::cout << "wrote " << out_path << "\n";

    const long long tail = flags.get_int("tail");
    if (tail > 0 && !lines.empty()) {
      const std::size_t n =
          std::min(lines.size(), static_cast<std::size_t>(tail));
      std::cout << "last " << n << " of " << lines.size() << ":\n";
      for (std::size_t i = lines.size() - n; i < lines.size(); ++i)
        std::cout << "  " << lines[i].json << "\n";
    }

    // Post-mortem ledger record: the crashed run's final row, appended
    // after the fact from the bundle.  The manifest is only written when
    // the ledger does not already hold one (serve writes its manifest at
    // startup, so this branch is for rings dumped outside serve).
    const std::string ledger_path = flags.get("ledger");
    if (!ledger_path.empty() && has_crash) {
      bool has_manifest = false;
      if (fs::exists(ledger_path)) {
        std::ifstream in(ledger_path);
        std::string line;
        while (std::getline(in, line))
          if (line.find("\"record\":\"manifest\"") != std::string::npos ||
              line.find("\"record\": \"manifest\"") != std::string::npos)
            has_manifest = true;
      }
      obs::RunLedger ledger(ledger_path, /*append=*/true);
      if (!has_manifest) {
        obs::LedgerManifest m;
        m.run_id = "postmortem";
        const std::string fp =
            fingerprint_field(meta.fingerprint_text, "fingerprint");
        if (!fp.empty()) m.config_fingerprint = std::strtoull(fp.c_str(), nullptr, 16);
        m.build = fingerprint_field(meta.fingerprint_text, "build");
        ledger.write_manifest(m);
      }
      obs::LedgerFinal fin;
      fin.exit_kind = "crash";
      fin.values.emplace_back("signal", static_cast<double>(meta.signal));
      fin.values.emplace_back("flight_events",
                              static_cast<double>(dump.events.size()));
      fin.values.emplace_back("flight_dropped",
                              static_cast<double>(dump.dropped));
      ledger.write_final(fin);
      std::cout << "appended post-mortem record to " << ledger_path << "\n";
    }
    return 0;
  });
}
