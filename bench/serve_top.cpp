// SERVE_TOP — live terminal dashboard for a running serve daemon.
//
// Polls the daemon's STAT opcode (serve/protocol.h) and renders each JSON
// snapshot as an ASCII panel: windowed (last-N-seconds) p50/p99/p999
// latency, QPS, queue depth, per-stage time breakdown, batch-size
// distribution, rejection rate, SLO burn, and the since-start totals.  The
// stage rows come from the obs/spans.h stage table and the totals rows from
// the serve/counters.h rows STAT puts in `totals`, so a new stage or
// counter shows up here with no edit.  On a terminal the panel
// refreshes in place (ANSI home + clear); piped, snapshots just append, so
// `serve_top --iterations 1 --raw` doubles as a scriptable STAT scrape —
// that is what the CI introspection smoke runs mid-burst.
//
//   ./serve_top --port 7421                      # refresh every second
//   ./serve_top --port 7421 --interval-ms 250
//   ./serve_top --port 7421 --iterations 1 --raw # one JSON snapshot
#include <unistd.h>

#include <chrono>
#include <fstream>
#include <iostream>
#include <thread>

#include "core/cli.h"
#include "core/error.h"
#include "core/json.h"
#include "core/table.h"
#include "obs/spans.h"
#include "serve/counters.h"
#include "serve/transport.h"

using namespace spiketune;

namespace {

/// "p50 0.42ms | p99 1.87ms | p999 3.10ms" from a windowed histogram
/// object with times in microseconds.
std::string quantiles_ms(const JsonValue& h) {
  return fmt_f(h.number_or("p50", 0) / 1e3, 2) + "ms | p99 " +
         fmt_f(h.number_or("p99", 0) / 1e3, 2) + "ms | p999 " +
         fmt_f(h.number_or("p999", 0) / 1e3, 2) + "ms";
}

std::string stage_row(const JsonValue& stages, const std::string& key) {
  const JsonValue* s = stages.find(key);
  if (s == nullptr) return "-";
  return fmt_f(s->number_or("mean", 0), 0) + "us mean / " +
         fmt_f(s->number_or("p99", 0), 0) + "us p99";
}

void render(const JsonValue& stat, std::ostream& os) {
  const JsonValue* totals = stat.find("totals");
  const JsonValue* req = stat.find("request_us");
  const JsonValue* stages = stat.find("stages");
  const JsonValue* batch = stat.find("batch_size");
  const JsonValue* slo = stat.find("slo");
  const JsonValue* spans = stat.find("spans");
  const JsonValue* deadline = stat.find("deadline");
  const JsonValue* faults = stat.find("faults");
  const JsonValue* build = stat.find("build");
  const JsonValue* flight = stat.find("flight");

  AsciiTable table({"metric", "value"});
  table.set_title(
      "serve (up " + fmt_f(stat.number_or("uptime_s", 0), 1) + "s, window " +
      fmt_f(stat.number_or("window_s", 0), 0) + "s)");
  if (build != nullptr)
    table.add_row({"build", build->string_or("stamp", "?") + " (cfg " +
                                build->string_or("fingerprint", "?") + ")"});
  table.add_row({"QPS", fmt_f(stat.number_or("qps", 0), 0)});
  if (req != nullptr) {
    table.add_row({"latency p50", quantiles_ms(*req)});
    table.add_row({"latency mean",
                   fmt_f(req->number_or("mean", 0) / 1e3, 2) + "ms (" +
                       fmt_f(req->number_or("count", 0), 0) +
                       " in window)"});
  }
  table.add_row({"queue depth", fmt_f(stat.number_or("queue_depth", 0), 0)});
  for (std::size_t i = 0; stages != nullptr && i < obs::kNumStages; ++i)
    table.add_row({std::string("stage ") + obs::stage_name(i),
                   stage_row(*stages, obs::stage_key(i))});
  if (batch != nullptr)
    table.add_row({"batch size",
                   fmt_f(batch->number_or("mean", 0), 1) + " mean / " +
                       fmt_f(batch->number_or("max", 0), 0) + " max"});
  table.add_row({"rejects/s", fmt_f(stat.number_or("rejects_per_s", 0), 1)});
  if (deadline != nullptr)
    table.add_row(
        {"deadline shed",
         fmt_f(deadline->number_or("shed", 0), 0) + " of " +
             fmt_f(deadline->number_or("requests", 0), 0) + " budgeted (" +
             fmt_f(deadline->number_or("shed_per_s", 0), 1) + "/s)"});
  if (totals != nullptr)
    for (const serve::CounterRow& r : serve::kCounterRows)
      if ((r.sections & serve::kTotals) != 0)
        table.add_row({std::string("total ") + r.name,
                       fmt_f(totals->number_or(r.name, 0), 0)});
  if (faults != nullptr) {
    const JsonValue* enabled = faults->find("enabled");
    if (enabled != nullptr && enabled->is_bool() && enabled->as_bool())
      table.add_row({"faults injected",
                     fmt_f(faults->number_or("injected", 0), 0)});
  }
  if (slo != nullptr && slo->number_or("target_ms", 0) > 0)
    table.add_row(
        {"SLO burn", fmt_f(slo->number_or("burn", 0), 2) + "x budget (" +
                         fmt_f(slo->number_or("violations", 0), 0) + " of " +
                         fmt_f(slo->number_or("ok", 0) +
                                   slo->number_or("violations", 0),
                               0) +
                         " over " +
                         fmt_f(slo->number_or("target_ms", 0), 1) + "ms)"});
  if (spans != nullptr)
    table.add_row({"spans",
                   fmt_f(spans->number_or("recorded", 0), 0) +
                       " recorded (1-in-" +
                       fmt_f(spans->number_or("sample_every", 0), 0) + ")"});
  if (flight != nullptr) {
    const JsonValue* armed = flight->find("armed");
    if (armed != nullptr && armed->is_bool() && armed->as_bool()) {
      table.add_row(
          {"flight recorder",
           fmt_f(flight->number_or("retained", 0), 0) + " of " +
               fmt_f(flight->number_or("threads", 0) *
                         flight->number_or("capacity_per_thread", 0),
                     0) +
               " held (" + fmt_f(flight->number_or("recorded", 0), 0) +
               " recorded, " + fmt_f(flight->number_or("dropped", 0), 0) +
               " dropped, " + fmt_f(flight->number_or("threads", 0), 0) +
               " threads)"});
    } else {
      table.add_row({"flight recorder", "disarmed"});
    }
  }
  table.print(os);
}

}  // namespace

int main(int argc, char** argv) {
  CliFlags flags;
  flags.declare("host", "127.0.0.1", "daemon address");
  flags.declare("port", "7421", "daemon port");
  flags.declare("connect-retry-ms", "4000",
                "keep retrying the initial connect this long");
  flags.declare("interval-ms", "1000", "poll period");
  flags.declare("iterations", "0", "snapshots to take (0 = until killed)");
  flags.declare("raw", "false", "print the raw JSON instead of the panel");
  flags.declare("json-out", "",
                "also write the most recent snapshot to this file");
  return run_main(flags, argc, argv, [&] {
    const std::string host = flags.get("host");
    const int port = static_cast<int>(flags.get_int("port"));
    const int retry_ms = static_cast<int>(flags.get_int("connect-retry-ms"));
    const int interval_ms = static_cast<int>(flags.get_int("interval-ms"));
    const std::int64_t iterations = flags.get_int("iterations");
    const bool raw = flags.get_bool("raw");

    serve::TcpClient client(host, port, retry_ms);
    const bool tty = isatty(STDOUT_FILENO) != 0;
    const std::string json_out = flags.get("json-out");

    for (std::int64_t i = 0; iterations == 0 || i < iterations; ++i) {
      if (i > 0)
        std::this_thread::sleep_for(std::chrono::milliseconds(interval_ms));
      const serve::TcpClient::StatReply reply =
          client.stat(static_cast<std::uint64_t>(i));
      if (reply.disconnected) {
        std::cerr << "daemon went away\n";
        return i > 0 ? 0 : 1;  // drained mid-watch is a clean exit
      }
      if (!json_out.empty()) {
        std::ofstream out(json_out, std::ios::trunc);
        ST_REQUIRE(out.good(), "cannot open " + json_out);
        out << reply.json << "\n";
      }
      if (raw) {
        std::cout << reply.json << std::endl;
        continue;
      }
      const JsonValue stat = JsonValue::parse(reply.json, "STAT");
      if (tty && iterations != 1) std::cout << "\033[H\033[2J";
      render(stat, std::cout);
      std::cout.flush();
    }
    return 0;
  });
}
