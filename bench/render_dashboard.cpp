// RENDER_DASHBOARD — turns run ledgers (obs/ledger.h) into a single
// self-contained HTML dashboard: a run comparison table, accuracy /
// firing-rate / FPS-per-W trajectory charts, per-layer density heatmaps,
// and the spike-health warning log.  No scripts, fonts, or network — the
// file opens anywhere.
//
//   render_dashboard --in runs/            # a sweep's ledger directory
//   render_dashboard --in runs/run.jsonl   # a single run
//   render_dashboard --in runs/ --out fig2.html --csv fig2_epochs.csv
//   render_dashboard --in runs/ --spans spans.jsonl   # + serving panels
//   render_dashboard --in runs/ --postmortem timeline.jsonl  # + crash panel
#include <filesystem>
#include <iostream>

#include "core/cli.h"
#include "core/error.h"
#include "obs/dashboard.h"
#include "obs/flight.h"
#include "obs/ledger.h"
#include "obs/spans.h"

using namespace spiketune;

int main(int argc, char** argv) {
  CliFlags flags;
  flags.declare("in", "",
                "ledger input: a .jsonl file or a directory of them "
                "(required)");
  flags.declare("out", "dashboard.html", "output HTML path");
  flags.declare("csv", "",
                "also export one CSV row per (run, epoch) to this path");
  flags.declare("title", "spiketune run ledger", "dashboard title");
  flags.declare("spans", "",
                "request-span JSONL from `serve --span-log`; adds the "
                "Serving panels (latency/batch over time, stage breakdown)");
  flags.declare("postmortem", "",
                "merged crash timeline from spiketune_flightdump; adds the "
                "Post-mortem panel (crash header, event counts, final "
                "timeline)");
  return run_main(flags, argc, argv, [&] {
    const std::string in = flags.get("in");
    ST_REQUIRE(!in.empty(), "--in is required (a ledger file or directory)");
    std::vector<obs::ParsedLedger> runs;
    if (std::filesystem::is_directory(in)) {
      runs = obs::parse_ledger_dir(in);
    } else {
      runs.push_back(obs::parse_ledger(in));
    }

    std::vector<obs::RequestSpan> spans;
    if (!flags.get("spans").empty())
      spans = obs::parse_span_jsonl(flags.get("spans"));

    obs::PostmortemTimeline postmortem;
    if (!flags.get("postmortem").empty())
      postmortem = obs::parse_timeline_jsonl(flags.get("postmortem"));

    obs::DashboardOptions options;
    options.title = flags.get("title");
    obs::write_dashboard_html(flags.get("out"), runs, spans, postmortem,
                              options);
    std::size_t epochs = 0, warnings = 0;
    for (const auto& run : runs) {
      epochs += run.epochs.size();
      warnings += run.warnings.size();
    }
    std::cout << "wrote " << flags.get("out") << " (" << runs.size()
              << " run(s), " << epochs << " epoch record(s), " << warnings
              << " warning(s)";
    if (!spans.empty()) std::cout << ", " << spans.size() << " span(s)";
    if (postmortem.has_crash || !postmortem.entries.empty())
      std::cout << ", " << postmortem.entries.size()
                << " post-mortem entry(ies)";
    std::cout << ")\n";
    if (!flags.get("csv").empty()) {
      obs::write_ledger_csv(flags.get("csv"), runs);
      std::cout << "wrote " << flags.get("csv") << "\n";
    }
    return 0;
  });
}
