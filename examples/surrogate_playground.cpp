// Surrogate playground: prints value/derivative tables for every surrogate
// gradient in the library across membrane-potential offsets and scaling
// factors — a quick way to build intuition for what the paper's derivative
// scaling factors (alpha, k) actually do to the learning signal.
#include <iostream>

#include "core/cli.h"
#include "core/error.h"
#include "core/table.h"
#include "exp/standard_flags.h"
#include "snn/surrogate.h"

using namespace spiketune;

int main(int argc, char** argv) {
  CliFlags flags;
  flags.declare("scale", "2.0", "derivative scaling factor (alpha / k)");
  exp::declare_standard_flags(flags, exp::DriverKind::kPlain);
  return run_main(flags, argc, argv, [&] {
    const auto std_flags =
        exp::apply_standard_flags(flags, exp::DriverKind::kPlain);
    const float scale = static_cast<float>(flags.get_double("scale"));

    const char* kinds[] = {"arctan",     "fast_sigmoid", "sigmoid",
                           "triangular", "boxcar",       "straight_through"};
    const float offsets[] = {-2.0f, -1.0f, -0.5f, -0.1f, 0.0f,
                             0.1f,  0.5f,  1.0f,  2.0f};

    AsciiTable table([&] {
      std::vector<std::string> header{"surrogate \\ v=U-theta"};
      for (float v : offsets) header.push_back(fmt_f(v, 1));
      return header;
    }());
    table.set_title("surrogate derivative dS/dv at scale " + fmt_f(scale, 2));
    for (const char* kind : kinds) {
      const auto sg = snn::Surrogate::by_name(kind, scale);
      std::vector<std::string> row{kind};
      for (float v : offsets) row.push_back(fmt_f(sg.grad(v), 3));
      table.add_row(std::move(row));
    }
    table.print(std::cout);

    // The paper's sweep endpoints for the two protagonist surrogates.
    std::cout << "\npeak derivative vs scaling factor (the paper's Fig. 1 "
                 "x-axis):\n";
    AsciiTable peaks({"scale", "arctan dS/dv(0)", "fast_sigmoid dS/dv(0)",
                      "arctan width@half", "fast_sigmoid width@half"});
    for (double k : {0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0}) {
      const auto at = snn::Surrogate::arctan(static_cast<float>(k));
      const auto fs = snn::Surrogate::fast_sigmoid(static_cast<float>(k));
      // half-width: |v| where grad falls to half its peak.
      auto half_width = [](const snn::Surrogate& s) {
        const float peak = s.grad(0.0f);
        float v = 0.0f;
        while (s.grad(v) > 0.5f * peak && v < 100.0f) v += 0.001f;
        return v;
      };
      peaks.add_row({fmt_f(k, 1), fmt_f(at.grad(0.0f), 3),
                     fmt_f(fs.grad(0.0f), 3), fmt_f(half_width(at), 3),
                     fmt_f(half_width(fs), 3)});
    }
    peaks.print(std::cout);
    std::cout << "\nNote the asymmetry the paper exploits: arctan's peak "
                 "grows with alpha while fast sigmoid's stays at 1 and only "
                 "narrows — larger k just localizes learning around the "
                 "threshold, quieting neurons far from it.\n";
    return 0;
  });
}
