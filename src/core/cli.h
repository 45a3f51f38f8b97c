// Minimal command-line flag parsing for examples and benchmark binaries.
//
// Supports `--name=value`, `--name value`, and boolean `--name` forms.
// Unrecognized flags raise InvalidArgument so typos in experiment scripts
// fail loudly instead of silently running the wrong configuration.
#pragma once

#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace spiketune {

/// Declarative flag set: declare flags with defaults, then parse argv.
class CliFlags {
 public:
  /// Declares a flag with a default value and help text.
  void declare(const std::string& name, const std::string& default_value,
               const std::string& help);

  /// Parses argv (excluding argv[0]).  Throws InvalidArgument on unknown
  /// flags or missing values.  `--help` sets help_requested().
  void parse(int argc, const char* const* argv);

  std::string get(const std::string& name) const;
  double get_double(const std::string& name) const;
  long long get_int(const std::string& name) const;
  bool get_bool(const std::string& name) const;

  bool help_requested() const { return help_requested_; }
  /// Human-readable flag summary for `--help`.
  std::string usage(const std::string& program) const;

 private:
  struct Flag {
    std::string value;
    std::string default_value;
    std::string help;
  };
  std::map<std::string, Flag> flags_;
  bool help_requested_ = false;
};

/// Declares the standard `--threads` flag (default "0" = auto: up to four
/// threads, bounded by the machine) shared by the bench/example drivers.
void declare_threads_flag(CliFlags& flags);

/// Reads `--threads`, validates it, applies it process-wide via
/// set_num_threads(), and returns the value.  Call after parse().
int apply_threads_flag(const CliFlags& flags);

/// The front door of every driver's main(): parses argv into `flags`
/// (declared beforehand), prints the usage and returns 0 on --help, and
/// otherwise returns what `body` returns.  A flag or configuration error,
/// i.e. an InvalidArgument thrown by the parse or by `body`, prints the
/// message and the usage to stderr and returns 2.
int run_main(CliFlags& flags, int argc, char** argv,
             const std::function<int()>& body);

/// Joins argv into one space-separated command line (ledger manifests
/// record it).
std::string join_argv(int argc, char** argv);

}  // namespace spiketune
