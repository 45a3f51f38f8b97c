#include "core/cli.h"

#include <algorithm>
#include <cstdlib>
#include <iostream>
#include <sstream>
#include <thread>

#include "core/error.h"
#include "core/parallel.h"

namespace spiketune {

void CliFlags::declare(const std::string& name,
                       const std::string& default_value,
                       const std::string& help) {
  ST_REQUIRE(!name.empty() && name.rfind("--", 0) != 0,
             "declare flag names without leading dashes");
  ST_REQUIRE(!flags_.count(name), "duplicate flag declaration: " + name);
  flags_[name] = Flag{default_value, default_value, help};
}

void CliFlags::parse(int argc, const char* const* argv) {
  for (int i = 0; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      help_requested_ = true;
      continue;
    }
    ST_REQUIRE(arg.rfind("--", 0) == 0, "expected --flag, got: " + arg);
    arg = arg.substr(2);
    std::string name;
    std::string value;
    if (auto eq = arg.find('='); eq != std::string::npos) {
      name = arg.substr(0, eq);
      value = arg.substr(eq + 1);
    } else {
      name = arg;
      auto it = flags_.find(name);
      ST_REQUIRE(it != flags_.end(), "unknown flag: --" + name);
      const bool is_bool = it->second.default_value == "true" ||
                           it->second.default_value == "false";
      if (is_bool) {
        value = "true";
      } else {
        ST_REQUIRE(i + 1 < argc, "flag --" + name + " expects a value");
        value = argv[++i];
      }
    }
    auto it = flags_.find(name);
    ST_REQUIRE(it != flags_.end(), "unknown flag: --" + name);
    it->second.value = value;
  }
}

std::string CliFlags::get(const std::string& name) const {
  auto it = flags_.find(name);
  ST_REQUIRE(it != flags_.end(), "flag not declared: " + name);
  return it->second.value;
}

double CliFlags::get_double(const std::string& name) const {
  const std::string v = get(name);
  char* end = nullptr;
  const double d = std::strtod(v.c_str(), &end);
  ST_REQUIRE(end && *end == '\0' && !v.empty(),
             "flag --" + name + " is not a number: " + v);
  return d;
}

long long CliFlags::get_int(const std::string& name) const {
  const std::string v = get(name);
  char* end = nullptr;
  const long long i = std::strtoll(v.c_str(), &end, 10);
  ST_REQUIRE(end && *end == '\0' && !v.empty(),
             "flag --" + name + " is not an integer: " + v);
  return i;
}

bool CliFlags::get_bool(const std::string& name) const {
  const std::string v = get(name);
  if (v == "true" || v == "1") return true;
  if (v == "false" || v == "0") return false;
  throw InvalidArgument("flag --" + name + " is not a boolean: " + v);
}

void declare_threads_flag(CliFlags& flags) {
  flags.declare("threads", "0",
                "worker threads for tensor/SNN kernels (0 = auto, 1 = "
                "serial; results are bit-identical for any value)");
}

int apply_threads_flag(const CliFlags& flags) {
  long long n = flags.get_int("threads");
  ST_REQUIRE(n >= 0 && n <= max_num_threads(),
             "--threads must be in [0, " + std::to_string(max_num_threads()) +
                 "], got " + std::to_string(n));
  if (n == 0) {
    // Auto: at least two threads (so the parallel paths are exercised even
    // on single-core CI machines), at most four.  Thread count is a pure
    // throughput knob — results are bit-identical for any value
    // (core/parallel determinism contract).
    const unsigned hw = std::thread::hardware_concurrency();
    n = std::clamp<long long>(hw, 2, 4);
  }
  set_num_threads(static_cast<int>(n));
  return static_cast<int>(n);
}

std::string CliFlags::usage(const std::string& program) const {
  std::ostringstream os;
  os << "usage: " << program << " [flags]\n";
  for (const auto& [name, flag] : flags_) {
    os << "  --" << name << " (default: " << flag.default_value << ")\n"
       << "      " << flag.help << '\n';
  }
  return os.str();
}

int run_main(CliFlags& flags, int argc, char** argv,
             const std::function<int()>& body) {
  try {
    flags.parse(argc - 1, argv + 1);
    if (flags.help_requested()) {
      std::cout << flags.usage(argv[0]);
      return 0;
    }
    return body();
  } catch (const InvalidArgument& e) {
    std::cerr << e.what() << "\n" << flags.usage(argv[0]);
    return 2;
  }
}

std::string join_argv(int argc, char** argv) {
  std::string out;
  for (int i = 0; i < argc; ++i) {
    if (i) out += ' ';
    out += argv[i];
  }
  return out;
}

}  // namespace spiketune
