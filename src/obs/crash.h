// Crash forensics: an audited async-signal-safe fatal handler that turns a
// dying process into a decodable crash bundle.
//
// When SIGSEGV/SIGABRT/SIGBUS/SIGFPE/SIGILL fires, the handler writes four
// files it opened at install time:
//
//   <dir>/crash.meta     siginfo (signal, code, fault address), wall/mono
//                        timestamps, the build/config fingerprint text the
//                        installer provided, and a backtrace
//   <dir>/flight.bin     the flight-recorder region, raw
//                        (decode with spiketune_flightdump)
//   <dir>/metrics.jsonl  the last pre-serialized metrics snapshot
//   <dir>/extra.jsonl    the last snapshot from the registered extra
//                        provider (serve registers the span ring)
//
// Handler-safety audit (DESIGN.md §14 carries the long form):
//  - Everything the handler touches is prepared at install time: the fds
//    are pre-opened, the telemetry epoch is primed (its magic-static guard
//    never runs in the handler), backtrace() is primed (glibc's first call
//    may dlopen/allocate), and the crashing thread's flight slot — if it
//    has one — was claimed long before.
//  - The metrics/extra snapshots are *pre-serialized* by a background
//    refresher thread into fixed-capacity double buffers that are never
//    reallocated; the handler picks the buffer whose atomic length says it
//    is complete and write()s those bytes.  No formatting of float metrics
//    happens in the handler.
//  - The handler itself uses only: relaxed/seq_cst atomic ops, write(2),
//    fsync(2), clock_gettime(2), backtrace/backtrace_symbols_fd (primed),
//    and hand-rolled integer formatting into a stack buffer.  No malloc,
//    no locks, no stdio, no C++ streams.
//  - Re-entry (a second fatal signal inside the handler, e.g. the dump
//    path itself faulting) is cut off by an atomic once-flag and by
//    SA_RESETHAND: after the bundle is flushed the handler re-raises with
//    the default disposition restored, so the process dies with the
//    correct signal status and a core if ulimits allow.
//  - Composition with the existing chain: SIGINT/SIGTERM belong to
//    install_shutdown_request / install_signal_flush (obs/signal_flush.h);
//    the fatal set is disjoint, so both can be installed in any order and
//    never shadow each other.  A stack-overflow SIGSEGV is survivable
//    because the handler runs on a sigaltstack.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace spiketune::obs {

struct CrashHandlerConfig {
  /// Directory the bundle files live in; created (one level) at install.
  std::string bundle_dir = "crash";
  /// Free-form identification text written verbatim into crash.meta —
  /// build stamp, config fingerprint, argv.  Pre-formatted here precisely
  /// so the handler never formats anything but integers.
  std::string fingerprint_text;
  /// Snapshot refresh period for the pre-serialized metrics/extra buffers.
  /// 0 disables the refresher thread (tests then call
  /// refresh_crash_snapshots() by hand).
  int refresh_period_ms = 500;
};

/// Installs the fatal handler (idempotent per process; a second call
/// re-points the bundle at the new directory/config).  Throws on I/O
/// failure creating the bundle files.
void install_crash_handler(const CrashHandlerConfig& config);

/// Registers (or clears, with nullptr) the provider whose string lands in
/// extra.jsonl at each refresh.  Called under a mutex, so clearing blocks
/// until any in-flight invocation finishes — serve clears it before the
/// SpanRecorder it captures is destroyed.
void set_crash_extra_provider(std::function<std::string()> provider);

/// Re-serializes the metrics/extra snapshots into the standby buffer and
/// flips it live.  The refresher thread calls this on its period; tests
/// (and drivers with refresh_period_ms=0) call it directly.
void refresh_crash_snapshots();

/// True once install_crash_handler has run in this process.
bool crash_handler_installed();

/// Restores default dispositions and closes the bundle fds.  Test-only:
/// lets one gtest binary exercise install/uninstall repeatedly (the
/// refresher thread is parked, not joined).
void uninstall_crash_handler_for_test();

/// True when `dir` holds a non-empty crash.meta — the cheap "did it crash"
/// probe used by flightdump, serve_top, and the fork tests.
bool crash_bundle_present(const std::string& bundle_dir);

/// What crash.meta parses back to (offline; flightdump and the dashboard).
struct CrashMeta {
  int signal = 0;
  std::string signame;
  int code = 0;
  std::uint64_t fault_addr = 0;
  std::uint64_t mono_ns = 0;  // telemetry clock at the crash
  std::string fingerprint_text;  // verbatim installer-provided block
  std::vector<std::string> backtrace;
};
CrashMeta parse_crash_meta(const std::string& path);

}  // namespace spiketune::obs
