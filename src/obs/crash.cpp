#include "obs/crash.h"

#include <execinfo.h>
#include <fcntl.h>
#include <signal.h>
#include <sys/stat.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <fstream>
#include <mutex>
#include <thread>

#include "core/error.h"
#include "obs/flight.h"
#include "obs/metrics.h"
#include "obs/telemetry.h"

namespace spiketune::obs {
namespace {

constexpr int kFatalSignals[] = {SIGSEGV, SIGABRT, SIGBUS, SIGFPE, SIGILL};
constexpr std::size_t kSnapshotCapacity = 1 << 20;  // 1 MiB per buffer

const char* signame(int sig) {
  switch (sig) {
    case SIGSEGV: return "SIGSEGV";
    case SIGABRT: return "SIGABRT";
    case SIGBUS: return "SIGBUS";
    case SIGFPE: return "SIGFPE";
    case SIGILL: return "SIGILL";
    default: return "UNKNOWN";
  }
}

/// Double-buffered pre-serialized snapshot.  The refresher writes into the
/// standby buffer, publishes its length, then flips `active`.  The handler
/// reads `active` and that buffer's length — both atomics — and write()s
/// bytes that can no longer change (the refresher never touches the active
/// buffer, and the buffers are reserved once and never reallocated).
struct SnapshotBuffer {
  std::vector<char> buf[2];
  std::atomic<std::size_t> len[2]{{0}, {0}};
  std::atomic<int> active{0};

  void reserve() {
    buf[0].resize(kSnapshotCapacity);
    buf[1].resize(kSnapshotCapacity);
  }
  void publish(const std::string& text) {
    const int standby = 1 - active.load(std::memory_order_relaxed);
    const std::size_t n = std::min(text.size(), kSnapshotCapacity);
    std::memcpy(buf[standby].data(), text.data(), n);
    len[standby].store(n, std::memory_order_release);
    active.store(standby, std::memory_order_release);
  }
  // Handler side: the bytes + length of the live buffer.
  const char* data_for_handler(std::size_t* n) const {
    const int a = active.load(std::memory_order_acquire);
    *n = len[a].load(std::memory_order_acquire);
    return buf[a].data();
  }
};

/// Everything the handler reads.  Lives in a leaked heap block published
/// once via an atomic pointer, so the handler can never observe a
/// half-built state and uninstall can never free memory under it.
struct CrashState {
  int fd_meta = -1;
  int fd_flight = -1;
  int fd_metrics = -1;
  int fd_extra = -1;
  SnapshotBuffer metrics;
  SnapshotBuffer extra;
  // Fingerprint bytes, fixed at install (handler writes them verbatim).
  std::vector<char> fingerprint;
  std::atomic<bool> fired{false};
};

std::atomic<CrashState*> g_state{nullptr};
std::mutex g_install_mu;

std::mutex g_provider_mu;
std::function<std::string()> g_provider;

std::atomic<bool> g_refresher_started{false};
std::atomic<int> g_refresh_period_ms{0};

// ---- handler-side formatting (no stdio, no allocation) ---------------------

/// write(2) with EINTR retry; best-effort (a failing fd must not stop the
/// rest of the bundle).
void safe_write(int fd, const char* p, std::size_t n) {
  while (n > 0) {
    const ssize_t w = ::write(fd, p, n);
    if (w < 0) {
      if (errno == EINTR) continue;
      return;
    }
    p += w;
    n -= static_cast<std::size_t>(w);
  }
}

void safe_puts(int fd, const char* s) { safe_write(fd, s, std::strlen(s)); }

/// Unsigned decimal into a stack buffer; returns the start of the digits.
char* format_u64(std::uint64_t v, char* end) {
  *--end = '\0';
  if (v == 0) *--end = '0';
  while (v > 0) {
    *--end = static_cast<char>('0' + (v % 10));
    v /= 10;
  }
  return end;
}

void safe_put_u64(int fd, std::uint64_t v) {
  char buf[24];
  safe_puts(fd, format_u64(v, buf + sizeof(buf)));
}

void safe_put_i64(int fd, std::int64_t v) {
  if (v < 0) {
    safe_puts(fd, "-");
    safe_put_u64(fd, static_cast<std::uint64_t>(-v));
  } else {
    safe_put_u64(fd, static_cast<std::uint64_t>(v));
  }
}

/// The handler proper.  See the audit in crash.h / DESIGN.md §14; every
/// call below is on the POSIX async-signal-safe list or is a primed
/// glibc-safe backtrace call or plain memory ops on pre-built state.
void fatal_handler(int sig, siginfo_t* info, void*) {
  CrashState* st = g_state.load(std::memory_order_acquire);
  if (st == nullptr) {
    ::raise(sig);  // disposition already reset by SA_RESETHAND
    return;
  }
  // One bundle per process: a second fatal signal (another thread crashing
  // concurrently, or the dump path itself faulting after SA_RESETHAND
  // restored default dispositions) must not interleave writes.
  if (st->fired.exchange(true, std::memory_order_acq_rel)) {
    ::raise(sig);
    return;
  }

  // 1. Stop the rings, then stamp the crash into this thread's ring so the
  //    decoded timeline ends with the signal itself.
  freeze_flight_recorder();
  const std::uint64_t addr =
      (sig == SIGSEGV || sig == SIGBUS)
          ? reinterpret_cast<std::uint64_t>(info != nullptr ? info->si_addr
                                                            : nullptr)
          : 0;
  flight_record_crash_marker(sig, addr);

  // 2. crash.meta: integers + pre-formatted fingerprint + backtrace.
  const int fd = st->fd_meta;
  safe_puts(fd, "signal ");
  safe_put_i64(fd, sig);
  safe_puts(fd, " ");
  safe_puts(fd, signame(sig));
  safe_puts(fd, "\ncode ");
  safe_put_i64(fd, info != nullptr ? info->si_code : 0);
  safe_puts(fd, "\nfault_addr ");
  safe_put_u64(fd, addr);
  safe_puts(fd, "\nmono_ns ");
  safe_put_u64(fd, telemetry_now_ns());  // epoch primed at install
  safe_puts(fd, "\n--- fingerprint ---\n");
  safe_write(fd, st->fingerprint.data(), st->fingerprint.size());
  safe_puts(fd, "\n--- backtrace ---\n");
  void* frames[64];
  const int depth = ::backtrace(frames, 64);  // primed at install
  ::backtrace_symbols_fd(frames, depth, fd);
  safe_puts(fd, "--- end ---\n");

  // 3. The flight rings, raw.
  dump_flight_rings(st->fd_flight);

  // 4. Pre-serialized snapshots.
  std::size_t n = 0;
  const char* p = st->metrics.data_for_handler(&n);
  safe_write(st->fd_metrics, p, n);
  p = st->extra.data_for_handler(&n);
  safe_write(st->fd_extra, p, n);

  ::fsync(st->fd_meta);
  ::fsync(st->fd_flight);
  ::fsync(st->fd_metrics);
  ::fsync(st->fd_extra);

  // 5. Die for real, with the right wait status (SA_RESETHAND already
  //    restored the default disposition for `sig`).
  ::raise(sig);
}

// ---- install-time machinery ------------------------------------------------

int open_bundle_file(const std::string& dir, const char* name) {
  const std::string path = dir + "/" + name;
  const int fd = ::open(path.c_str(), O_CREAT | O_WRONLY | O_TRUNC, 0644);
  ST_REQUIRE(fd >= 0, "cannot open crash bundle file " + path);
  return fd;
}

void refresher_main() {
  for (;;) {
    const int period = g_refresh_period_ms.load(std::memory_order_relaxed);
    std::this_thread::sleep_for(
        std::chrono::milliseconds(period > 0 ? period : 200));
    if (period <= 0) continue;  // parked (uninstalled or manual mode)
    if (g_state.load(std::memory_order_acquire) == nullptr) continue;
    refresh_crash_snapshots();
  }
}

void install_sigaltstack() {
  static char* alt = nullptr;
  const std::size_t size =
      std::max<std::size_t>(SIGSTKSZ, 64 * 1024);
  if (alt == nullptr) alt = new char[size];
  stack_t ss;
  std::memset(&ss, 0, sizeof(ss));
  ss.ss_sp = alt;
  ss.ss_size = size;
  ss.ss_flags = 0;
  ::sigaltstack(&ss, nullptr);
}

}  // namespace

void install_crash_handler(const CrashHandlerConfig& config) {
  std::lock_guard<std::mutex> lock(g_install_mu);
  ::mkdir(config.bundle_dir.c_str(), 0755);  // one level, best-effort

  // Build the complete state before publishing it; leaked on purpose so
  // the handler can race uninstall safely.
  auto* st = new CrashState();
  st->fd_meta = open_bundle_file(config.bundle_dir, "crash.meta");
  st->fd_flight = open_bundle_file(config.bundle_dir, "flight.bin");
  st->fd_metrics = open_bundle_file(config.bundle_dir, "metrics.jsonl");
  st->fd_extra = open_bundle_file(config.bundle_dir, "extra.jsonl");
  st->metrics.reserve();
  st->extra.reserve();
  st->fingerprint.assign(config.fingerprint_text.begin(),
                         config.fingerprint_text.end());

  // Prime everything the handler must never initialize itself: the
  // telemetry epoch's magic static, and backtrace()'s lazy unwinder load.
  (void)telemetry_now_ns();
  void* frames[4];
  (void)::backtrace(frames, 4);

  CrashState* old = g_state.exchange(st, std::memory_order_acq_rel);
  if (old != nullptr) {
    // Re-install (tests, or a driver re-pointing the bundle): close the
    // old fds; the state block itself stays allocated (handler may hold
    // a pointer it loaded a moment ago).
    ::close(old->fd_meta);
    ::close(old->fd_flight);
    ::close(old->fd_metrics);
    ::close(old->fd_extra);
  }

  install_sigaltstack();
  struct sigaction sa;
  std::memset(&sa, 0, sizeof(sa));
  sa.sa_sigaction = fatal_handler;
  sigemptyset(&sa.sa_mask);
  // SA_RESETHAND: one shot, and the final raise() in the handler kills the
  // process with the default disposition.  SA_ONSTACK: survive stack
  // overflow.  SA_NODEFER not set — the signal is blocked during the
  // handler, which is what we want.
  sa.sa_flags = SA_SIGINFO | SA_ONSTACK | SA_RESETHAND;
  for (int sig : kFatalSignals) ::sigaction(sig, &sa, nullptr);

  refresh_crash_snapshots();  // never crash with empty buffers
  g_refresh_period_ms.store(config.refresh_period_ms,
                            std::memory_order_relaxed);
  if (config.refresh_period_ms > 0 &&
      !g_refresher_started.exchange(true, std::memory_order_acq_rel)) {
    std::thread(refresher_main).detach();
  }
}

void set_crash_extra_provider(std::function<std::string()> provider) {
  std::lock_guard<std::mutex> lock(g_provider_mu);
  g_provider = std::move(provider);
}

void refresh_crash_snapshots() {
  CrashState* st = g_state.load(std::memory_order_acquire);
  if (st == nullptr) return;
  st->metrics.publish(metrics_jsonl_string());
  std::lock_guard<std::mutex> lock(g_provider_mu);
  if (g_provider) st->extra.publish(g_provider());
}

bool crash_handler_installed() {
  return g_state.load(std::memory_order_acquire) != nullptr;
}

void uninstall_crash_handler_for_test() {
  std::lock_guard<std::mutex> lock(g_install_mu);
  g_refresh_period_ms.store(0, std::memory_order_relaxed);
  CrashState* st = g_state.exchange(nullptr, std::memory_order_acq_rel);
  if (st != nullptr) {
    ::close(st->fd_meta);
    ::close(st->fd_flight);
    ::close(st->fd_metrics);
    ::close(st->fd_extra);
  }
  for (int sig : kFatalSignals) ::signal(sig, SIG_DFL);
}

bool crash_bundle_present(const std::string& bundle_dir) {
  struct stat sb;
  if (::stat((bundle_dir + "/crash.meta").c_str(), &sb) != 0) return false;
  return sb.st_size > 0;
}

CrashMeta parse_crash_meta(const std::string& path) {
  std::ifstream in(path);
  ST_REQUIRE(in.good(), "cannot open crash meta " + path);
  CrashMeta out;
  std::string line;
  enum { kHead, kFingerprint, kBacktrace, kDone } section = kHead;
  while (std::getline(in, line)) {
    if (line == "--- fingerprint ---") { section = kFingerprint; continue; }
    if (line == "--- backtrace ---") {
      // The fingerprint block ends with one newline the handler adds;
      // drop the resulting trailing blank line for round-trip cleanliness.
      if (!out.fingerprint_text.empty() &&
          out.fingerprint_text.back() == '\n')
        out.fingerprint_text.pop_back();
      section = kBacktrace;
      continue;
    }
    if (line == "--- end ---") { section = kDone; continue; }
    switch (section) {
      case kHead: {
        const std::size_t sp = line.find(' ');
        if (sp == std::string::npos) break;
        const std::string key = line.substr(0, sp);
        const std::string val = line.substr(sp + 1);
        if (key == "signal") {
          out.signal = std::atoi(val.c_str());
          const std::size_t sp2 = val.find(' ');
          out.signame = sp2 == std::string::npos ? signame(out.signal)
                                                 : val.substr(sp2 + 1);
        } else if (key == "code") {
          out.code = std::atoi(val.c_str());
        } else if (key == "fault_addr") {
          out.fault_addr = std::strtoull(val.c_str(), nullptr, 10);
        } else if (key == "mono_ns") {
          out.mono_ns = std::strtoull(val.c_str(), nullptr, 10);
        }
        break;
      }
      case kFingerprint:
        out.fingerprint_text += line;
        out.fingerprint_text += "\n";
        break;
      case kBacktrace:
        if (!line.empty()) out.backtrace.push_back(line);
        break;
      case kDone:
        break;
    }
  }
  ST_REQUIRE(out.signal != 0, "crash meta has no signal line: " + path);
  return out;
}

}  // namespace spiketune::obs
