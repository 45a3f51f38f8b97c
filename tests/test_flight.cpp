// Flight-recorder and crash-forensics tests: ring rollover exactness,
// concurrent-writer isolation, dump/decode round-trips, the crash-at fault
// grammar, and fork-based end-to-end crashes (SIGSEGV / SIGABRT, and a
// serve daemon killed mid-burst by deterministic fault injection) that
// assert the bundle exists, decodes, and its last events match what the
// client side observed.
#include <gtest/gtest.h>

#include <fcntl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <csignal>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <thread>
#include <vector>

#include "core/error.h"
#include "core/rng.h"
#include "infer/session.h"
#include "obs/crash.h"
#include "obs/flight.h"
#include "serve/fault.h"
#include "serve/server.h"
#include "serve/transport.h"
#include "snn/model_zoo.h"

// Fork-based crash tests do not mix with ThreadSanitizer: the child
// inherits TSan's runtime mid-crash and the induced signal trips the
// sanitizer before the handler we are testing.  Skip them there.
#if defined(__SANITIZE_THREAD__)
#define SPIKETUNE_TSAN_BUILD 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define SPIKETUNE_TSAN_BUILD 1
#endif
#endif

namespace spiketune::obs {
namespace {

std::string tmp_path(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

using FE = FlightEventId;

// --- ring semantics ---------------------------------------------------------

TEST(Flight, DisarmedGateRecordsNothing) {
  disarm_flight_recorder();
  const std::int64_t before = flight_stats().recorded;
  flight_record(FE::kFrameDecode, 1, 2);
  flight_record(FE::kConnAccept, 3, 4);
  EXPECT_FALSE(flight_enabled());
  EXPECT_EQ(flight_stats().recorded, before);
}

TEST(Flight, CapacityRoundsUpToPowerOfTwoFloor64) {
  arm_flight_recorder({.events_per_thread = 10, .max_threads = 2});
  EXPECT_TRUE(flight_enabled());
  EXPECT_EQ(flight_stats().capacity_per_thread, 64);
  arm_flight_recorder({.events_per_thread = 100, .max_threads = 2});
  EXPECT_EQ(flight_stats().capacity_per_thread, 128);
  disarm_flight_recorder();
}

TEST(Flight, RolloverKeepsExactlyTheTrailingWindow) {
  arm_flight_recorder({.events_per_thread = 64, .max_threads = 4});
  for (std::uint64_t i = 0; i < 100; ++i)
    flight_record(FE::kFrameDecode, i, i * 2);
  const FlightStats stats = flight_stats();
  EXPECT_EQ(stats.recorded, 100);
  EXPECT_EQ(stats.retained, 64);
  EXPECT_EQ(stats.dropped, 0);
  EXPECT_EQ(stats.threads, 1);

  const DecodedFlightDump dump = snapshot_flight_events();
  ASSERT_EQ(dump.events.size(), 64u);
  EXPECT_EQ(dump.torn, 0);
  // Exactness: the survivors are precisely writes 36..99, in order, with
  // their per-thread sequence numbers intact (seq gaps reveal rollover).
  for (std::size_t i = 0; i < dump.events.size(); ++i) {
    const DecodedFlightEvent& e = dump.events[i];
    EXPECT_EQ(e.seq, 36 + i);
    EXPECT_EQ(e.a0, 36 + i);
    EXPECT_EQ(e.a1, (36 + i) * 2);
    EXPECT_EQ(e.name, std::string("serve.frame_decode"));
  }
  disarm_flight_recorder();
}

TEST(Flight, ConcurrentWritersNeverTearOrCrossRings) {
  constexpr int kThreads = 8;
  constexpr std::uint64_t kPerThread = 10'000;
  constexpr std::uint32_t kCap = 4096;
  arm_flight_recorder({.events_per_thread = kCap, .max_threads = 16});
  std::vector<std::thread> writers;
  writers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([] {
      for (std::uint64_t i = 0; i < kPerThread; ++i)
        flight_record(FE::kRequestAdmit, i, i ^ 0xabcdULL);
    });
  }
  for (std::thread& w : writers) w.join();

  const FlightStats stats = flight_stats();
  EXPECT_EQ(stats.recorded, kThreads * static_cast<std::int64_t>(kPerThread));
  EXPECT_EQ(stats.dropped, 0);
  EXPECT_EQ(stats.threads, kThreads);
  EXPECT_EQ(stats.retained, kThreads * static_cast<std::int64_t>(kCap));

  // Per thread: exactly the trailing kCap writes survived, and each
  // record's payload matches its own sequence number — a torn or
  // cross-ring write would break the a0 == seq invariant somewhere.
  const DecodedFlightDump dump = snapshot_flight_events();
  EXPECT_EQ(dump.torn, 0);
  std::vector<std::uint64_t> next(kThreads, kPerThread - kCap);
  std::vector<std::int64_t> count(kThreads, 0);
  for (const DecodedFlightEvent& e : dump.events) {
    ASSERT_LT(e.thread, kThreads);
    EXPECT_EQ(e.a0, e.seq);
    EXPECT_EQ(e.a1, e.seq ^ 0xabcdULL);
    ++count[static_cast<std::size_t>(e.thread)];
  }
  for (int t = 0; t < kThreads; ++t)
    EXPECT_EQ(count[static_cast<std::size_t>(t)],
              static_cast<std::int64_t>(kCap));
  disarm_flight_recorder();
}

TEST(Flight, SlotExhaustionCountsDrops) {
  arm_flight_recorder({.events_per_thread = 64, .max_threads = 1});
  std::thread first([] {
    for (int i = 0; i < 5; ++i) flight_record(FE::kConnAccept, 1);
  });
  first.join();
  std::thread second([] {
    for (int i = 0; i < 3; ++i) flight_record(FE::kConnClose, 2);
  });
  second.join();
  const FlightStats stats = flight_stats();
  EXPECT_EQ(stats.threads, 1);
  EXPECT_EQ(stats.recorded, 5);
  EXPECT_EQ(stats.dropped, 3);
  disarm_flight_recorder();
}

// --- dump / decode ----------------------------------------------------------

TEST(Flight, DumpDecodesBackToTheSnapshot) {
  arm_flight_recorder({.events_per_thread = 64, .max_threads = 4});
  flight_record(FE::kBatchAssemble, 4, 8);
  flight_record(FE::kBatchDispatch, 4);
  flight_record(FE::kDeadlineShed, 77, 5000);
  const DecodedFlightDump live = snapshot_flight_events();

  const std::string path = tmp_path("flight_roundtrip.bin");
  const int fd = ::open(path.c_str(), O_CREAT | O_WRONLY | O_TRUNC, 0644);
  ASSERT_GE(fd, 0);
  ASSERT_TRUE(dump_flight_rings(fd));
  ::close(fd);

  const DecodedFlightDump back = decode_flight_dump(path);
  ASSERT_EQ(back.events.size(), live.events.size());
  for (std::size_t i = 0; i < back.events.size(); ++i) {
    EXPECT_EQ(back.events[i].ts_ns, live.events[i].ts_ns);
    EXPECT_EQ(back.events[i].thread, live.events[i].thread);
    EXPECT_EQ(back.events[i].id, live.events[i].id);
    EXPECT_EQ(back.events[i].name, live.events[i].name);
    EXPECT_EQ(back.events[i].a0, live.events[i].a0);
    EXPECT_EQ(back.events[i].a1, live.events[i].a1);
    EXPECT_EQ(back.events[i].seq, live.events[i].seq);
  }
  EXPECT_EQ(back.capacity_per_thread, 64u);
  disarm_flight_recorder();
}

TEST(Flight, DecodeRejectsGarbage) {
  const std::string path = tmp_path("flight_garbage.bin");
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << "this is not a flight dump at all";
  out.close();
  EXPECT_THROW(decode_flight_dump(path), InvalidArgument);
  EXPECT_THROW(decode_flight_dump(tmp_path("no_such_dump.bin")), Error);
}

// --- crash-at fault grammar -------------------------------------------------

TEST(FlightFaultSpec, CrashAtParsesAndDescribes) {
  const serve::FaultSpec spec =
      serve::FaultSpec::parse("crash_at=25,crash_sig=6,seed=7");
  EXPECT_EQ(spec.crash_at, 25);
  EXPECT_EQ(spec.crash_sig, 6);
  EXPECT_TRUE(spec.enabled());
  const std::string text = spec.describe();
  EXPECT_NE(text.find("crash_at=25"), std::string::npos);
  EXPECT_NE(text.find("crash_sig=6"), std::string::npos);
  // Round-trip through describe(), and the dashed aliases.
  EXPECT_EQ(serve::FaultSpec::parse(text).crash_at, 25);
  EXPECT_EQ(serve::FaultSpec::parse("crash-at=3,crash-sig=11").crash_at, 3);
  EXPECT_FALSE(serve::FaultSpec::parse("crash_at=0").enabled());
}

TEST(FlightFaultSpec, CrashAtRejectsBadValues) {
  EXPECT_THROW(serve::FaultSpec::parse("crash_at=-1"), InvalidArgument);
  EXPECT_THROW(serve::FaultSpec::parse("crash_at=x"), InvalidArgument);
  EXPECT_THROW(serve::FaultSpec::parse("crash_sig=9"), InvalidArgument);
  EXPECT_THROW(serve::FaultSpec::parse("crash_sig=15"), InvalidArgument);
}

// --- fork-based end-to-end crashes ------------------------------------------

#ifndef SPIKETUNE_TSAN_BUILD

// Induces `signo` in a forked child after recording `marker_count` known
// events, then asserts the bundle in `dir` exists and decodes to a history
// whose tail is exactly those markers followed by the kCrashSignal stamp.
void run_induced_crash(int signo, const std::string& dir,
                       std::uint64_t marker_count) {
  std::filesystem::remove_all(dir);
  const pid_t pid = fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    arm_flight_recorder({.events_per_thread = 256, .max_threads = 8});
    CrashHandlerConfig cc;
    cc.bundle_dir = dir;
    cc.fingerprint_text =
        "build: gtest-harness\nfingerprint: 00000000deadbeef\n";
    cc.refresh_period_ms = 0;  // no refresher thread across fork
    try {
      install_crash_handler(cc);
    } catch (const Error&) {
      _exit(90);
    }
    refresh_crash_snapshots();
    for (std::uint64_t i = 0; i < marker_count; ++i)
      flight_record(FE::kFrameDecode, i, 0x5eedULL);
    if (signo == SIGABRT) {
      std::abort();
    } else {
      volatile int* null_page = nullptr;
      *null_page = 42;
    }
    _exit(91);  // unreachable: the signal must be fatal
  }
  int status = 0;
  ASSERT_EQ(waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFSIGNALED(status)) << "child exited " << status;
  EXPECT_EQ(WTERMSIG(status), signo);

  ASSERT_TRUE(crash_bundle_present(dir));
  const CrashMeta meta = parse_crash_meta(dir + "/crash.meta");
  EXPECT_EQ(meta.signal, signo);
  EXPECT_EQ(meta.signame, signo == SIGSEGV ? "SIGSEGV" : "SIGABRT");
  EXPECT_NE(meta.fingerprint_text.find("build: gtest-harness"),
            std::string::npos);
  EXPECT_FALSE(meta.backtrace.empty());

  const DecodedFlightDump dump = decode_flight_dump(dir + "/flight.bin");
  ASSERT_GE(dump.events.size(), marker_count + 1);
  // The tail is the recorded markers in order, then the handler's own
  // kCrashSignal stamp — the last thing the process ever wrote.
  const DecodedFlightEvent& last = dump.events.back();
  EXPECT_EQ(last.id, static_cast<std::uint16_t>(FE::kCrashSignal));
  EXPECT_EQ(last.a0, static_cast<std::uint64_t>(signo));
  for (std::uint64_t i = 0; i < marker_count; ++i) {
    const DecodedFlightEvent& e =
        dump.events[dump.events.size() - 1 - marker_count + i];
    EXPECT_EQ(e.id, static_cast<std::uint16_t>(FE::kFrameDecode));
    EXPECT_EQ(e.a0, i);
    EXPECT_EQ(e.a1, 0x5eedULL);
  }
  // The pre-serialized snapshots were dumped too (possibly empty, but the
  // files must exist: the handler writes whatever the last refresh held).
  EXPECT_TRUE(std::filesystem::exists(dir + "/metrics.jsonl"));
  EXPECT_TRUE(std::filesystem::exists(dir + "/extra.jsonl"));
}

TEST(CrashFork, SigsegvProducesDecodableBundle) {
  run_induced_crash(SIGSEGV, tmp_path("crash_segv"), 11);
}

TEST(CrashFork, SigabrtProducesDecodableBundle) {
  run_induced_crash(SIGABRT, tmp_path("crash_abrt"), 7);
}

// The whole pipeline under load: a daemon with `crash_at=20` dies on its
// 20th inbound frame mid-burst; the bundle's flight timeline must agree
// with what the surviving client observed.
TEST(CrashFork, ServeCrashAtMidBurstBundleMatchesClient) {
  const std::string dir = tmp_path("crash_serve");
  std::filesystem::remove_all(dir);
  constexpr std::int64_t kCrashAt = 20;

  int ready[2];
  ASSERT_EQ(pipe(ready), 0);
  const pid_t pid = fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    close(ready[0]);
    arm_flight_recorder({.events_per_thread = 4096, .max_threads = 32});
    CrashHandlerConfig cc;
    cc.bundle_dir = dir;
    cc.fingerprint_text = "build: gtest-serve\n";
    cc.refresh_period_ms = 0;
    try {
      install_crash_handler(cc);
    } catch (const Error&) {
      _exit(90);
    }
    refresh_crash_snapshots();
    const auto net = snn::make_snn_mlp({});
    const Shape per_sample{snn::MlpConfig{}.in_features};
    const auto model = infer::CompiledModel::compile(*net, per_sample);
    serve::ServerConfig cfg;
    cfg.port = 0;
    cfg.num_workers = 1;
    cfg.max_batch = 4;
    cfg.batch_timeout_us = 0;
    cfg.fault_spec = "crash_at=" + std::to_string(kCrashAt) + ",seed=7";
    serve::Server server(model, cfg);
    server.start();
    const std::uint32_t port = static_cast<std::uint32_t>(server.port());
    if (write(ready[1], &port, sizeof port) != sizeof port) _exit(92);
    // The crash arrives on a reader thread; just stay alive until it does.
    for (;;) pause();
  }
  close(ready[1]);
  std::uint32_t port = 0;
  ASSERT_EQ(read(ready[0], &port, sizeof port),
            static_cast<ssize_t>(sizeof port));
  close(ready[0]);

  const std::int64_t elems = Shape{snn::MlpConfig{}.in_features}.numel();
  std::int64_t completed = 0;
  {
    serve::TcpClient client("127.0.0.1", static_cast<int>(port), 4000);
    Rng rng(99);
    for (int i = 0; i < 100; ++i) {
      serve::InferRequest req;
      req.request_id = static_cast<std::uint64_t>(i + 1);
      req.num_steps = 4;
      req.elems_per_step = static_cast<std::uint32_t>(elems);
      req.data.resize(4 * static_cast<std::size_t>(elems));
      for (float& v : req.data) v = rng.uniform() < 0.2 ? 1.0f : 0.0f;
      const serve::TcpClient::Reply reply = client.roundtrip(req);
      if (reply.disconnected) break;
      if (reply.ok) ++completed;
    }
  }
  // Frames 1..19 complete; frame 20 kills the daemon once it arrives.
  EXPECT_EQ(completed, kCrashAt - 1);

  int status = 0;
  ASSERT_EQ(waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFSIGNALED(status)) << "daemon exited " << status;
  EXPECT_EQ(WTERMSIG(status), SIGSEGV);

  ASSERT_TRUE(crash_bundle_present(dir));
  EXPECT_EQ(parse_crash_meta(dir + "/crash.meta").signal, SIGSEGV);
  const DecodedFlightDump dump = decode_flight_dump(dir + "/flight.bin");
  std::int64_t responses_ok = 0, crash_injected = 0, crash_signal = 0;
  for (const DecodedFlightEvent& e : dump.events) {
    if (e.id == static_cast<std::uint16_t>(FE::kResponseSent) && e.a1 == 1)
      ++responses_ok;
    if (e.id == static_cast<std::uint16_t>(FE::kCrashInjected)) {
      ++crash_injected;
      EXPECT_EQ(e.a0, static_cast<std::uint64_t>(kCrashAt));
    }
    if (e.id == static_cast<std::uint16_t>(FE::kCrashSignal)) ++crash_signal;
  }
  // Mutual consistency: the black box saw the responses the client got
  // (the final one may lose the race between the worker's write_frame
  // returning and the handler freezing the recorder), exactly one injected
  // crash, and the handler's own signal stamp.
  EXPECT_GE(responses_ok, completed - 1);
  EXPECT_LE(responses_ok, completed);
  EXPECT_EQ(crash_injected, 1);
  EXPECT_EQ(crash_signal, 1);
}

#endif  // !SPIKETUNE_TSAN_BUILD

}  // namespace
}  // namespace spiketune::obs
