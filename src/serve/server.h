// The serving daemon's core: transport + dynamic batcher + worker pool.
//
//   clients ──> Listener ──> reader threads ──> Batcher ──> worker threads
//                                                  │             │
//                            admission control ────┘             ├── per-worker
//                            (queue-depth bound)                 │   InferenceSession
//                                                 responses <────┘
//
// One reader thread per connection decodes frames and admits requests; N
// worker threads each own a pre-sized InferenceSession over the shared
// CompiledModel and pull dynamic batches (same-T coalescing under the
// batcher's cost-aware close rule).  Workers respond directly on the request's connection —
// Connection::write_frame is thread-safe — so a slow client never blocks
// the batch pipeline behind it.
//
// Serving is bitwise-faithful: a request's spike counts equal a direct
// InferenceSession::run on the same window, whatever batch it rode in,
// because every kernel computes samples independently and no kernel
// choice depends on the batch (DESIGN.md §10, §11).  bench/serve_loadgen's
// parity gate enforces this end to end.
//
// The daemon speaks protocol v3 only (serve/protocol.h): a frame with any
// other version drops its own connection and nothing else.  Streaming:
// STREAM_OPEN and STREAM_CLOSE are handled inline at the reader (like
// STAT), while STREAM_STEP rides the same batcher as plain requests — a
// worker swaps each stream's persistent StreamState in around the batched
// session.run, so chunks from thousands of concurrent streams coalesce
// into the same dynamic batches.  The infer::StreamManager bounds
// in-memory state with LRU checkpoint/restore (DESIGN.md §15).
//
// Unhappy paths are first-class (DESIGN.md §13).  Every admitted request
// is answered exactly once, by exactly one of: a response (served), a
// deadline-exceeded shed, an internal-error isolation, a dropped write
// to a vanished peer, or — for a STREAM_STEP whose stream was closed while
// it sat queued — a bad-request orphan bounce, so `admitted == served +
// dropped_responses + deadline_shed + internal_errors +
// stream_orphan_steps` holds at drain (serve::unanswered() == 0).  Slow
// peers are cut by the bounded send path (send_timeout_ms), silent ones by
// the acceptor's idle reaper (idle_timeout_ms), and a request that makes
// inference throw is answered kInternalError without taking its batchmates
// or its worker down — as is a STREAM_STEP whose state cannot be swapped
// in (corrupt or missing spill file at restore).  A peer that vanishes
// without closing its streams has them reaped at reader exit
// (stream_auto_closed), so an abandoned client never wedges max_live
// capacity; during a drain they are left open for checkpoint_all instead.
// For chaos testing, fault_spec wraps the listener in the deterministic
// injector from serve/fault.h.
//
// Every counter (Stats field, STAT key, ledger-final key, obs counter,
// accounting-identity term) is one row of SPIKETUNE_SERVE_COUNTERS in
// serve/counters.h; a new row yields all of them, and call sites count
// with bump(Counter::row).  Likewise every request stage (STAT key,
// windowed and obs histogram) is one row of SPIKETUNE_SPAN_STAMPS in
// obs/spans.h, recorded at send for each request answered with a response.
//
// Shutdown is drain-safe: drain_and_stop() (the daemon calls it when the
// cooperative SIGINT/SIGTERM handler fires — see obs/signal_flush.h) stops
// accepting connections and requests, answers or sheds everything already
// admitted, joins all threads, and leaves telemetry ready to flush.
// Nothing is dropped except requests that had not yet been admitted, whose
// clients see a `shutting-down` error or a closed connection.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "infer/session.h"
#include "infer/stream.h"
#include "obs/spans.h"
#include "obs/window.h"
#include "serve/batcher.h"
#include "serve/counters.h"
#include "serve/fault.h"
#include "serve/slo.h"
#include "serve/transport.h"

namespace spiketune::serve {

// Every member has a default member initializer (`{}` for the ones whose
// default is empty), so a designated initializer may name any subset
// without -Wmissing-field-initializers.
struct ServerConfig {
  std::string host = "127.0.0.1";
  int port = 0;  // 0 = ephemeral (resolved port via Server::port())
  int num_workers = 2;
  std::int64_t max_batch = 16;
  std::int64_t batch_timeout_us = 2000;  // upper bound on holding a batch
  std::int64_t max_queue_depth = 256;    // admission-control bound
  std::int64_t max_steps = 64;           // per-request window-length cap
  // Connection hygiene.  send_timeout_ms bounds every response write: a
  // peer that stops reading is cut after this budget instead of wedging a
  // worker (0 = unbounded).  idle_timeout_ms reaps connections with no
  // completed frame in that long (0 = never); the acceptor checks on a
  // <= 1 s tick, so enforcement lags by up to one tick.
  int send_timeout_ms = 5000;
  int idle_timeout_ms = 0;
  int sndbuf_bytes = 0;  // SO_SNDBUF for accepted sockets (0 = OS default)
  // Deterministic fault injection (serve/fault.h).  Empty = real TCP; a
  // spec string wraps the listener so every accepted connection misbehaves
  // on a seeded schedule.  fault_log (optional) is where the fired-fault
  // JSONL is written at drain.
  std::string fault_spec{};
  std::string fault_log{};
  // Test hook: called for every request before each run it rides in, so
  // again when a failed batch's rows re-run alone.  Lets tests wedge a
  // worker (sleep) or poison a chosen request (throw) deterministically.
  // Leave empty in production.
  std::function<void(const InferRequest&)> poison_hook{};
  // Request-scoped observability (see obs/spans.h).  Sampling keys off the
  // server-assigned request id: 0 disables spans, 1 records every request.
  std::uint64_t span_sample_every = 16;
  std::size_t span_capacity = 4096;  // spans retained in the ring
  std::string span_log{};            // JSONL dump path, written at drain
  // Live windowed aggregates (STAT snapshots) look back this many seconds
  // (must be positive).
  int stat_window_s = 10;
  // Latency SLO: target 0 disables; budget is the allowed violation
  // fraction (serve/slo.h).
  double slo_target_ms = 0.0;
  double slo_budget = 0.01;
  // Streaming (protocol v3).  max_live_streams bounds in-memory per-stream
  // state; past it the LRU stream is checkpointed to stream_checkpoint_dir
  // and restored transparently on its next step.  With no directory set,
  // eviction is impossible, so opens past the bound are refused with
  // kOverloaded instead.
  std::int64_t max_live_streams = 4096;
  std::string stream_checkpoint_dir{};
  // Identification surfaced through STAT's "build" object (and serve_top):
  // a human-readable build stamp and the FNV-1a config fingerprint the
  // driver computed over build + model + flags (core/crc32.h).  Both are
  // purely informational; empty/0 omits the object.
  std::string build_stamp{};
  std::uint64_t config_fingerprint = 0;
};

class Server {
 public:
  /// The model must outlive the server (sessions keep pointers into it).
  Server(const infer::CompiledModel& model, ServerConfig config);
  ~Server();  // drain_and_stop() if still running

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds the listener and spawns acceptor + workers.  Call once.
  void start();

  /// The bound port (valid after start()).
  int port() const;

  /// True between start() and drain_and_stop().
  bool running() const { return running_.load(); }

  /// Drain-safe shutdown: stop admissions, answer or shed everything
  /// admitted, join every thread, close every connection.  Idempotent;
  /// blocks until the drain completes.
  void drain_and_stop();

  /// Monotonic counters for the final report / ledger, one field per
  /// row of serve/counters.h.
  using Stats = ServerStats;
  Stats stats() const;

  /// Live introspection snapshot: one compact JSON document with uptime,
  /// since-start totals, windowed (last stat_window_s seconds) latency
  /// quantiles + per-stage breakdown + QPS, batch-size distribution,
  /// deadline-shed state, SLO burn, and span-sampling state.  What the
  /// STAT opcode returns; safe to call from any thread while serving.
  std::string stat_json() const { return stat_json(stats()); }
  /// The same snapshot with `totals` as every counter value.
  std::string stat_json(const Stats& totals) const;

  const obs::SpanRecorder& spans() const { return spans_; }
  const SloTracker& slo() const { return slo_; }
  const FaultLog& fault_log() const { return fault_log_; }

 private:
  struct ReaderSlot {
    std::thread thread;
    std::shared_ptr<Connection> conn;
    std::atomic<bool> done{false};
    bool reaped = false;  // acceptor-only, under readers_mu_
  };

  void acceptor_main();
  void reader_main(ReaderSlot* slot);
  void worker_main(int index);
  void respond_error(const std::shared_ptr<Connection>& conn,
                     std::uint64_t request_id, ErrorCode code,
                     const std::string& message);
  /// Answers every request in `expired` with kDeadlineExceeded.
  void shed_expired(std::vector<PendingRequest>& expired);
  void reap_finished_readers();
  /// Aborts connections idle past idle_timeout_ms (acceptor tick).
  void reap_idle_connections();

  const infer::CompiledModel* model_;
  ServerConfig config_;
  Batcher batcher_;
  std::unique_ptr<Listener> listener_;
  FaultSpec fault_spec_;  // parsed from config_.fault_spec at start()
  FaultLog fault_log_;

  int stop_pipe_[2] = {-1, -1};  // wakes acceptor + readers at shutdown
  std::atomic<bool> running_{false};
  std::atomic<bool> stopping_{false};

  std::thread acceptor_;
  std::vector<std::thread> workers_;
  std::mutex readers_mu_;
  std::list<ReaderSlot> readers_;

  /// Adds n to a sum row (and to its obs counter) or raises a kMax row
  /// to n; returns the row's new value.
  std::int64_t bump(Counter c, std::int64_t n = 1);
  std::atomic<std::int64_t>& counter(Counter c) {
    return counters_[static_cast<std::size_t>(c)];
  }

  // One slot per serve/counters.h row (relaxed: monotonic tallies).  Rows
  // that StreamManager owns leave theirs at zero.
  std::array<std::atomic<std::int64_t>, kNumCounters> counters_{};

  // Per-stream persistent state (protocol v3), shared by readers (open /
  // close, inline) and workers (acquire / release around each batch).
  std::unique_ptr<infer::StreamManager> streams_;

  // Request-scoped observability.  server ids start at 1 so id 0 never
  // appears on the wire (and id % N == 0 sampling skips the pre-increment
  // value, not a real request).
  std::atomic<std::uint64_t> next_server_id_{0};
  obs::SpanRecorder spans_;
  SloTracker slo_;
  std::uint64_t start_ns_ = 0;

  // Windowed (last stat_window_s seconds) aggregates behind STAT; the
  // stage histograms are indexed like the obs/spans.h stage table.
  obs::WindowedHistogram w_request_us_;  // e2e: recv -> send
  std::array<obs::WindowedHistogram, obs::kNumStages> w_stage_us_;
  obs::WindowedHistogram w_batch_;       // samples per session run
  obs::WindowedRate w_served_;
  obs::WindowedRate w_rejected_;
  obs::WindowedRate w_deadline_shed_;
};

}  // namespace spiketune::serve
