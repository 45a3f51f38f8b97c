// SERVE — closed/open-loop load generator for the serving daemon.
//
// Drives a running `serve` daemon over TCP with per-connection client
// threads, measures per-request latency, and reports p50/p99/p999 plus the
// sustained QPS into BENCH_serve.json.  Two loops:
//
//   * closed (--qps 0, default): every connection keeps exactly one
//     request in flight; the aggregate completion rate IS the max
//     sustainable QPS for that concurrency.
//   * open (--qps R): arrivals are paced to the target rate across the
//     connections, and latency is measured from the *scheduled* send time,
//     so queueing delay from a daemon that cannot keep up counts against
//     it (no coordinated omission).
//
// Parity gate: the first --parity requests per connection are also run
// through a direct, local InferenceSession on an identically-constructed
// model, and the served spike counts must match BITWISE — dynamic batching
// must be invisible in the results, whatever batch each request rode in.
// Any mismatch fails the run (exit 1); a performance number for a wrong
// result is worthless.
//
// Unhappy paths are tallied separately, never lumped: overload rejections,
// shutdown drops, deadline misses (--deadline-us arms a per-request
// budget), internal errors, bad requests, and raw disconnects each get
// their own count in the table and the JSON.  With --retries N, transient
// failures (overload, internal error, disconnect) are retried with
// exponential backoff (--backoff-ms base) and automatic reconnect — the
// client survives a chaos daemon running --fault-spec — and the report
// separates goodput (completed) from retries and gave_up (budget
// exhausted).  Terminal outcomes (deadline miss, bad request, daemon
// draining) are never retried.
//
// A daemon SIGTERMed mid-burst is tolerated and reported: completed
// requests keep their latencies and parity checks, requests refused with
// `shutting-down` (or cut by the closing connection) are tallied as
// shutdown drops, and the JSON records shutdown_observed = true.
//
// Request mode and streaming mode (--streams) share one client path: one
// connection driver, one tally list, one parity replay, one STAT probe and
// one report writer; only the per-connection loop differs.
//
//   ./serve_loadgen --port 7421 --model mlp --requests 2000 --conns 8
//   ./serve_loadgen --port 7421 --qps 500 --json BENCH_serve.json
//   ./serve_loadgen --port 7421 --retries 8 --deadline-us 5000  # chaos
#include <algorithm>
#include <chrono>
#include <climits>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <mutex>
#include <thread>
#include <tuple>
#include <vector>

#include <filesystem>

#include "core/cli.h"
#include "core/error.h"
#include "core/json.h"
#include "core/parallel.h"
#include "core/rng.h"
#include "core/stats.h"
#include "core/table.h"
#include "exp/standard_flags.h"
#include "infer/session.h"
#include "obs/ledger.h"
#include "obs/metrics.h"
#include "serve/transport.h"
#include "snn/model_zoo.h"

using namespace spiketune;

namespace {

using Clock = std::chrono::steady_clock;

enum class Mode { kRequest, kStream };

// Every per-connection tally, declared once.
//
// X(field, request_key, stream_key, label): the tally's key in the
// request-mode JSON document and in the streaming mode's "streaming"
// object (nullptr: the mode does not report it), and its table row label
// (nullptr: no row; the title or the parity row shows it).
// clang-format off
#define LOADGEN_TALLIES(X)                                                   \
  X(completed, "completed", "steps_completed", nullptr)                      \
  X(opened, nullptr, "opened", "streams opened")                             \
  X(open_rejects, nullptr, "open_rejects", "open rejects")                   \
  X(step_errors, nullptr, "step_errors", "step errors")                      \
  X(close_errors, nullptr, "close_errors", "close errors")                   \
  X(closed, nullptr, "closed", "closed")                                     \
  X(rejected_overload, "rejected_overload", nullptr, "overload rejections")  \
  X(shutdown_drops, "shutdown_drops", "shutdown_drops", "shutdown drops")    \
  X(deadline_misses, "deadline_misses", nullptr, "deadline misses")          \
  X(internal_errors, "internal_errors", nullptr, "internal errors")          \
  X(bad_requests, "bad_requests", nullptr, "bad requests")                   \
  X(disconnects, "disconnects", "disconnects", "disconnects")                \
  X(retries, "retries", nullptr, "retries")                                  \
  X(gave_up, "gave_up", nullptr, "gave up")                                  \
  X(max_batch_seen, "max_batch_seen", nullptr, "max batch seen")             \
  X(parity_checked, "parity_checked", "parity_chunks_checked", nullptr)      \
  X(parity_failures, nullptr, nullptr, nullptr)                              \
  X(totals_checked, nullptr, "parity_totals_checked", nullptr)               \
  X(totals_failures, nullptr, nullptr, nullptr)
// clang-format on

struct Tallies {
#define LOADGEN_TALLY_FIELD(field, request_key, stream_key, label) \
  std::int64_t field = 0;
  LOADGEN_TALLIES(LOADGEN_TALLY_FIELD)
#undef LOADGEN_TALLY_FIELD
};

struct TallyInfo {
  std::int64_t Tallies::*field;
  const char* request_key;
  const char* stream_key;
  const char* label;

  const char* key(Mode mode) const {
    return mode == Mode::kStream ? stream_key : request_key;
  }
};

constexpr TallyInfo kTallies[] = {
#define LOADGEN_TALLY_INFO(field, request_key, stream_key, label) \
  {&Tallies::field, request_key, stream_key, label},
    LOADGEN_TALLIES(LOADGEN_TALLY_INFO)
#undef LOADGEN_TALLY_INFO
};

struct ConnResult {
  Tallies n;
  /// Per completed request (or stream step), from its scheduled send.
  std::vector<double> latency_ms;
  // Daemon-reported per-stage times (us) for each completed request, from
  // the response's queue/assemble/infer diagnostics (request mode).
  std::vector<double> queue_us;
  std::vector<double> assemble_us;
  std::vector<double> infer_us;
};

/// Combines the connections: every tally sums except max_batch_seen,
/// which takes the max; the samples concatenate.
ConnResult combine(const std::vector<ConnResult>& conns) {
  ConnResult tot;
  for (const ConnResult& r : conns) {
    for (const TallyInfo& t : kTallies) {
      std::int64_t& v = tot.n.*t.field;
      v = t.field == &Tallies::max_batch_seen ? std::max(v, r.n.*t.field)
                                              : v + r.n.*t.field;
    }
    for (auto samples : {&ConnResult::latency_ms, &ConnResult::queue_us,
                         &ConnResult::assemble_us, &ConnResult::infer_us})
      (tot.*samples).insert((tot.*samples).end(), (r.*samples).begin(),
                            (r.*samples).end());
  }
  return tot;
}

/// Every flag value, read and range-checked before any thread starts.
struct Options {
  std::string host;
  int port = 0, retry_ms = 0, conns = 0;
  std::int64_t total_requests = 0, parity_per_conn = 0;
  std::int64_t retry_budget = 0, backoff_ms = 0;
  std::uint64_t deadline_us = 0;
  std::uint32_t num_steps = 0;
  double density = 0.0, qps = 0.0;
  float beta = 0.0f, theta = 0.0f;
  std::int64_t streams_total = 0, steps_per_stream = 0;
  double stream_hz = 0.0;
  std::string model_name, json_path, ledger_dir;
};

/// Throws Error on a malformed or out-of-range value.
Options read_options(const CliFlags& flags) {
  Options o;
  o.host = flags.get("host");
  o.port = static_cast<int>(flags.get_int("port"));
  const std::int64_t retry_ms = flags.get_int("connect-retry-ms");
  o.conns = static_cast<int>(flags.get_int("conns"));
  o.total_requests = flags.get_int("requests");
  const std::int64_t num_steps = flags.get_int("num-steps");
  o.density = flags.get_double("density");
  o.qps = flags.get_double("qps");
  const std::int64_t deadline_us = flags.get_int("deadline-us");
  o.retry_budget = flags.get_int("retries");
  o.backoff_ms = flags.get_int("backoff-ms");
  o.parity_per_conn = flags.get_int("parity");
  o.beta = static_cast<float>(flags.get_double("beta"));
  o.theta = static_cast<float>(flags.get_double("theta"));
  o.streams_total = flags.get_int("streams");
  o.steps_per_stream = flags.get_int("steps-per-stream");
  o.stream_hz = flags.get_double("stream-hz");
  o.model_name = flags.get("model");
  o.json_path = flags.get("json");
  o.ledger_dir = flags.get("ledger");
  ST_REQUIRE(o.conns > 0 && o.total_requests > 0,
             "--conns and --requests must be positive");
  ST_REQUIRE(o.streams_total >= 0 && o.steps_per_stream > 0,
             "--streams must be >= 0 and --steps-per-stream positive");
  ST_REQUIRE(o.retry_budget >= 0 && o.backoff_ms >= 0,
             "--retries and --backoff-ms must be non-negative");
  // The upper bound on --num-steps is the frame payload cap, checked once
  // the model's elements per step are known.
  ST_REQUIRE(num_steps >= 1, "--num-steps must be at least 1");
  ST_REQUIRE(o.density >= 0.0 && o.density <= 1.0,
             "--density must lie in [0, 1]");
  ST_REQUIRE(o.qps >= 0.0 && o.stream_hz >= 0.0 && deadline_us >= 0 &&
                 retry_ms >= 0 && retry_ms <= INT_MAX,
             "--qps, --stream-hz, --deadline-us and --connect-retry-ms "
             "must be non-negative");
  o.retry_ms = static_cast<int>(retry_ms);
  o.num_steps = static_cast<std::uint32_t>(
      std::min<std::int64_t>(num_steps, UINT32_MAX));
  o.deadline_us = static_cast<std::uint64_t>(deadline_us);
  return o;
}

/// One sample's spike window, firing with probability `density` per
/// element per step.  Deterministic per (seed, conn, request).
serve::InferRequest make_request(const Options& o, std::uint64_t request_id,
                                 std::int64_t elems, Rng& rng) {
  serve::InferRequest req;
  req.request_id = request_id;
  req.num_steps = o.num_steps;
  req.elems_per_step = static_cast<std::uint32_t>(elems);
  req.deadline_us = o.deadline_us;
  req.data.resize(static_cast<std::size_t>(o.num_steps) *
                  static_cast<std::size_t>(elems));
  for (float& v : req.data) v = rng.uniform() < o.density ? 1.0f : 0.0f;
  return req;
}

/// The parity gate's local replica of the daemon's model, one per
/// connection thread (sessions are not thread-safe).
class ParityReplay {
 public:
  /// Every replay is a single sample, so the session holds one.
  explicit ParityReplay(const infer::CompiledModel& model)
      : session_(model, {.max_batch = 1}) {}

  /// Replays `req`'s window through run(StreamState* const*, 1, window)
  /// and compares the served counts bitwise.  A stream chunk passes its
  /// stream's persistent replica as `state`; a plain request passes
  /// nullptr, which the session runs on a fresh scratch stream, exactly as
  /// the daemon's workers run plain rows.
  bool matches(infer::StreamState* state, const serve::InferRequest& req,
               const std::vector<float>& served) {
    const infer::InferenceResult want = session_.run(
        &state, 1,
        serve::window_tensors({&req}, session_.model().input_shape()));
    return served.size() ==
               static_cast<std::size_t>(want.spike_counts.numel()) &&
           std::memcmp(want.spike_counts.data(), served.data(),
                       served.size() * sizeof(float)) == 0;
  }

 private:
  infer::InferenceSession session_;
};

/// Open loop: sleeps until `start + offset_s` and returns that slot.
/// Latency is measured from the slot, not the actual send, so a backed-up
/// daemon pays its queueing delay (no coordinated omission).
Clock::time_point wait_for_slot(Clock::time_point start, double offset_s) {
  const auto slot = start + std::chrono::duration_cast<Clock::duration>(
                                std::chrono::duration<double>(offset_s));
  std::this_thread::sleep_until(slot);
  return slot;
}

double ms_since(Clock::time_point t) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t).count();
}

struct Burst {
  std::vector<ConnResult> conns;
  double elapsed_s = 0.0;
  std::string error;  // the first connect or client failure; "" if none
};

/// The one connection driver: runs `body(c, start, client, result)` for
/// every connection with `work(c) > 0` on its own thread, connected with
/// --connect-retry-ms, and times the burst from `start`.  A connection
/// that cannot connect, or whose body throws, ends its thread; the first
/// such error is kept.
template <typename Work, typename Body>
Burst run_burst(const Options& o, Work work, Body body) {
  Burst b;
  b.conns.resize(static_cast<std::size_t>(o.conns));
  std::mutex error_mu;
  const auto start = Clock::now();
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(o.conns));
  for (int c = 0; c < o.conns; ++c) {
    threads.emplace_back([&, c] {
      if (work(c) == 0) return;
      std::string failure = "cannot reach the daemon: ";
      try {
        auto client =
            std::make_unique<serve::TcpClient>(o.host, o.port, o.retry_ms);
        failure = "connection " + std::to_string(c) + " failed: ";
        body(c, start, client, b.conns[static_cast<std::size_t>(c)]);
      } catch (const std::exception& e) {
        std::lock_guard<std::mutex> lock(error_mu);
        if (b.error.empty()) b.error = failure + e.what();
      }
    });
  }
  for (std::thread& t : threads) t.join();
  b.elapsed_s = std::chrono::duration<double>(Clock::now() - start).count();
  return b;
}

/// Request mode: --requests windows split over the connections, each
/// retried under --retries.
Burst run_requests(const Options& o, const infer::CompiledModel& model) {
  const std::int64_t elems = model.input_shape().numel();
  const std::int64_t per_conn =
      (o.total_requests + o.conns - 1) / o.conns;  // last conn may send fewer
  const auto count_for = [&](int c) {
    return std::max<std::int64_t>(
        0, std::min(per_conn, o.total_requests - c * per_conn));
  };
  const double interval_s = o.qps > 0 ? 1.0 / o.qps : 0.0;
  return run_burst(o, count_for, [&](int c, Clock::time_point t_start,
                                     std::unique_ptr<serve::TcpClient>& client,
                                     ConnResult& r) {
    const std::int64_t count = count_for(c);
    ParityReplay replay(model);
    Rng rng(0x10adc4feULL ^
            (0x9e3779b97f4a7c15ULL * static_cast<std::uint64_t>(c + 1)));
    r.latency_ms.reserve(static_cast<std::size_t>(count));
    bool conn_dead = false;
    for (std::int64_t i = 0; i < count && !conn_dead; ++i) {
      const serve::InferRequest req = make_request(
          o,
          (static_cast<std::uint64_t>(c) << 32) | static_cast<std::uint64_t>(i),
          elems, rng);

      // Open loop: the global slot index interleaves connections.
      const auto scheduled =
          o.qps > 0 ? wait_for_slot(t_start, (static_cast<double>(i) *
                                                  static_cast<double>(o.conns) +
                                              static_cast<double>(c)) *
                                                 interval_s)
                    : Clock::now();

      // Send / retry until completed, terminal, or out of budget.
      serve::TcpClient::Reply reply;
      bool completed = false;
      std::int64_t attempts = 0;
      // Spends one retry when the budget allows, after an exponential
      // backoff (doubling per attempt, capped at 64x --backoff-ms).
      const auto retry = [&] {
        if (attempts >= o.retry_budget) return false;
        ++attempts;
        ++r.n.retries;
        std::this_thread::sleep_for(std::chrono::milliseconds(
            o.backoff_ms << std::min<std::int64_t>(attempts - 1, 6)));
        return true;
      };
      for (;;) {
        if (client == nullptr) {
          // Reconnect (single attempt; the backoff paces the loop).  A
          // refused connect means the daemon is gone — a drain, from
          // this side — so stop the connection like a shutdown drop.
          try {
            client = std::make_unique<serve::TcpClient>(o.host, o.port, 0);
          } catch (const Error&) {
            if (retry()) continue;
            ++r.n.shutdown_drops;
            conn_dead = true;
            break;
          }
        }
        reply = client->roundtrip(req);
        if (reply.disconnected) {
          ++r.n.disconnects;
          client.reset();
          if (retry()) continue;
          if (o.retry_budget == 0) {
            // Pre-chaos semantics: a cut connection means the daemon
            // drained away; stop this connection.
            ++r.n.shutdown_drops;
            conn_dead = true;
          } else {
            ++r.n.gave_up;
          }
          break;
        }
        if (!reply.ok) {
          if (reply.error.code == serve::ErrorCode::kShuttingDown) {
            ++r.n.shutdown_drops;
            conn_dead = true;
            break;
          }
          if (reply.error.code == serve::ErrorCode::kOverloaded) {
            ++r.n.rejected_overload;
            if (retry()) continue;
            break;  // budget gone; move on to the next request
          }
          if (reply.error.code == serve::ErrorCode::kDeadlineExceeded) {
            ++r.n.deadline_misses;  // terminal: the answer is already late
            break;
          }
          if (reply.error.code == serve::ErrorCode::kInternalError) {
            ++r.n.internal_errors;
            if (retry()) continue;
            ++r.n.gave_up;
            break;
          }
          ++r.n.bad_requests;  // terminal: resending cannot fix it
          break;
        }
        completed = true;
        break;
      }
      if (!completed) continue;
      r.latency_ms.push_back(ms_since(scheduled));
      ++r.n.completed;
      r.n.max_batch_seen = std::max(
          r.n.max_batch_seen, static_cast<std::int64_t>(reply.response.batch));
      r.queue_us.push_back(static_cast<double>(reply.response.queue_ns) / 1e3);
      r.assemble_us.push_back(
          static_cast<double>(reply.response.assemble_ns) / 1e3);
      r.infer_us.push_back(static_cast<double>(reply.response.infer_ns) / 1e3);

      if (o.parity_per_conn < 0 || r.n.parity_checked < o.parity_per_conn) {
        ++r.n.parity_checked;
        if (!replay.matches(nullptr, req, reply.response.spike_counts))
          ++r.n.parity_failures;
      }
    }
  });
}

/// Streaming mode (protocol v3).  Every stream sends --steps-per-stream
/// chunks of --num-steps timesteps.  With --stream-hz R each chunk launches
/// on the stream's own open-loop schedule and latency is measured from the
/// scheduled slot (no coordinated omission); at 0 the connections step
/// their streams round-robin as fast as the daemon answers.  The parity
/// gate replays checked streams through a direct StreamState: every
/// chunk's counts AND the close totals must match bitwise — LRU
/// eviction/restore on the daemon must be invisible.
Burst run_streams(const Options& o, const infer::CompiledModel& model) {
  const std::int64_t elems = model.input_shape().numel();
  const auto streams_for = [&](int c) {
    return c < o.streams_total ? (o.streams_total - 1 - c) / o.conns + 1
                               : std::int64_t{0};
  };
  return run_burst(o, streams_for, [&](int c, Clock::time_point ts_start,
                                       std::unique_ptr<serve::TcpClient>&
                                           client,
                                       ConnResult& r) {
    struct LocalStream {
      std::uint64_t id = 0;  // 0 after an open reject: skipped
      Rng rng{0};
      infer::StreamState ref_state;  // parity replay state
      bool check = false;
    };
    std::vector<LocalStream> mine;
    for (std::int64_t g = c; g < o.streams_total; g += o.conns) {
      LocalStream s;
      s.id = static_cast<std::uint64_t>(g) + 1;
      s.rng = Rng(0x57e4317eadULL ^ (0x9e3779b97f4a7c15ULL * s.id));
      s.check = o.parity_per_conn < 0 ||
                static_cast<std::int64_t>(mine.size()) < o.parity_per_conn;
      mine.push_back(std::move(s));
    }
    ParityReplay replay(model);

    for (LocalStream& s : mine) {
      const auto ack = client->stream_open(s.id);
      if (ack.disconnected) {
        ++r.n.disconnects;
        return;
      }
      if (!ack.ok) {
        if (ack.error.code == serve::ErrorCode::kShuttingDown) {
          ++r.n.shutdown_drops;
          return;
        }
        ++r.n.open_rejects;
        s.id = 0;
        continue;
      }
      ++r.n.opened;
      if (s.check) s.ref_state = infer::StreamState(model);
    }

    for (std::int64_t k = 0; k < o.steps_per_stream; ++k) {
      for (LocalStream& s : mine) {
        if (s.id == 0) continue;
        const serve::InferRequest req = make_request(
            o, (s.id << 16) | static_cast<std::uint64_t>(k), elems, s.rng);

        // Per-stream phase spreads chunk launches evenly over the cadence
        // interval across the whole fleet.
        const double phase = static_cast<double>(s.id - 1) /
                             static_cast<double>(o.streams_total);
        const auto scheduled =
            o.stream_hz > 0
                ? wait_for_slot(ts_start,
                                (static_cast<double>(k) + phase) / o.stream_hz)
                : Clock::now();
        const auto reply = client->stream_step(s.id, req);
        if (reply.disconnected) {
          ++r.n.disconnects;
          return;
        }
        if (!reply.ok) {
          if (reply.error.code == serve::ErrorCode::kShuttingDown) {
            ++r.n.shutdown_drops;
            return;
          }
          // A shed or errored chunk never advanced the daemon's stream
          // state, so the local replay skips it too — the close totals
          // still have to agree.
          ++r.n.step_errors;
          continue;
        }
        r.latency_ms.push_back(ms_since(scheduled));
        ++r.n.completed;
        if (s.check) {
          ++r.n.parity_checked;
          if (!replay.matches(&s.ref_state, req, reply.response.spike_counts))
            ++r.n.parity_failures;
        }
      }
    }

    for (LocalStream& s : mine) {
      if (s.id == 0) continue;
      const auto cres = client->stream_close(s.id);
      if (cres.disconnected) {
        ++r.n.disconnects;
        return;
      }
      if (!cres.ok) {
        ++r.n.close_errors;
        continue;
      }
      ++r.n.closed;
      if (s.check) {
        ++r.n.totals_checked;
        const std::vector<float>& want = s.ref_state.cumulative_counts();
        if (cres.totals.steps_done !=
                static_cast<std::uint64_t>(s.ref_state.steps_done()) ||
            cres.totals.cumulative_counts.size() != want.size() ||
            (!want.empty() &&
             std::memcmp(want.data(), cres.totals.cumulative_counts.data(),
                         want.size() * sizeof(float)) != 0))
          ++r.n.totals_failures;
      }
    }
  });
}

/// Post-burst STAT snapshot of the daemon, or null when it cannot be
/// read (best-effort: a daemon that already drained or crashed just
/// leaves its fields out of the report).
JsonValue probe_stat(const Options& o) {
  try {
    serve::TcpClient probe(o.host, o.port, 0);
    const serve::TcpClient::StatReply reply = probe.stat(0);
    if (!reply.disconnected) return JsonValue::parse(reply.json, "STAT");
  } catch (const Error&) {
  }
  return JsonValue();
}

std::string mode_name(const Options& o) {
  if (o.streams_total > 0) return "streaming";
  return o.qps > 0 ? "open" : "closed";
}

std::string ms(double v) { return fmt_f(v, 2) + "ms"; }
std::string us(double v) { return fmt_f(v, 0) + "us"; }

/// What a run reports.  Every number goes through add(), which sets its
/// --json key and, given a table label, also prints it as a row, so the
/// table lists the document's numbers in the document's order.
struct Report {
  explicit Report(Mode m) : mode(m) {}

  void add(const char* key, JsonValue value, const char* label = nullptr,
           std::string text = {}) {
    fields.set(key, std::move(value));
    if (label != nullptr) table.add_row({label, std::move(text)});
  }

  /// Reports `tally`'s total under its key and label for this mode.
  void add(const Tallies& tot, std::int64_t Tallies::*tally) {
    for (const TallyInfo& t : kTallies)
      if (t.field == tally) {
        ST_ASSERT(t.key(mode) != nullptr, "tally not reported in this mode");
        add(t.key(mode), JsonValue(tot.*tally), t.label,
            std::to_string(tot.*tally));
      }
  }

  Mode mode;
  AsciiTable table{{"metric", "value"}};
  JsonValue fields = JsonValue::make_object();  // this mode's JSON keys
  std::vector<std::pair<std::string, double>> params;  // ledger manifest
  obs::LedgerFinal final_record;
  std::vector<std::pair<const char*, double>> gauges;  // loadgen.* metrics
};

/// Request mode's numbers.  Goodput counts only completed
/// (parity-checkable) responses, so under chaos it is the number that
/// matters; retries and misses are overhead.
Report request_report(const Options& o, ConnResult& tot, double elapsed_s,
                      const JsonValue& stat) {
  const Tallies& n = tot.n;
  const LatencyStats lat = summarize_latencies(tot.latency_ms);
  const LatencyStats queue = summarize_latencies(tot.queue_us);
  const LatencyStats assemble = summarize_latencies(tot.assemble_us);
  const LatencyStats inference = summarize_latencies(tot.infer_us);
  const double qps =
      elapsed_s > 0 ? static_cast<double>(n.completed) / elapsed_s : 0.0;
  const bool shutdown_observed = n.shutdown_drops > 0;
  const bool parity_ok = n.parity_failures == 0;

  Report rep(Mode::kRequest);
  rep.table.set_title("serve loadgen (" + std::to_string(n.completed) +
                      " completed, " + fmt_f(elapsed_s, 2) + "s)");
  rep.add("target_qps", JsonValue(o.qps));
  rep.add("conns", JsonValue(o.conns));
  rep.add("num_steps", JsonValue(static_cast<std::int64_t>(o.num_steps)));
  rep.add("requests", JsonValue(o.total_requests));
  rep.add(n, &Tallies::completed);
  rep.add(n, &Tallies::rejected_overload);
  rep.add(n, &Tallies::shutdown_drops);
  rep.add("shutdown_observed", JsonValue(shutdown_observed));
  rep.add("deadline_us", JsonValue(static_cast<std::int64_t>(o.deadline_us)));
  rep.add(n, &Tallies::deadline_misses);
  rep.add(n, &Tallies::internal_errors);
  rep.add(n, &Tallies::bad_requests);
  rep.add(n, &Tallies::disconnects);
  rep.add("retry_budget", JsonValue(o.retry_budget));
  rep.add(n, &Tallies::retries);
  rep.add(n, &Tallies::gave_up);
  rep.add("elapsed_s", JsonValue(elapsed_s));
  rep.add("max_sustainable_qps", JsonValue(qps));
  rep.add("goodput_qps", JsonValue(qps), "QPS (goodput)", fmt_f(qps, 0));
  rep.add("mean_ms", JsonValue(lat.mean), "mean", ms(lat.mean));
  rep.add("p50_ms", JsonValue(lat.p50), "p50", ms(lat.p50));
  rep.add("p90_ms", JsonValue(lat.p90), "p90", ms(lat.p90));
  rep.add("p99_ms", JsonValue(lat.p99), "p99", ms(lat.p99));
  rep.add("p999_ms", JsonValue(lat.p999), "p999", ms(lat.p999));
  rep.add("queue_mean_us", JsonValue(queue.mean), "queue wait mean",
          us(queue.mean));
  rep.add("queue_p99_us", JsonValue(queue.p99), "queue wait p99",
          us(queue.p99));
  rep.add("assemble_mean_us", JsonValue(assemble.mean), "assembly mean",
          us(assemble.mean));
  rep.add("assemble_p99_us", JsonValue(assemble.p99), "assembly p99",
          us(assemble.p99));
  rep.add("infer_mean_us", JsonValue(inference.mean), "inference mean",
          us(inference.mean));
  rep.add("infer_p99_us", JsonValue(inference.p99), "inference p99",
          us(inference.p99));
  rep.add(n, &Tallies::max_batch_seen);
  // Whether the daemon's flight recorder was armed for this burst (the CI
  // overhead comparison keys BENCH_serve.json pairs on it) and how much it
  // dropped; absent when STAT could not be read.
  if (const JsonValue* flight = stat.find("flight")) {
    const JsonValue* armed = flight->find("armed");
    if (armed != nullptr && armed->is_bool()) {
      rep.add("flight_recorder_armed", JsonValue(armed->as_bool()));
      rep.add("flight_dropped", JsonValue(static_cast<std::int64_t>(
                                    flight->number_or("dropped", 0))));
    }
  }
  rep.add(n, &Tallies::parity_checked);
  rep.add("parity", JsonValue(parity_ok), "parity",
          (parity_ok ? "ok (" : "FAILED (") +
              std::to_string(n.parity_checked) + " checked)");

  rep.params = {{"requests", static_cast<double>(o.total_requests)},
                {"conns", static_cast<double>(o.conns)},
                {"num_steps", static_cast<double>(o.num_steps)},
                {"density", o.density}};
  rep.final_record.values = {
      {"goodput_qps", qps},
      {"p99_ms", lat.p99},
      {"completed", static_cast<double>(n.completed)},
      {"parity", parity_ok ? 1.0 : 0.0},
      {"shutdown_observed", shutdown_observed ? 1.0 : 0.0}};
  rep.gauges = {{"loadgen.goodput_qps", qps},
                {"loadgen.completed", static_cast<double>(n.completed)},
                {"loadgen.parity", parity_ok ? 1.0 : 0.0}};
  return rep;
}

/// Streaming mode's numbers, plus the daemon's stream counters from STAT:
/// eviction/restore traffic and its own concurrency high-water mark (-1
/// when STAT could not be read).
Report stream_report(const Options& o, ConnResult& tot, double elapsed_s,
                     const JsonValue& stat) {
  const Tallies& n = tot.n;
  // Every surviving open stream steps concurrently through the burst.
  const std::int64_t max_concurrent = n.opened;
  const LatencyStats lat = summarize_latencies(tot.latency_ms);
  const double steps_per_s =
      elapsed_s > 0 ? static_cast<double>(n.completed) / elapsed_s : 0.0;
  const bool parity_ok = n.parity_failures == 0 && n.totals_failures == 0;
  const JsonValue* daemon = stat.find("streams");

  Report rep(Mode::kStream);
  rep.table.set_title("serve loadgen streaming (" +
                      std::to_string(n.completed) + " steps, " +
                      fmt_f(elapsed_s, 2) + "s)");
  rep.add("streams", JsonValue(o.streams_total));
  rep.add("conns", JsonValue(o.conns));
  rep.add("chunk_steps", JsonValue(static_cast<std::int64_t>(o.num_steps)));
  rep.add("steps_per_stream", JsonValue(o.steps_per_stream));
  rep.add("stream_hz", JsonValue(o.stream_hz));
  rep.add(n, &Tallies::opened);
  rep.add(n, &Tallies::open_rejects);
  rep.add("max_concurrent_streams", JsonValue(max_concurrent),
          "max concurrent", std::to_string(max_concurrent));
  rep.add(n, &Tallies::completed);
  rep.add(n, &Tallies::step_errors);
  rep.add(n, &Tallies::close_errors);
  rep.add(n, &Tallies::closed);
  rep.add(n, &Tallies::shutdown_drops);
  rep.add(n, &Tallies::disconnects);
  rep.add("elapsed_s", JsonValue(elapsed_s));
  rep.add("steps_per_s", JsonValue(steps_per_s), "steps/s",
          fmt_f(steps_per_s, 0));
  rep.add("step_mean_ms", JsonValue(lat.mean), "step mean", ms(lat.mean));
  rep.add("step_p50_ms", JsonValue(lat.p50), "step p50", ms(lat.p50));
  rep.add("step_p99_ms", JsonValue(lat.p99), "step p99", ms(lat.p99));
  rep.add("step_p999_ms", JsonValue(lat.p999), "step p999", ms(lat.p999));
  for (const auto& [key, stat_key, label] :
       {std::tuple{"daemon_peak_live", "peak_live", "daemon peak live"},
        std::tuple{"daemon_evicted", "evicted", "daemon evicted"},
        std::tuple{"daemon_restored", "restored", "daemon restored"}}) {
    const auto v = static_cast<std::int64_t>(
        daemon != nullptr ? daemon->number_or(stat_key, -1) : -1);
    rep.add(key, JsonValue(v), daemon != nullptr ? label : nullptr,
            std::to_string(v));
  }
  rep.add(n, &Tallies::parity_checked);
  rep.add(n, &Tallies::totals_checked);
  rep.add("parity", JsonValue(parity_ok), "parity",
          (parity_ok ? "ok (" : "FAILED (") +
              std::to_string(n.parity_checked) + " chunks, " +
              std::to_string(n.totals_checked) + " totals)");

  rep.params = {{"streams", static_cast<double>(o.streams_total)},
                {"steps_per_stream", static_cast<double>(o.steps_per_stream)},
                {"chunk_steps", static_cast<double>(o.num_steps)}};
  rep.final_record.values = {
      {"steps_per_s", steps_per_s},
      {"step_p99_ms", lat.p99},
      {"steps_completed", static_cast<double>(n.completed)},
      {"max_concurrent_streams", static_cast<double>(max_concurrent)},
      {"parity", parity_ok ? 1.0 : 0.0}};
  rep.gauges = {{"loadgen.stream_steps_per_s", steps_per_s},
                {"loadgen.parity", parity_ok ? 1.0 : 0.0}};
  return rep;
}

/// The one report writer: the table, the --json document (compact, one
/// line; streaming mode nests its keys under "streaming"), the loadgen.*
/// gauges and the run ledger.  It runs on EVERY exit after the burst — the
/// parity-failure path especially, since a gate trip with no final record
/// used to look identical to a run that never happened.
void write_report(const Options& o, const Report& rep, int argc,
                  char** argv) {
  rep.table.print(std::cout);
  if (!o.json_path.empty()) {
    JsonValue doc = JsonValue::make_object();
    doc.set("model", JsonValue(o.model_name));
    doc.set("mode", JsonValue(mode_name(o)));
    if (rep.mode == Mode::kStream)
      doc.set("streaming", rep.fields);
    else
      for (const auto& [key, value] : rep.fields.as_object())
        doc.set(key, value);
    std::ofstream out(o.json_path);
    ST_REQUIRE(out.good(), "cannot open " + o.json_path + " for writing");
    out << doc.dump() << "\n";
    std::cout << "wrote " << o.json_path << "\n";
  }
  if (obs::metrics_enabled())
    for (const auto& [name, value] : rep.gauges)
      obs::set(obs::gauge(name), value);
  if (!o.ledger_dir.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(o.ledger_dir, ec);
    obs::RunLedger ledger(o.ledger_dir + "/serve_loadgen.jsonl");
    obs::LedgerManifest m;
    m.run_id = "serve_loadgen";
    m.threads = o.conns;
    m.argv = join_argv(argc, argv);
    m.build = std::string("cxx ") + __VERSION__;
    m.info.emplace_back("model", o.model_name);
    m.info.emplace_back("mode", mode_name(o));
    m.params = rep.params;
    ledger.write_manifest(m);
    ledger.write_final(rep.final_record);
    std::cout << "wrote " << ledger.path() << "\n";
  }
}

}  // namespace

int main(int argc, char** argv) {
  CliFlags flags;
  flags.declare("host", "127.0.0.1", "daemon address");
  flags.declare("port", "7421", "daemon port");
  flags.declare("connect-retry-ms", "4000",
                "keep retrying the initial connect this long (daemon "
                "startup race)");
  flags.declare("model", "mlp",
                "reference topology for the parity gate: must match the "
                "daemon's --model");
  flags.declare("beta", "0.5", "LIF leak (must match the daemon)");
  flags.declare("theta", "1.5", "LIF threshold (must match the daemon)");
  flags.declare("conns", "4", "concurrent client connections");
  flags.declare("requests", "400", "total requests across all connections");
  flags.declare("num-steps", "8", "timesteps per request window");
  flags.declare("density", "0.15", "input spike probability per step");
  flags.declare("qps", "0",
                "open-loop target rate (0 = closed loop at --conns "
                "concurrency)");
  flags.declare("deadline-us", "0",
                "per-request latency budget sent on the wire (0 = none)");
  flags.declare("retries", "0",
                "retry budget per request for transient failures "
                "(overload / disconnect / internal error; 0 = give up "
                "immediately, the pre-chaos behavior)");
  flags.declare("backoff-ms", "5",
                "base retry backoff, doubled per attempt");
  flags.declare("streams", "0",
                "streaming mode (protocol v3): open this many concurrent "
                "streams across --conns connections and step each one "
                "--steps-per-stream times (0 = plain request mode)");
  flags.declare("steps-per-stream", "16",
                "streaming mode: chunks sent per stream (each chunk is "
                "--num-steps timesteps)");
  flags.declare("stream-hz", "0",
                "streaming mode: per-stream chunk cadence (chunks/s; 0 = "
                "closed loop, step as fast as the daemon answers)");
  flags.declare("parity", "8",
                "verify this many responses per connection bitwise against "
                "a direct InferenceSession (-1 = all); in streaming mode, "
                "replay this many streams per connection through a direct "
                "StreamState (every chunk and the close totals)");
  flags.declare("json", "BENCH_serve.json", "JSON summary path (empty: skip)");
  flags.declare("ledger", "", "write a run ledger into this directory");
  exp::declare_standard_flags(flags, exp::DriverKind::kPlain);
  return run_main(flags, argc, argv, [&] {
    const auto std_flags =
        exp::apply_standard_flags(flags, exp::DriverKind::kPlain);
    // Read every flag value before any client thread starts.
    const Options o = read_options(flags);

    // Reference model for the parity gate: identical construction to the
    // daemon (same zoo topology, same weight seed), so weights are bitwise
    // the same.
    snn::LifConfig lif;
    lif.beta = o.beta;
    lif.threshold = o.theta;
    snn::NamedModel zoo = snn::make_model_by_name(o.model_name, lif);
    const auto model = infer::CompiledModel::compile(*zoo.net, zoo.per_sample);
    zoo.net.reset();
    // The largest frame this run sends: a stream step carries a u64 stream
    // id ahead of the 16-byte request header, then the window's floats.
    const std::uint64_t frame_overhead = o.streams_total > 0 ? 24 : 16;
    const std::uint64_t step_bytes =
        static_cast<std::uint64_t>(zoo.per_sample.numel()) * sizeof(float);
    ST_REQUIRE(
        o.num_steps <= (serve::kMaxPayloadBytes - frame_overhead) / step_bytes,
        "--num-steps " + std::to_string(o.num_steps) +
            " puts a request above the " +
            std::to_string(serve::kMaxPayloadBytes) +
            "-byte frame payload cap");

    if (o.streams_total > 0) {
      std::cout << "== SERVE loadgen (streaming): " << o.host << ":" << o.port
                << ", " << o.streams_total << " streams over " << o.conns
                << " conns, " << o.steps_per_stream << " chunks x T "
                << o.num_steps
                << (o.stream_hz > 0
                        ? ", " + fmt_f(o.stream_hz, 1) + " chunks/s/stream"
                        : std::string(", closed loop"))
                << " ==\n";
    } else {
      std::cout << "== SERVE loadgen: " << o.host << ":" << o.port << ", "
                << o.total_requests << " requests over " << o.conns
                << " conns, T " << o.num_steps << ", "
                << (o.qps > 0 ? "open loop @ " + fmt_f(o.qps, 0) + " QPS"
                              : std::string("closed loop"))
                << (o.deadline_us > 0
                        ? ", deadline " + std::to_string(o.deadline_us) + "us"
                        : std::string())
                << (o.retry_budget > 0
                        ? ", retries " + std::to_string(o.retry_budget)
                        : std::string())
                << " ==\n";
    }

    const Burst burst = o.streams_total > 0 ? run_streams(o, model)
                                            : run_requests(o, model);
    if (!burst.error.empty()) {
      std::cerr << burst.error << "\n";
      return 1;
    }
    ConnResult tot = combine(burst.conns);
    const JsonValue stat = probe_stat(o);
    const Report rep = o.streams_total > 0
                           ? stream_report(o, tot, burst.elapsed_s, stat)
                           : request_report(o, tot, burst.elapsed_s, stat);
    write_report(o, rep, argc, argv);

    const Tallies& n = tot.n;
    if (n.parity_failures != 0 || n.totals_failures != 0) {
      if (o.streams_total > 0)
        std::cerr << "STREAM PARITY FAILURE: " << n.parity_failures
                  << " chunk mismatches, " << n.totals_failures
                  << " close-total mismatches (of " << n.parity_checked
                  << " chunks / " << n.totals_checked << " totals checked)\n";
      else
        std::cerr << "PARITY FAILURE: " << n.parity_failures << " of "
                  << n.parity_checked
                  << " checked responses differ from a direct "
                     "InferenceSession run\n";
      return 1;
    }
    if (n.completed == 0) {
      std::cerr << (o.streams_total > 0 ? "no stream steps completed\n"
                                        : "no requests completed\n");
      return 1;
    }
    return 0;
  });
}
