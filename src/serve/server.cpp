#include "serve/server.h"

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <optional>
#include <span>
#include <stdexcept>
#include <unordered_set>
#include <utility>

#include "core/error.h"
#include "core/json.h"
#include "core/logging.h"
#include "obs/flight.h"
#include "obs/metrics.h"
#include "obs/profiler.h"
#include "obs/telemetry.h"
#include "obs/trace.h"
#include "serve/metric_ids.h"

namespace spiketune::serve {

namespace {

std::uint64_t now_ns() { return obs::telemetry_now_ns(); }

/// Rejects a config the daemon cannot run, before any member is built.
const ServerConfig& checked(const ServerConfig& cfg) {
  ST_REQUIRE(cfg.num_workers > 0, "num_workers must be positive");
  ST_REQUIRE(cfg.max_steps > 0, "max_steps must be positive");
  ST_REQUIRE(cfg.send_timeout_ms >= 0, "send_timeout_ms must be non-negative");
  ST_REQUIRE(cfg.idle_timeout_ms >= 0, "idle_timeout_ms must be non-negative");
  ST_REQUIRE(cfg.max_live_streams > 0, "max_live_streams must be positive");
  ST_REQUIRE(cfg.stat_window_s > 0, "stat_window_s must be positive");
  return cfg;
}

/// One windowed histogram per index, each over `w`.
template <std::size_t... I>
std::array<obs::WindowedHistogram, sizeof...(I)> windows(
    const obs::WindowConfig& w, std::index_sequence<I...>) {
  return {obs::WindowedHistogram((static_cast<void>(I), w))...};
}

/// Windowed histogram summary as an ordered JSON object (times in us).
JsonValue hist_json(const obs::LogHistogram& h) {
  JsonValue o = JsonValue::make_object();
  o.set("count", JsonValue(h.count()));
  o.set("mean", JsonValue(h.mean_or(0.0)));
  o.set("p50", JsonValue(h.quantile(0.50)));
  o.set("p99", JsonValue(h.quantile(0.99)));
  o.set("p999", JsonValue(h.quantile(0.999)));
  o.set("max", JsonValue(h.max_seen()));
  return o;
}

/// The counter rows in one STAT section, under their section keys.
JsonValue counter_section(const ServerStats& s, StatSection section) {
  JsonValue o = JsonValue::make_object();
  for (const CounterRow& r : kCounterRows)
    if ((r.sections & section) != 0)
      o.set(section == kTotals ? r.name : r.key, JsonValue(s.*r.field));
  return o;
}

}  // namespace

Server::Server(const infer::CompiledModel& model, ServerConfig config)
    : model_(&model),
      config_(checked(config)),
      batcher_({.max_batch = config_.max_batch,
                .batch_timeout_us = config_.batch_timeout_us,
                .max_queue_depth = config_.max_queue_depth}),
      spans_(config_.span_capacity, config_.span_sample_every),
      slo_({.target_ms = config_.slo_target_ms, .budget = config_.slo_budget}),
      w_request_us_({.epochs = config_.stat_window_s}),
      w_stage_us_(windows({.epochs = config_.stat_window_s},
                          std::make_index_sequence<obs::kNumStages>())),
      w_batch_({.epochs = config_.stat_window_s}),
      w_served_({.epochs = config_.stat_window_s}),
      w_rejected_({.epochs = config_.stat_window_s}),
      w_deadline_shed_({.epochs = config_.stat_window_s}) {
  streams_ = std::make_unique<infer::StreamManager>(
      model, config_.max_live_streams, config_.stream_checkpoint_dir);
}

Server::~Server() { drain_and_stop(); }

void Server::start() {
  ST_REQUIRE(!running_.load(), "server already started");
  ST_REQUIRE(pipe(stop_pipe_) == 0, "cannot create stop pipe");
  start_ns_ = now_ns();
  auto tcp = std::make_unique<TcpListener>(
      config_.host, config_.port,
      TcpListenerOptions{.sndbuf_bytes = config_.sndbuf_bytes});
  if (!config_.fault_spec.empty()) {
    fault_spec_ = FaultSpec::parse(config_.fault_spec);
    listener_ = std::make_unique<FaultInjectingListener>(
        std::move(tcp), fault_spec_, &fault_log_);
    ST_LOG_INFO << "serve: FAULT INJECTION ON (" << fault_spec_.describe()
                << ")";
  } else {
    listener_ = std::move(tcp);
  }
  running_.store(true);
  acceptor_ = std::thread([this] { acceptor_main(); });
  workers_.reserve(static_cast<std::size_t>(config_.num_workers));
  for (int w = 0; w < config_.num_workers; ++w)
    workers_.emplace_back([this, w] { worker_main(w); });
  ST_LOG_INFO << "serve: listening on " << config_.host << ":" << port()
              << " (" << config_.num_workers << " workers, max batch "
              << config_.max_batch << ", budget " << config_.batch_timeout_us
              << "us, queue depth " << config_.max_queue_depth
              << ", send timeout " << config_.send_timeout_ms
              << "ms, idle timeout " << config_.idle_timeout_ms << "ms)";
}

int Server::port() const {
  ST_REQUIRE(listener_ != nullptr, "server not started");
  return listener_->port();
}

void Server::acceptor_main() {
  obs::set_thread_label("serve-accept");
  // With idle reaping armed, accept() wakes on a bounded tick so the reaper
  // runs even when no connection ever arrives.
  const int tick_ms =
      config_.idle_timeout_ms > 0 ? std::min(config_.idle_timeout_ms, 1000)
                                  : -1;
  for (;;) {
    std::shared_ptr<Connection> conn =
        listener_->accept(stop_pipe_[0], tick_ms);
    if (conn == nullptr) {
      if (stopping_.load(std::memory_order_relaxed)) return;
      if (tick_ms < 0) return;  // woken without a stop: listener is gone
      // Reaping tick (or a transient accept error — either way, keep
      // accepting rather than silently killing the acceptor).
      reap_idle_connections();
      reap_finished_readers();
      continue;
    }
    conn->set_send_timeout_ms(config_.send_timeout_ms,
                              [this] { bump(Counter::send_timeouts); });
    const std::int64_t conns = bump(Counter::connections);
    obs::flight_record(obs::FlightEventId::kConnAccept,
                       static_cast<std::uint64_t>(conns));
    reap_finished_readers();
    std::lock_guard<std::mutex> lock(readers_mu_);
    readers_.emplace_back();
    ReaderSlot* slot = &readers_.back();
    slot->conn = std::move(conn);
    slot->thread = std::thread([this, slot] { reader_main(slot); });
  }
}

void Server::reap_finished_readers() {
  std::lock_guard<std::mutex> lock(readers_mu_);
  for (auto it = readers_.begin(); it != readers_.end();) {
    if (it->done.load(std::memory_order_acquire)) {
      it->thread.join();
      it = readers_.erase(it);
    } else {
      ++it;
    }
  }
}

void Server::reap_idle_connections() {
  const std::uint64_t now = now_ns();
  const std::uint64_t budget =
      static_cast<std::uint64_t>(config_.idle_timeout_ms) * 1'000'000ull;
  std::lock_guard<std::mutex> lock(readers_mu_);
  for (ReaderSlot& slot : readers_) {
    if (slot.reaped || slot.done.load(std::memory_order_acquire)) continue;
    const std::uint64_t last = slot.conn->last_activity_ns();
    if (last == 0 || now <= last || now - last <= budget) continue;
    // abort(), not close(): the reader thread may be blocked inside
    // read_frame on this connection, and the descriptor must stay valid
    // until that thread is joined.
    slot.conn->abort();
    slot.reaped = true;
    bump(Counter::idle_reaped);
    ST_LOG_INFO << "serve: reaping idle connection " << slot.conn->peer()
                << " (no activity for " << (now - last) / 1'000'000 << "ms)";
  }
}

void Server::respond_error(const std::shared_ptr<Connection>& conn,
                           std::uint64_t request_id, ErrorCode code,
                           const std::string& message) {
  ErrorResponse err;
  err.request_id = request_id;
  err.code = code;
  err.message = message;
  conn->write_frame(FrameKind::kError, request_id,
                    detail::encode_error_payload(err));
}

void Server::shed_expired(std::vector<PendingRequest>& expired) {
  if (expired.empty()) return;
  for (PendingRequest& p : expired) {
    bump(Counter::deadline_shed);
    w_deadline_shed_.add();
    obs::flight_record(obs::FlightEventId::kDeadlineShed, p.server_id,
                       p.request.deadline_us);
    // The shed IS this request's one answer: it entered `admitted` and
    // leaves through `deadline_shed`, keeping the accounting invariant
    // whether or not the peer is still there to read it.
    respond_error(p.conn, p.request.request_id, ErrorCode::kDeadlineExceeded,
                  "deadline of " + std::to_string(p.request.deadline_us) +
                      "us expired before inference");
  }
  expired.clear();
}

void Server::reader_main(ReaderSlot* slot) {
  obs::set_thread_label("serve-reader");
  const std::shared_ptr<Connection> conn = slot->conn;
  const std::int64_t in_elems = model_->input_shape().numel();
  FrameHeader header;
  std::vector<std::uint8_t> payload;
  // Streams opened on THIS connection and not yet closed.  When the reader
  // exits outside a drain (peer EOF, framing error, idle reap), these are
  // orphans — nobody will ever close them — and each one permanently
  // occupies max_live capacity (or a spill file); they are torn down on
  // the way out below.
  std::unordered_set<std::uint64_t> owned_streams;
  // Everything a peer sends is untrusted: recoverable decode failures get a
  // bad-request response below, and the outer catch turns anything else
  // (bad magic, oversized frame, allocation failure) into a dropped
  // connection — an exception escaping this thread would std::terminate
  // the whole daemon.
  try {
    while (conn->read_frame(header, payload, stop_pipe_[0])) {
      const std::uint64_t recv_ns = now_ns();
      obs::flight_record(obs::FlightEventId::kFrameDecode, header.request_id,
                         payload.size());
      if (header.kind == FrameKind::kStatRequest) {
        obs::flight_record(obs::FlightEventId::kStatRequest,
                           header.request_id);
        bump(Counter::stat_requests);
        conn->write_frame(FrameKind::kStatResponse, header.request_id,
                          detail::encode_stat_payload(stat_json()));
        continue;
      }
      if (header.kind == FrameKind::kStreamOpen ||
          header.kind == FrameKind::kStreamClose) {
        // Stream lifecycle runs inline at the reader, like STAT: no
        // inference happens, so neither call needs a batch slot, and the
        // ordering guarantee (an open is acked before any of its steps can
        // be admitted) falls out of the connection's single reader thread.
        StreamControl ctl;
        try {
          ctl = decode_stream_control(header.request_id, payload);
        } catch (const std::exception& e) {
          bump(Counter::bad_requests);
          respond_error(conn, header.request_id, ErrorCode::kBadRequest,
                        e.what());
          continue;
        }
        if (header.kind == FrameKind::kStreamOpen) {
          if (batcher_.draining()) {
            bump(Counter::rejected_draining);
            respond_error(conn, header.request_id, ErrorCode::kShuttingDown,
                          "daemon is draining");
            continue;
          }
          switch (streams_->open(ctl.stream_id)) {
            case infer::StreamManager::OpenResult::kOk:
              owned_streams.insert(ctl.stream_id);
              conn->write_frame(FrameKind::kStreamOpen, header.request_id,
                                detail::encode_stream_control_payload(ctl));
              break;
            case infer::StreamManager::OpenResult::kExists:
              bump(Counter::bad_requests);
              respond_error(conn, header.request_id, ErrorCode::kBadRequest,
                            "stream " + std::to_string(ctl.stream_id) +
                                " is already open");
              break;
            case infer::StreamManager::OpenResult::kInvalid:
              bump(Counter::bad_requests);
              respond_error(conn, header.request_id, ErrorCode::kBadRequest,
                            "stream id 0 is reserved");
              break;
            case infer::StreamManager::OpenResult::kCapacity:
              bump(Counter::rejected_overload);
              w_rejected_.add();
              respond_error(conn, header.request_id, ErrorCode::kOverloaded,
                            "stream capacity reached (no checkpoint "
                            "directory configured for eviction)");
              break;
          }
        } else {  // kStreamClose: tear down, reply with lifetime totals.
          StreamCloseReply totals;
          totals.request_id = header.request_id;
          totals.stream_id = ctl.stream_id;
          std::int64_t steps_done = 0;
          bool known = false;
          try {
            known = streams_->close(ctl.stream_id, &totals.cumulative_counts,
                                    &steps_done);
          } catch (const std::exception& e) {
            // Reporting totals required restoring an evicted state and the
            // spill file was unreadable.  The totals are lost, but the id
            // must not leak: a totals-free close skips the restore (so it
            // cannot throw) and still tears the entry down.
            streams_->close(ctl.stream_id, nullptr, nullptr);
            owned_streams.erase(ctl.stream_id);
            ST_LOG_WARN << "serve: closing stream " << ctl.stream_id
                        << " lost its totals (" << e.what() << ")";
            respond_error(conn, header.request_id, ErrorCode::kInternalError,
                          e.what());
            continue;
          }
          if (!known) {
            bump(Counter::bad_requests);
            respond_error(conn, header.request_id, ErrorCode::kBadRequest,
                          "stream " + std::to_string(ctl.stream_id) +
                              " is not open");
            continue;
          }
          owned_streams.erase(ctl.stream_id);
          totals.steps_done = static_cast<std::uint64_t>(steps_done);
          conn->write_frame(FrameKind::kStreamClose, header.request_id,
                            detail::encode_stream_close_reply_payload(totals));
        }
        continue;
      }
      if (header.kind != FrameKind::kInferRequest &&
          header.kind != FrameKind::kStreamStep) {
        bump(Counter::bad_requests);
        respond_error(conn, header.request_id, ErrorCode::kBadRequest,
                      "expected an infer-request frame");
        continue;
      }
      PendingRequest pending;
      pending.recv_ns = recv_ns;
      try {
        if (header.kind == FrameKind::kStreamStep) {
          StreamStepRequest sr =
              decode_stream_step(header.request_id, payload);
          pending.stream_id = sr.stream_id;
          pending.request = std::move(sr.request);
        } else {
          pending.request = decode_request(header.request_id, payload);
        }
        ST_REQUIRE(pending.request.num_steps >= 1 &&
                       pending.request.num_steps <=
                           static_cast<std::uint32_t>(config_.max_steps),
                   "num_steps outside [1, " +
                       std::to_string(config_.max_steps) + "]");
        ST_REQUIRE(static_cast<std::int64_t>(pending.request.elems_per_step) ==
                       in_elems,
                   "elems_per_step " +
                       std::to_string(pending.request.elems_per_step) +
                       " does not match model input " +
                       std::to_string(in_elems));
      } catch (const std::exception& e) {
        bump(Counter::bad_requests);
        respond_error(conn, header.request_id, ErrorCode::kBadRequest,
                      e.what());
        continue;
      }
      if (pending.stream_id != 0 && !streams_->contains(pending.stream_id)) {
        // Admission pre-check: a step on a stream the daemon never saw (or
        // already closed) is bounced here, deterministically, instead of
        // burning a batch slot to find out.  A step that *races* a close is
        // caught again at the worker (stream_orphan_steps).
        bump(Counter::bad_requests);
        respond_error(conn, header.request_id, ErrorCode::kBadRequest,
                      "stream " + std::to_string(pending.stream_id) +
                          " is not open");
        continue;
      }
      if (pending.request.deadline_us > 0) {
        // The budget runs from frame-fully-read; the enqueue and batching
        // delay all count against it.
        pending.deadline_ns =
            recv_ns + pending.request.deadline_us * 1000ull;
        bump(Counter::deadline_requests);
      }
      pending.conn = conn;
      // ids start at 1: the pre-increment value 0 is never a real request.
      pending.server_id = next_server_id_.fetch_add(1) + 1;
      pending.enqueue_ns = now_ns();
      if (obs::trace_enabled() && spans_.sampled(pending.server_id)) {
        obs::trace_span("serve.recv", pending.recv_ns,
                        pending.enqueue_ns - pending.recv_ns);
        obs::trace_flow_at("serve.request", pending.server_id, 's',
                           pending.recv_ns);
      }
      const std::uint64_t server_id = pending.server_id;
      switch (batcher_.submit(std::move(pending))) {
        case AdmitResult::kAdmitted:
          bump(Counter::admitted);
          obs::flight_record(obs::FlightEventId::kRequestAdmit, server_id,
                             static_cast<std::uint64_t>(batcher_.depth()));
          if (obs::metrics_enabled()) {
            obs::set(serve_metric_ids().queue_depth,
                     static_cast<double>(batcher_.depth()));
          }
          break;
        case AdmitResult::kQueueFull:
          bump(Counter::rejected_overload);
          w_rejected_.add();
          respond_error(conn, header.request_id, ErrorCode::kOverloaded,
                        "queue at max depth; back off");
          break;
        case AdmitResult::kDraining:
          bump(Counter::rejected_draining);
          respond_error(conn, header.request_id, ErrorCode::kShuttingDown,
                        "daemon is draining");
          break;
      }
    }
  } catch (const std::exception& e) {
    // Framing is lost mid-stream; no per-request error response is
    // possible, so count it and drop the connection.
    bump(Counter::bad_requests);
    ST_LOG_WARN << "serve: dropping connection " << conn->peer() << ": "
                << e.what();
    conn->abort();
  }
  // Orphan cleanup: the peer is gone without closing its streams, so close
  // them here (close waits out any in-flight step's pin; queued steps get
  // the orphan bounce at the worker).  Skipped during a drain — the reader
  // is exiting because of the stop pipe, not a vanished peer, and
  // drain_and_stop's checkpoint_all must still see these streams to
  // preserve their state for resumption.
  if (!owned_streams.empty() &&
      !stopping_.load(std::memory_order_relaxed)) {
    std::int64_t reclaimed = 0;
    for (const std::uint64_t id : owned_streams) {
      // Totals-free close never restores, so it cannot throw; false means
      // another connection closed the stream for us in the meantime.
      if (streams_->close(id, nullptr, nullptr)) ++reclaimed;
    }
    if (reclaimed > 0) {
      bump(Counter::stream_auto_closed, reclaimed);
      ST_LOG_INFO << "serve: closed " << reclaimed
                  << " stream(s) orphaned by disconnected peer "
                  << conn->peer();
    }
  }
  obs::flight_record(
      obs::FlightEventId::kConnClose,
      static_cast<std::uint64_t>(
          counter(Counter::connections).load(std::memory_order_relaxed)));
  slot->done.store(true, std::memory_order_release);
}

void Server::worker_main(int index) {
  obs::set_thread_label("serve-worker-" + std::to_string(index));
  infer::InferenceSession session(
      *model_, {.max_batch = config_.max_batch,
                .record_stats = false,
                .record_stage_times = config_.span_sample_every != 0});
  const Shape& per_sample = model_->input_shape();
  const std::int64_t out_features = model_->output_shape()[0];
  const ServeMetricIds& ids = serve_metric_ids();

  // One row of a batch: the request, the state it runs on (null for a
  // plain request, which the session runs on a fresh scratch stream), and
  // that state's steps_done before the run.
  struct Row {
    PendingRequest p;
    infer::StreamState* state = nullptr;
    std::int64_t pre_steps = 0;
  };

  // Answers `p` with an error, counted under `c`.
  const auto fail = [&](const PendingRequest& p, Counter c, ErrorCode code,
                        const std::string& message) {
    bump(c);
    respond_error(p.conn, p.request.request_id, code, message);
  };

  // Sends request `p`'s response from row `row` of `result` (a run of `n`
  // rows) and records its span.
  const auto respond_one = [&](const PendingRequest& p,
                               const infer::InferenceResult& result,
                               std::int64_t row, std::int64_t n,
                               std::uint64_t assembled_ns,
                               std::uint64_t infer_start_ns,
                               std::uint64_t done_ns) {
    obs::RequestSpan span;
    span.server_id = p.server_id;
    span.client_id = p.request.request_id;
    span.num_steps = static_cast<int>(p.request.num_steps);
    span.batch = static_cast<int>(n);
    span.recv_ns = p.recv_ns;
    span.admit_ns = p.enqueue_ns;
    span.assemble_ns = assembled_ns;
    span.infer_ns = infer_start_ns;
    span.done_ns = done_ns;
    span.sparse_kernel_ns = result.sparse_kernel_ns;
    span.dense_kernel_ns = result.dense_kernel_ns;
    InferResponse resp;
    resp.request_id = p.request.request_id;
    resp.out_features = static_cast<std::uint32_t>(out_features);
    resp.batch = static_cast<std::uint32_t>(n);
    resp.queue_ns = span.assemble_ns - span.admit_ns;
    resp.assemble_ns = span.infer_ns - span.assemble_ns;
    resp.infer_ns = span.done_ns - span.infer_ns;
    resp.spike_counts.assign(
        result.spike_counts.data() + row * out_features,
        result.spike_counts.data() + (row + 1) * out_features);
    const bool sent =
        p.conn->write_frame(FrameKind::kInferResponse, resp.request_id,
                            detail::encode_response_payload(resp));
    bump(sent ? Counter::served : Counter::dropped_responses);
    obs::flight_record(obs::FlightEventId::kResponseSent, p.server_id,
                       sent ? 1 : 0);
    span.send_ns = now_ns();

    // The one recording point for every stage and the end-to-end latency,
    // so each counts the same requests: those answered with a response.
    const obs::SpanTimes t = obs::span_times(span);
    for (std::size_t i = 0; i < obs::kNumStages; ++i)
      w_stage_us_[i].record_at(t.stage_us[i], span.send_ns);
    w_request_us_.record_at(t.e2e_us, span.send_ns);
    w_served_.add_at(1, span.send_ns);
    slo_.record(t.e2e_us / 1e3);
    if (spans_.sampled(p.server_id)) {
      spans_.record(span);
      if (obs::trace_enabled()) {
        obs::trace_span("serve.respond", done_ns, span.send_ns - done_ns);
        obs::trace_flow_at("serve.request", p.server_id, 'f', done_ns);
      }
    }
    if (obs::metrics_enabled()) {
      for (std::size_t i = 0; i < obs::kNumStages; ++i)
        obs::observe(ids.stage_us[i], t.stage_us[i]);
      obs::observe(ids.request_us, t.e2e_us);
      if (slo_.enabled())
        obs::add(t.e2e_us / 1e3 <= config_.slo_target_ms ? ids.slo_ok
                                                        : ids.slo_violations);
    }
  };

  // The one run: assembles `rows` into a window, runs the hooks and the
  // session, counts the run and answers every row.  If a hook or the run
  // throws, nothing is counted or answered and the message is returned.
  const auto run_and_answer =
      [&](std::span<Row> rows,
          std::uint64_t assembled_ns) -> std::optional<std::string> {
    const auto n = static_cast<std::int64_t>(rows.size());
    const auto steps =
        static_cast<std::int64_t>(rows.front().p.request.num_steps);
    std::vector<const InferRequest*> requests;
    std::vector<infer::StreamState*> states;
    for (const Row& r : rows) {
      requests.push_back(&r.p.request);
      states.push_back(r.state);
    }
    const std::vector<Tensor> window = window_tensors(requests, per_sample);
    const std::uint64_t infer_start_ns = now_ns();
    obs::flight_record(obs::FlightEventId::kBatchDispatch,
                       static_cast<std::uint64_t>(n));
    infer::InferenceResult result;
    try {
      if (config_.poison_hook)
        for (const Row& r : rows) config_.poison_hook(r.p.request);
      result = session.run(states.data(), n, window);
    } catch (const std::exception& e) {
      return e.what();
    }
    const std::uint64_t done_ns = now_ns();
    batcher_.record_cost(n, steps, done_ns - infer_start_ns);
    bump(Counter::batches);
    bump(Counter::max_batch_seen, n);
    w_batch_.record_at(static_cast<double>(n), done_ns);
    if (obs::metrics_enabled())
      obs::observe(ids.batch_size, static_cast<double>(n));
    if (obs::trace_enabled())
      obs::trace_span("serve.infer", infer_start_ns, done_ns - infer_start_ns);
    for (std::int64_t i = 0; i < n; ++i)
      respond_one(rows[static_cast<std::size_t>(i)].p, result, i, n,
                  assembled_ns, infer_start_ns, done_ns);
    return std::nullopt;
  };

  for (;;) {
    std::vector<PendingRequest> expired;
    std::vector<PendingRequest> batch = batcher_.next_batch(expired);
    const bool had_expired = !expired.empty();
    shed_expired(expired);
    if (batch.empty()) {
      if (!had_expired) return;  // draining and dry
      continue;  // this pass only shed; go back for live work
    }
    ST_PROF_SCOPE("serve.batch");

    // Resolve every row in one pass, plain rows first, then stream rows in
    // ascending stream-id order — every worker acquires that way, so
    // pin-waits between workers cannot form a cycle (the batcher already
    // guarantees at most one in-flight chunk per stream).  The batcher
    // holds each stream aboard in flight until finish_stream().  A row
    // whose stream was closed while the step sat queued is answered
    // kBadRequest; one whose acquire THROWS (corrupt or missing spill on
    // restore, disk-full spill during the LRU churn it triggers) is
    // answered kInternalError, because an exception escaping this thread
    // would std::terminate the daemon.  Either way the row leaves the
    // batch and its stream is handed back here.
    std::stable_sort(batch.begin(), batch.end(),
                     [](const PendingRequest& a, const PendingRequest& b) {
                       return a.stream_id < b.stream_id;
                     });
    std::vector<Row> rows;
    rows.reserve(batch.size());
    for (PendingRequest& p : batch) {
      if (p.stream_id == 0) {
        rows.push_back({std::move(p)});
        continue;
      }
      infer::StreamState* state = nullptr;
      try {
        state = streams_->acquire(p.stream_id);
      } catch (const std::exception& e) {
        ST_LOG_WARN << "serve: acquiring stream " << p.stream_id << " failed ("
                    << e.what() << "); answering the step with internal-error";
        fail(p, Counter::internal_errors, ErrorCode::kInternalError, e.what());
        batcher_.finish_stream(p.stream_id);
        continue;
      }
      if (state == nullptr) {
        fail(p, Counter::stream_orphan_steps, ErrorCode::kBadRequest,
             "stream " + std::to_string(p.stream_id) +
                 " was closed before this step ran");
        batcher_.finish_stream(p.stream_id);
        continue;
      }
      rows.push_back({std::move(p), state, state->steps_done()});
    }
    if (rows.empty()) continue;

    const std::uint64_t assembled_ns = now_ns();
    obs::flight_record(obs::FlightEventId::kBatchAssemble, rows.size(),
                       rows.front().p.request.num_steps);
    // Poison isolation: one request that makes inference throw must not
    // take its batchmates or this worker down.  On failure each row runs
    // alone, so the poison pill is pinned to exactly one request (answered
    // kInternalError) and everyone else still gets a bitwise-correct
    // response.
    if (const auto error = run_and_answer(rows, assembled_ns)) {
      ST_LOG_WARN << "serve: batch of " << rows.size() << " failed ("
                  << *error << "); isolating per request";
      for (Row& r : rows) {
        // A stream the failed batch already advanced part way cannot be
        // replayed without double-applying its leading steps; the client
        // must close and reopen it.
        std::optional<std::string> lone_error;
        if (r.state != nullptr && r.state->steps_done() != r.pre_steps)
          lone_error = "stream state advanced by a failed batch; close and "
                       "reopen stream " +
                       std::to_string(r.p.stream_id);
        else
          lone_error = run_and_answer({&r, 1}, assembled_ns);
        if (lone_error)
          fail(r.p, Counter::internal_errors, ErrorCode::kInternalError,
               *lone_error);
      }
    }
    // Every row is answered.  Unpin each stream, then hand it back to the
    // batcher so its next queued chunk can run — release first, so that
    // chunk's acquire sees the pin already gone.
    for (const Row& r : rows) {
      if (r.state == nullptr) continue;
      streams_->release(r.p.stream_id);
      bump(Counter::stream_steps);
      batcher_.finish_stream(r.p.stream_id);
    }
    if (obs::metrics_enabled()) {
      obs::set(ids.queue_depth, static_cast<double>(batcher_.depth()));
      if (slo_.enabled()) obs::set(ids.slo_burn, slo_.burn());
    }
  }
}

void Server::drain_and_stop() {
  if (!running_.exchange(false)) return;
  stopping_.store(true);
  ST_LOG_INFO << "serve: draining (" << batcher_.depth()
              << " queued requests)";
  // 1. Wake the acceptor and every reader; no new connections or requests.
  //    Close the listener only once the acceptor is joined: its poll()
  //    reads the fd, whose number the kernel may reuse after close().
  const char token = 'q';
  [[maybe_unused]] ssize_t n = write(stop_pipe_[1], &token, 1);
  if (acceptor_.joinable()) acceptor_.join();
  listener_->close();
  // 2. Everything already admitted gets served or shed; workers exit dry.
  batcher_.drain();
  for (std::thread& w : workers_) {
    if (w.joinable()) w.join();
  }
  workers_.clear();
  // Workers are gone, so no pins remain: checkpoint every still-open
  // stream's state so a restarted daemon (or a post-mortem) can resume
  // each client exactly where it left off.  No-op without a spill dir.
  // A spill failure here (disk full, dir deleted underneath us) must not
  // turn an orderly drain into an abort — the rest of the shutdown
  // (readers, ledger final record) still has to run.
  try {
    const std::size_t stream_ckpts = streams_->checkpoint_all();
    if (stream_ckpts > 0) {
      ST_LOG_INFO << "serve: checkpointed " << stream_ckpts
                  << " open streams to " << config_.stream_checkpoint_dir;
    }
  } catch (const Error& e) {
    ST_LOG_WARN << "serve: drain checkpoint failed: " << e.what();
  }
  // 3. Readers observed the stop pipe; join them, then close connections
  //    (after the workers, so every response was written first).
  {
    std::lock_guard<std::mutex> lock(readers_mu_);
    for (ReaderSlot& slot : readers_) {
      if (slot.thread.joinable()) slot.thread.join();
      slot.conn->close();
    }
    readers_.clear();
  }
  close(stop_pipe_[0]);
  close(stop_pipe_[1]);
  stop_pipe_[0] = stop_pipe_[1] = -1;
  if (!config_.span_log.empty() && spans_.recorded() > 0) {
    spans_.write_jsonl(config_.span_log);
    ST_LOG_INFO << "serve: wrote " << config_.span_log << " ("
                << spans_.recorded() << " spans sampled 1-in-"
                << config_.span_sample_every << ")";
  }
  if (!config_.fault_log.empty() && !config_.fault_spec.empty()) {
    fault_log_.write_jsonl(config_.fault_log);
    ST_LOG_INFO << "serve: wrote " << config_.fault_log << " ("
                << fault_log_.size() << " injected faults)";
  }
  const Stats s = stats();
  ST_LOG_INFO << "serve: drained; served " << s.served << " of " << s.admitted
              << " admitted requests in " << s.batches << " batches (max batch "
              << s.max_batch_seen << ", " << s.deadline_shed
              << " deadline-shed, " << s.internal_errors
              << " internal errors, " << s.rejected_overload << " overload + "
              << s.rejected_draining << " draining rejections; "
              << s.streams_opened << " streams opened, " << s.stream_steps
              << " stream steps, " << s.streams_evicted << " evicted / "
              << s.streams_restored << " restored)";
}

std::int64_t Server::bump(Counter c, std::int64_t n) {
  const auto i = static_cast<std::size_t>(c);
  std::atomic<std::int64_t>& v = counters_[i];
  if (kCounterRows[i].kind == kMax) {
    std::int64_t seen = v.load(std::memory_order_relaxed);
    while (n > seen &&
           !v.compare_exchange_weak(seen, n, std::memory_order_relaxed)) {
    }
    return std::max(seen, n);
  }
  if (obs::metrics_enabled() && kCounterRows[i].obs != nullptr)
    obs::add(serve_metric_ids().counters[i], n);
  return v.fetch_add(n, std::memory_order_relaxed) + n;
}

Server::Stats Server::stats() const {
  const infer::StreamCounters sc = streams_->counters();
  Stats s;
  for (std::size_t i = 0; i < kNumCounters; ++i) {
    const CounterRow& r = kCounterRows[i];
    s.*r.field = r.stream != nullptr
                     ? sc.*r.stream
                     : counters_[i].load(std::memory_order_relaxed);
  }
  return s;
}

std::string Server::stat_json(const Stats& totals) const {
  const std::uint64_t now = now_ns();

  JsonValue root = JsonValue::make_object();
  root.set("uptime_s",
           JsonValue(static_cast<double>(now - start_ns_) / 1e9));
  root.set("window_s", JsonValue(config_.stat_window_s));
  root.set("totals", counter_section(totals, kTotals));
  root.set("queue_depth",
           JsonValue(static_cast<std::int64_t>(batcher_.depth())));
  root.set("qps", JsonValue(w_served_.per_second_at(now)));
  root.set("rejects_per_s", JsonValue(w_rejected_.per_second_at(now)));

  JsonValue deadline = counter_section(totals, kDeadline);
  deadline.set("shed_per_s", JsonValue(w_deadline_shed_.per_second_at(now)));
  root.set("deadline", deadline);

  // Streaming (protocol v3): live occupancy + lifecycle totals.
  JsonValue streams = counter_section(totals, kStreams);
  streams.set("live", JsonValue(streams_->counters().live));
  streams.set("max_live", JsonValue(streams_->max_live()));
  root.set("streams", streams);

  JsonValue faults = JsonValue::make_object();
  faults.set("enabled", JsonValue(!config_.fault_spec.empty()));
  faults.set("injected",
             JsonValue(static_cast<std::int64_t>(fault_log_.size())));
  root.set("faults", faults);

  // Windowed latency: end-to-end plus the stage tiling of [recv, send].
  root.set("request_us", hist_json(w_request_us_.merged_at(now)));
  JsonValue stages = JsonValue::make_object();
  for (std::size_t i = 0; i < obs::kNumStages; ++i)
    stages.set(obs::stage_key(i), hist_json(w_stage_us_[i].merged_at(now)));
  root.set("stages", stages);
  root.set("batch_size", hist_json(w_batch_.merged_at(now)));

  JsonValue slo = JsonValue::make_object();
  slo.set("enabled", JsonValue(slo_.enabled()));
  slo.set("target_ms", JsonValue(config_.slo_target_ms));
  slo.set("budget", JsonValue(config_.slo_budget));
  slo.set("ok", JsonValue(slo_.ok()));
  slo.set("violations", JsonValue(slo_.violations()));
  slo.set("burn", JsonValue(slo_.burn()));
  root.set("slo", slo);

  JsonValue spans = JsonValue::make_object();
  spans.set("sample_every",
            JsonValue(static_cast<std::int64_t>(config_.span_sample_every)));
  spans.set("recorded", JsonValue(spans_.recorded()));
  root.set("spans", spans);

  // Flight-recorder occupancy (process-wide; armed by the serve driver).
  const obs::FlightStats fs = obs::flight_stats();
  JsonValue flight = JsonValue::make_object();
  flight.set("armed", JsonValue(fs.armed));
  flight.set("recorded", JsonValue(fs.recorded));
  flight.set("retained", JsonValue(fs.retained));
  flight.set("dropped", JsonValue(fs.dropped));
  flight.set("threads", JsonValue(fs.threads));
  flight.set("capacity_per_thread", JsonValue(fs.capacity_per_thread));
  root.set("flight", flight);

  if (!config_.build_stamp.empty() || config_.config_fingerprint != 0) {
    JsonValue build = JsonValue::make_object();
    build.set("stamp", JsonValue(config_.build_stamp));
    char hex[20];
    std::snprintf(hex, sizeof(hex), "%016llx",
                  static_cast<unsigned long long>(config_.config_fingerprint));
    build.set("fingerprint", JsonValue(std::string(hex)));
    root.set("build", build);
  }

  return root.dump();
}

}  // namespace spiketune::serve
