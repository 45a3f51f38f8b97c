// serve-stream: an in-process serve::Server on an ephemeral loopback port,
// two workers over one kernel thread, every other setting at the serve
// defaults (2000 us batch budget, max batch 16, span sampling 1/16) and the
// flight recorder armed.  Each client stream carries one rate-coded image
// of the knee model, one timestep per STREAM_STEP.  Batches hold 1-16 rows
// of tiny per-row work, so the wire, the protocol, batcher queueing and the
// per-stream state swap dominate: the same infer layer as infer-window, but
// stateful and small-batch.
//
// Two fixed open-loop rates run from two connections, each step timed from
// when it was due; a closed-loop phase on the same two connections (one
// step in flight per connection) follows.  The rates are constants near
// 30% and 60% of that closed-loop capacity as measured on a 4-vCPU Xeon
// (~500 steps/s); they are never derived from a capacity measured at run
// time.  p50 is gated; p90 and the tail are reported by the traced run.
//
// Gates: every served chunk equals a direct StreamState replay bitwise, and
// so does every close reply's lifetime total; at drain the server's
// accounting identity holds and no stream was evicted.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <fstream>
#include <map>
#include <mutex>
#include <thread>
#include <unordered_map>

#include "core/parallel.h"
#include "gates.h"
#include "obs/flight.h"
#include "phases.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "stats.h"

namespace perfbench {

namespace st = spiketune;
namespace inf = spiketune::infer;
namespace sv = spiketune::serve;

namespace {

constexpr double kLowRate = 150.0;   // steps/s over both connections
constexpr double kHighRate = 300.0;
constexpr int kConnections = 2;
constexpr int kOpenLoopSlots = 4;    // concurrent streams per connection
constexpr std::int64_t kImages = 16;
constexpr std::int64_t kElems = 3 * 32 * 32;
// A failed or refused step counts as this late, past every latency limit.
constexpr double kFailedStepMs = 1000.0;
constexpr std::int64_t kSettleTimeoutNs = 10'000'000'000;
constexpr std::int64_t kCapacityBinNs = 100'000'000;

int connect_loopback(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) throw std::runtime_error("socket() failed");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) !=
      0) {
    ::close(fd);
    throw std::runtime_error("cannot connect to the server");
  }
  const int one = 1;
  setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  return fd;
}

bool send_all(int fd, const std::uint8_t* p, std::size_t n) {
  while (n > 0) {
    const ssize_t k = ::send(fd, p, n, MSG_NOSIGNAL);
    if (k < 0 && errno == EINTR) continue;
    if (k <= 0) return false;
    p += k;
    n -= static_cast<std::size_t>(k);
  }
  return true;
}

bool recv_all(int fd, std::uint8_t* p, std::size_t n) {
  while (n > 0) {
    const ssize_t k = ::recv(fd, p, n, 0);
    if (k < 0 && errno == EINTR) continue;
    if (k <= 0) return false;
    p += k;
    n -= static_cast<std::size_t>(k);
  }
  return true;
}

enum Phase { kLow = 0, kHigh = 1, kClosed = 2 };
constexpr const char* kPhaseNames[] = {"low", "high", "closed"};

struct StepSample {
  int phase = kLow;
  bool ok = false;
  std::int64_t due_ns = 0;
  std::int64_t sent_ns = 0;
  std::int64_t done_ns = 0;
  std::uint64_t queue_ns = 0;
  std::uint64_t assemble_ns = 0;
  std::uint64_t infer_ns = 0;
};

struct StreamRec {
  std::uint64_t id = 0;
  std::int64_t image = 0;
  std::int64_t sent = 0;      // steps sent
  std::int64_t answered = 0;  // steps answered, served or refused
  bool failed = false;        // the open or some step was refused
  // Served chunks in the order the stream applied them (per-stream FIFO):
  // (timestep, output).
  std::vector<std::pair<std::int64_t, std::vector<float>>> served;
  bool close_sent = false;
  bool closed = false;
  std::uint64_t close_steps = 0;
  std::vector<float> close_counts;
};

/// One client connection: the measuring thread sends, a receiver thread
/// matches replies to requests by id.  The receiver closes a stream once
/// all of its steps are answered, so a close never overtakes a step.
class Client {
 public:
  Client(int port, int index, const std::vector<st::Tensor>& images)
      : fd_(connect_loopback(port)),
        id_base_(static_cast<std::uint64_t>(index + 1) << 40),
        images_(images),
        rx_([this] { rx_main(); }) {}

  ~Client() {
    ::shutdown(fd_, SHUT_RDWR);
    rx_.join();
    ::close(fd_);
  }
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  /// Sends the next step of `slot`'s stream, opening a new stream first
  /// when the slot has none or its stream has sent every step.
  void send_step(int slot, std::int64_t due_ns, int phase) {
    std::vector<std::uint8_t> open_frame;
    sv::StreamStepRequest req;
    std::size_t sample = 0;
    {
      std::lock_guard<std::mutex> lk(mu_);
      sample = next_step_locked(slot, due_ns, phase, open_frame, req);
    }
    // The 12 KB frame is built and sent outside the lock, so the receiver
    // is not held up behind it.
    const auto frame = builder_.stream_step(req);
    const std::int64_t sent = now_ns();
    if (!open_frame.empty()) send_frame(open_frame);
    send_frame(frame);
    std::lock_guard<std::mutex> lk(mu_);
    samples_[sample].sent_ns = sent;
  }

  /// Closed loop with one step in flight until `end_ns`: the receiver sends
  /// each next step the moment the previous reply arrives, so no other
  /// thread has to wake up in between.  Returns once the last step is in.
  void run_closed_loop(std::int64_t end_ns) {
    {
      std::lock_guard<std::mutex> lk(mu_);
      closed_end_ns_ = end_ns;
    }
    send_step(0, now_ns(), kClosed);
    std::unique_lock<std::mutex> lk(mu_);
    cv_.wait(lk, [&] {
      return (in_flight_ == 0 && now_ns() >= end_ns) || rx_done_;
    });
    closed_end_ns_ = 0;
  }

  /// Ends a phase: waits for every reply, closes every open stream and
  /// waits for the close replies.  Throws if the server stops answering.
  void settle() {
    std::unique_lock<std::mutex> lk(mu_);
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::nanoseconds(kSettleTimeoutNs);
    gate(cv_.wait_until(lk, deadline,
                        [&] { return in_flight_ == 0 || rx_done_; }) &&
             !rx_done_,
         "every step answered");
    for (auto& [id, rec] : streams_) {
      if (rec->close_sent) continue;
      rec->close_sent = true;
      const std::uint64_t rid = ++next_request_;
      pending_[rid] = {Pending::kClose, rec.get()};
      send_frame(builder_.stream_close({rid, id}));
    }
    gate(cv_.wait_until(lk, deadline,
                        [&] { return pending_.empty() || rx_done_; }) &&
             !rx_done_,
         "every stream closed");
    slots_.clear();
  }

  // Read after settle(), with no phase running.
  const std::vector<StepSample>& samples() const { return samples_; }
  const std::map<std::uint64_t, std::unique_ptr<StreamRec>>& streams() const {
    return streams_;
  }
  const std::string& rx_error() const { return rx_error_; }

 private:
  struct Pending {
    enum Kind { kOpen, kStep, kClose } kind = kStep;
    StreamRec* stream = nullptr;
    std::int64_t t = 0;      // kStep only: the chunk's timestep
    std::size_t sample = 0;  // kStep only: index into samples_
  };

  /// Registers the next step of `slot`'s stream (opening a new stream first
  /// when needed) and fills its frames' contents; returns its sample index.
  std::size_t next_step_locked(int slot, std::int64_t due_ns, int phase,
                               std::vector<std::uint8_t>& open_frame,
                               sv::StreamStepRequest& req) {
    StreamRec*& cur = slots_[slot];
    if (cur == nullptr || cur->sent == kInferSteps) {
      auto rec = std::make_unique<StreamRec>();
      rec->id = id_base_ + ++streams_opened_;
      rec->image = static_cast<std::int64_t>(rec->id % kImages);
      cur = rec.get();
      streams_[rec->id] = std::move(rec);
      const std::uint64_t rid = ++next_request_;
      pending_[rid] = {Pending::kOpen, cur};
      open_frame = builder_.stream_open({rid, cur->id});
    }
    const std::int64_t t = cur->sent++;
    const std::uint64_t rid = ++next_request_;
    const std::size_t sample = samples_.size();
    samples_.push_back({});
    samples_.back().phase = phase;
    samples_.back().due_ns = due_ns;
    pending_[rid] = {Pending::kStep, cur, t, sample};
    ++in_flight_;
    req.stream_id = cur->id;
    req.request.request_id = rid;
    req.request.num_steps = 1;
    req.request.elems_per_step = static_cast<std::uint32_t>(kElems);
    const float* x =
        images_[static_cast<std::size_t>(t)].data() + cur->image * kElems;
    req.request.data.assign(x, x + kElems);
    return sample;
  }

  /// Receiver side of run_closed_loop (mu_ held): the next step, now.
  void chain_closed_step(std::int64_t now) {
    if (now >= closed_end_ns_) return;
    std::vector<std::uint8_t> open_frame;
    sv::StreamStepRequest req;
    const std::size_t sample =
        next_step_locked(0, now, kClosed, open_frame, req);
    const auto frame = builder_.stream_step(req);
    samples_[sample].sent_ns = now_ns();
    if (!open_frame.empty()) send_frame(open_frame);
    send_frame(frame);
  }

  void send_frame(const std::vector<std::uint8_t>& frame) {
    std::lock_guard<std::mutex> lk(write_mu_);
    send_all(fd_, frame.data(), frame.size());
  }

  void close_if_done(StreamRec& s) {  // mu_ held
    if (s.close_sent || s.answered < kInferSteps) return;
    s.close_sent = true;
    const std::uint64_t rid = ++next_request_;
    pending_[rid] = {Pending::kClose, &s};
    send_frame(builder_.stream_close({rid, s.id}));
  }

  void rx_main() {
    try {
      std::uint8_t hdr[sv::kHeaderBytes];
      std::vector<std::uint8_t> payload;
      while (recv_all(fd_, hdr, sizeof hdr)) {
        const sv::FrameHeader h = sv::decode_header(hdr);
        payload.resize(h.payload_bytes);
        if (!recv_all(fd_, payload.data(), payload.size())) break;
        const std::int64_t done = now_ns();
        std::lock_guard<std::mutex> lk(mu_);
        handle(h, payload, done);
        cv_.notify_all();
      }
    } catch (const std::exception& ex) {
      std::lock_guard<std::mutex> lk(mu_);
      rx_error_ = ex.what();
    }
    std::lock_guard<std::mutex> lk(mu_);
    rx_done_ = true;
    cv_.notify_all();
  }

  void handle(const sv::FrameHeader& h,
              const std::vector<std::uint8_t>& payload, std::int64_t done) {
    const auto it = pending_.find(h.request_id);
    if (it == pending_.end())
      throw std::runtime_error("reply to an unknown request id");
    const Pending p = it->second;
    pending_.erase(it);
    StreamRec& s = *p.stream;
    switch (h.kind) {
      case sv::FrameKind::kInferResponse: {
        const auto r = sv::decode_response(h.request_id, payload);
        StepSample& x = samples_[p.sample];
        x.ok = true;
        x.done_ns = done;
        x.queue_ns = r.queue_ns;
        x.assemble_ns = r.assemble_ns;
        x.infer_ns = r.infer_ns;
        s.served.emplace_back(p.t, r.spike_counts);
        ++s.answered;
        --in_flight_;
        close_if_done(s);
        if (x.phase == kClosed) chain_closed_step(done);
        break;
      }
      case sv::FrameKind::kError: {
        sv::decode_error(h.request_id, payload);
        if (p.kind == Pending::kStep) {
          samples_[p.sample].done_ns = done;
          ++s.answered;
          --in_flight_;
          s.failed = true;
          close_if_done(s);
          if (samples_[p.sample].phase == kClosed) chain_closed_step(done);
        } else if (p.kind == Pending::kOpen) {
          s.failed = true;
        } else {
          s.closed = true;  // refused close: nothing to check
          s.failed = true;
        }
        break;
      }
      case sv::FrameKind::kStreamOpen:
        sv::decode_stream_control(h.request_id, payload);
        break;
      case sv::FrameKind::kStreamClose: {
        const auto r = sv::decode_stream_close_reply(h.request_id, payload);
        s.closed = true;
        s.close_steps = r.steps_done;
        s.close_counts = r.cumulative_counts;
        break;
      }
      default:
        throw std::runtime_error("unexpected reply kind");
    }
  }

  const int fd_;
  const std::uint64_t id_base_;
  const std::vector<st::Tensor>& images_;  // per timestep: [kImages, 3,32,32]
  const sv::RequestBuilder builder_{sv::kProtocolVersion};
  std::mutex write_mu_;  // one frame on the socket at a time

  std::mutex mu_;  // guards everything below
  std::condition_variable cv_;
  std::unordered_map<std::uint64_t, Pending> pending_;
  std::map<std::uint64_t, std::unique_ptr<StreamRec>> streams_;
  std::map<int, StreamRec*> slots_;
  std::vector<StepSample> samples_;
  std::uint64_t next_request_ = 0;
  std::uint64_t streams_opened_ = 0;
  std::int64_t in_flight_ = 0;
  std::int64_t closed_end_ns_ = 0;  // closed loop runs until then
  bool rx_done_ = false;
  std::string rx_error_;

  std::thread rx_;  // last: starts after everything it reads exists
};

void run_open_loop(Client& c, int lane, double rate, std::int64_t start_ns,
                   std::int64_t end_ns, int phase) {
  const OpenLoopSchedule sched{start_ns, rate, kConnections, lane};
  for (std::int64_t i = 0;; ++i) {
    const std::int64_t due = sched.due_ns(i);
    if (due >= end_ns) break;
    std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
        std::chrono::nanoseconds(due)));
    c.send_step(static_cast<int>(i % kOpenLoopSlots), due, phase);
  }
}

inf::InferOptions batch_options(std::int64_t max_batch) {
  inf::InferOptions o;
  o.max_batch = max_batch;
  return o;
}

std::vector<double> sorted(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v;
}

}  // namespace

struct ServePhase::State {
  std::vector<double> capacity_bins;  // closed-loop steps/s per bin
  inf::CompiledModel model;
  std::vector<st::Tensor> images;  // per timestep: [kImages, 3, 32, 32]
  std::string span_log;
  std::unique_ptr<sv::Server> server;
  std::vector<std::unique_ptr<Client>> clients;
};

ServePhase::ServePhase(std::uint64_t seed, const std::string& scratch_dir)
    : s_(std::make_unique<State>()) {
  const auto knee = st::snn::make_svhn_csnn(paper_csnn(0.5f, 1.5f));
  s_->model = inf::CompiledModel::compile(*knee, st::Shape{3, 32, 32});
  s_->images = rate_coded_window(seed ^ 0x5e77e000ULL, kImages);
  s_->span_log = scratch_dir + "/serve-spans.jsonl";
  sv::ServerConfig cfg;
  cfg.port = 0;
  cfg.num_workers = kServeWorkers;
  cfg.span_log = s_->span_log;
  s_->server = std::make_unique<sv::Server>(s_->model, cfg);
  s_->server->start();
  for (int c = 0; c < kConnections; ++c)
    s_->clients.push_back(
        std::make_unique<Client>(s_->server->port(), c, s_->images));
}

ServePhase::~ServePhase() {
  s_->clients.clear();
  if (s_->server) s_->server->drain_and_stop();
}

void ServePhase::measure(RunContext& ctx, double seconds) {
  // Armed once and left armed: arming again would replace the region.
  if (!st::obs::flight_enabled()) st::obs::arm_flight_recorder();
  Tracer& tr = *ctx.tracer;
  auto& clients = s_->clients;
  // Low rate, high rate and the closed loop get a third of the time each.
  const double share[] = {1.0 / 3, 1.0 / 3, 1.0 / 3};
  const double rates[] = {kLowRate, kHighRate};
  for (int phase : {kLow, kHigh, kClosed}) {
    Span span(tr, std::string("serve.") + kPhaseNames[phase]);
    const std::int64_t start = now_ns() + 5'000'000;
    const std::int64_t end =
        start + static_cast<std::int64_t>(share[phase] * seconds * 1e9);
    std::vector<std::thread> senders;
    for (int c = 0; c < kConnections; ++c) {
      Client& client = *clients[static_cast<std::size_t>(c)];
      if (phase == kClosed) {
        senders.emplace_back([&client, end] { client.run_closed_loop(end); });
      } else {
        senders.emplace_back([&client, c, rate = rates[phase], start, end,
                              phase] {
          run_open_loop(client, c, rate, start, end, phase);
        });
      }
    }
    for (auto& t : senders) t.join();
    for (auto& c : clients) c->settle();
    if (phase == kClosed) {
      // Capacity is the median over fixed bins of the steps served per
      // second, so one stall of the machine moves one bin.
      const auto bins =
          static_cast<std::size_t>((end - start) / kCapacityBinNs);
      std::vector<double> served(bins, 0.0);
      for (const auto& c : clients) {
        for (const StepSample& x : c->samples()) {
          if (x.phase != kClosed || !x.ok || x.done_ns < start) continue;
          const auto bin = static_cast<std::size_t>((x.done_ns - start) /
                                                    kCapacityBinNs);
          if (bin < bins) served[bin] += 1e9 / kCapacityBinNs;
        }
      }
      s_->capacity_bins.insert(s_->capacity_bins.end(), served.begin(),
                               served.end());
    }
  }
}

void ServePhase::finish(RunContext& ctx) {
  Tracer& tr = *ctx.tracer;
  auto& clients = s_->clients;
  gate(s_->capacity_bins.size() >= 3,
       "closed loop long enough for three capacity bins");
  ctx.e2e.add("stream_steps_per_s", median(s_->capacity_bins), "1/s");
  for (const auto& c : clients)
    gate(c->rx_error().empty(), "client receiver: " + c->rx_error());

  const st::obs::FlightStats flight = st::obs::flight_stats();

  // Collect the samples before the clients go away.
  std::vector<double> lat[2], queue_us, assemble_us, infer_us, wire_us,
      lag_ms;
  std::int64_t attempted = 0, failed = 0, ok_steps = 0;
  std::vector<const StreamRec*> streams;
  for (const auto& c : clients) {
    for (const StepSample& x : c->samples()) {
      ++attempted;
      if (!x.ok) ++failed;
      ok_steps += x.ok;
      if (x.phase == kClosed) continue;
      lat[x.phase].push_back(x.ok ? ms_from_due(x.due_ns, x.done_ns)
                                  : kFailedStepMs);
      lag_ms.push_back(static_cast<double>(lateness_ns(x.due_ns, x.sent_ns)) *
                       1e-6);
      if (!x.ok) continue;
      const double rtt_us = static_cast<double>(x.done_ns - x.sent_ns) * 1e-3;
      const double q = static_cast<double>(x.queue_ns) * 1e-3;
      const double a = static_cast<double>(x.assemble_ns) * 1e-3;
      const double i = static_cast<double>(x.infer_ns) * 1e-3;
      queue_us.push_back(q);
      assemble_us.push_back(a);
      infer_us.push_back(i);
      wire_us.push_back(rtt_us - q - a - i);
    }
    for (const auto& [id, rec] : c->streams()) streams.push_back(rec.get());
  }
  ctx.attempted += attempted;
  ctx.failed += failed;

  // Replay every stream through direct StreamStates.  A stream whose every
  // step was served replays the prefix of its image, shared by all such
  // streams; a stream with a refused step replays its own chunk sequence.
  inf::InferenceSession direct(s_->model, batch_options(kImages));
  std::vector<inf::StreamState> states;
  std::vector<inf::StreamState*> ptrs;
  for (std::int64_t i = 0; i < kImages; ++i)
    states.push_back(direct.make_stream());
  for (auto& s : states) ptrs.push_back(&s);
  // expected[t][image] = that image's output at step t, then the running
  // totals after step t.
  std::vector<st::Tensor> expected;
  std::vector<std::vector<std::vector<float>>> totals;
  for (std::int64_t t = 0; t < kInferSteps; ++t) {
    const auto r = direct.run(ptrs.data(), kImages,
                              {s_->images[static_cast<std::size_t>(t)]});
    expected.push_back(r.spike_counts);
    std::vector<std::vector<float>> tot;
    for (const auto& s : states) tot.push_back(s.cumulative_counts());
    totals.push_back(std::move(tot));
  }
  const std::int64_t outs = expected.front().shape()[1];
  std::int64_t replayed = 0;
  for (const StreamRec* s : streams) {
    const std::string what = "stream " + std::to_string(s->id);
    gate(s->closed, what + " closed");
    if (s->failed) {
      // Refused chunks never touched the state: replay the served ones.
      inf::InferenceSession one(s_->model, batch_options(1));
      inf::StreamState state = one.make_stream();
      for (const auto& [t, got] : s->served) {
        const float* x = s_->images[static_cast<std::size_t>(t)].data() +
                         s->image * kElems;
        const st::Tensor events(st::Shape{3, 32, 32},
                                std::vector<float>(x, x + kElems));
        const st::Tensor want = one.step(state, events);
        gate(static_cast<std::int64_t>(got.size()) == want.numel(),
             what + " width");
        gate_bitwise(got.data(), want.data(), got.size(),
                     what + " step " + std::to_string(t));
        ++replayed;
      }
      if (s->close_counts.empty()) continue;  // its close was refused
      gate(s->close_steps ==
               static_cast<std::uint64_t>(state.steps_done()),
           what + " close step count");
      gate(s->close_counts.size() == state.cumulative_counts().size(),
           what + " close width");
      gate_bitwise(s->close_counts.data(), state.cumulative_counts().data(),
                   s->close_counts.size(), what + " lifetime totals");
      continue;
    }
    gate(static_cast<std::int64_t>(s->served.size()) == s->sent,
         what + " every step served");
    for (const auto& [t, got] : s->served) {
      gate(static_cast<std::int64_t>(got.size()) == outs, what + " width");
      gate_bitwise(got.data(),
                   expected[static_cast<std::size_t>(t)].data() +
                       s->image * outs,
                   got.size(), what + " step " + std::to_string(t));
      ++replayed;
    }
    gate(s->close_steps == static_cast<std::uint64_t>(s->sent),
         what + " close step count");
    if (s->sent > 0) {
      const auto& want = totals[static_cast<std::size_t>(s->sent - 1)]
                               [static_cast<std::size_t>(s->image)];
      gate(s->close_counts.size() == want.size(), what + " close width");
      gate_bitwise(s->close_counts.data(), want.data(), want.size(),
                   what + " lifetime totals");
    }
  }
  gate(replayed == ok_steps, "every served step replayed");

  s_->clients.clear();
  {
    Span span(tr, "serve.drain");
    s_->server->drain_and_stop();
  }
  const sv::Server::Stats stats = s_->server->stats();
  gate_accounting(stats);
  gate(stats.stream_steps == ok_steps, "server and clients agree on steps");

  for (int phase : {kLow, kHigh}) {
    const auto v = sorted(lat[phase]);
    const std::string rate = kPhaseNames[phase];
    ctx.e2e.add("step_p50_ms." + rate, percentile_of(v, 0.5).value, "ms");
    if (!ctx.traced()) continue;
    ctx.layer.add("serve.step_p90_ms." + rate, percentile_of(v, 0.9).value,
                  "ms");
    const Percentile p99 = percentile_of(v, 0.99);
    const Percentile tail = supported_tail(v);
    ctx.layer.add("serve.step_p99_ms." + rate, p99.value, "ms");
    ctx.layer.add("serve.step_samples." + rate,
                  static_cast<double>(p99.samples), "count");
    ctx.layer.add("serve.step_tail_q." + rate, tail.q, "ratio");
    ctx.layer.add("serve.step_tail_ms." + rate, tail.value, "ms");
  }
  ctx.e2e.add("step_ok_frac",
              static_cast<double>(attempted - failed) /
                  static_cast<double>(attempted),
              "ratio");
  if (!ctx.traced()) return;

  const auto q = sorted(queue_us), a = sorted(assemble_us),
             i = sorted(infer_us), w = sorted(wire_us), g = sorted(lag_ms);
  ctx.layer.add("serve.queue_us.p50", percentile_of(q, 0.5).value, "us");
  ctx.layer.add("serve.queue_us.p90", percentile_of(q, 0.9).value, "us");
  ctx.layer.add("serve.assemble_us.p50", percentile_of(a, 0.5).value, "us");
  ctx.layer.add("serve.infer_us.p50", percentile_of(i, 0.5).value, "us");
  ctx.layer.add("serve.infer_us.p90", percentile_of(i, 0.9).value, "us");
  ctx.layer.add("serve.wire_us.p50", percentile_of(w, 0.5).value, "us");
  ctx.layer.add("serve.wire_us.p90", percentile_of(w, 0.9).value, "us");
  ctx.layer.add("serve.gen_lag_ms.p90", percentile_of(g, 0.9).value, "ms");
  ctx.layer.add("serve.batch_mean",
                static_cast<double>(stats.served) /
                    static_cast<double>(std::max<std::int64_t>(1,
                                                               stats.batches)),
                "rows");
  ctx.layer.add("serve.max_batch_seen",
                static_cast<double>(stats.max_batch_seen), "rows");
  ctx.layer.add("serve.rejected",
                static_cast<double>(stats.rejected_overload +
                                    stats.rejected_draining),
                "count");
  ctx.layer.add("serve.shed", static_cast<double>(stats.deadline_shed),
                "count");
  ctx.layer.add("serve.internal_errors",
                static_cast<double>(stats.internal_errors), "count");
  ctx.layer.add("serve.streams_evicted",
                static_cast<double>(stats.streams_evicted), "count");

  // Protocol cost on a frame like the ones sent.
  sv::StreamStepRequest req;
  req.stream_id = 1;
  req.request.request_id = 1;
  req.request.num_steps = 1;
  req.request.elems_per_step = static_cast<std::uint32_t>(kElems);
  req.request.data.assign(s_->images[0].data(), s_->images[0].data() + kElems);
  const sv::RequestBuilder builder(sv::kProtocolVersion);
  std::vector<std::uint8_t> frame;
  ctx.layer.add("serve.protocol_encode_ns",
                ns_per_call([&] { frame = builder.stream_step(req); }),
                "ns");
  const std::vector<std::uint8_t> payload(frame.begin() + sv::kHeaderBytes,
                                          frame.end());
  ctx.layer.add("serve.protocol_decode_ns", ns_per_call([&] {
                  const auto h = sv::decode_header(frame.data());
                  gate(sv::decode_stream_step(h.request_id, payload)
                               .request.data.size() ==
                           static_cast<std::size_t>(kElems),
                       "decoded step");
                }),
                "ns");

  // Direct stream steps at the batch sizes the batcher forms.
  for (std::int64_t b : {1, 4, 16}) {
    std::vector<std::int64_t> dims = {b, 3, 32, 32};
    st::Tensor x{st::Shape(dims)};
    std::copy(s_->images[0].data(), s_->images[0].data() + b * kElems,
              x.data());
    for (auto& s : states) s.reset();
    const std::vector<st::Tensor> step = {x};
    ctx.layer.add("infer.stream_step_us.b" + std::to_string(b),
                  1e-3 * ns_per_call([&] { direct.run(ptrs.data(), b, step); }),
                  "us");
  }

  std::int64_t span_lines = 0;
  {
    std::ifstream in(s_->span_log);
    std::string line;
    while (std::getline(in, line)) span_lines += !line.empty();
  }
  ctx.layer.add("obs.spans_logged", static_cast<double>(span_lines), "count");
  ctx.layer.add("obs.flight_recorded", static_cast<double>(flight.recorded),
                "count");
  ctx.layer.add("obs.flight_dropped", static_cast<double>(flight.dropped),
                "count");
}

}  // namespace perfbench
