// Pluggable transport under the serving daemon.
//
// The daemon is written against two small interfaces — Listener (produce
// connections) and Connection (framed, bidirectional, wake-able) — so the
// byte-moving layer can be swapped without touching the batcher or the
// workers.  TCP is the first implementation; a local shared-memory ring
// would implement the same pair (accept() mapping a client's ring segment,
// read_frame()/write_frame() moving frames through it) and slot straight
// into Server.  The split mirrors the distributed-server / tcp / shm
// decomposition common in serving stacks.  serve/fault.h wraps this layer
// with a deterministic fault injector for chaos testing.
//
// Threading contract:
//   * read_frame() is called by exactly one reader thread per connection;
//   * write_frame() is thread-safe — worker threads complete batches out
//     of order and respond directly, so writes serialize on an internal
//     mutex and each frame is sent atomically (header + payload in one
//     locked section);
//   * every blocking call takes a `wake_fd`: when that descriptor becomes
//     readable the call returns early (nullptr / false), which is how the
//     daemon unwedges its acceptor and readers at shutdown without closing
//     descriptors out from under live syscalls;
//   * abort() is the one call that is safe while other threads are blocked
//     on the connection: it shuts the socket down (waking them with
//     EOF/EPIPE) but leaves the descriptor open until destruction, so no
//     thread ever polls a recycled fd.  The idle reaper and the send-
//     timeout path use it; close() stays reserved for after the reader has
//     been joined.
//
// Slow-client hygiene: writes are non-blocking and bounded.  When
// set_send_timeout_ms is armed and a peer stops draining its socket, the
// frame write gives up after the budget, aborts the connection, and
// returns false — a wedged peer costs one timeout, never a wedged worker.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "serve/protocol.h"

namespace spiketune::serve {

/// One framed peer connection.
class Connection {
 public:
  virtual ~Connection() = default;

  /// Blocks until one full frame arrives and fills `header` + `payload`.
  /// Returns false on clean EOF, peer error, or `wake_fd` becoming
  /// readable (shutdown).  Throws InvalidArgument on protocol garbage.
  virtual bool read_frame(FrameHeader& header,
                          std::vector<std::uint8_t>& payload,
                          int wake_fd) = 0;

  /// Sends one frame (thread-safe; atomic per frame).  Returns false when
  /// the peer is gone or the send timeout expired — callers treat that as
  /// "response dropped".
  virtual bool write_frame(FrameKind kind, std::uint64_t request_id,
                           const std::vector<std::uint8_t>& payload) = 0;

  /// Hard-closes the connection (idempotent); pending reads/writes fail.
  /// Only safe once no other thread is blocked inside this connection.
  virtual void close() = 0;

  /// Soft-kill: shut both directions down so blocked reads/writes fail,
  /// but keep the descriptor alive until destruction (safe concurrently
  /// with a reader blocked in read_frame).  Idempotent.
  virtual void abort() = 0;

  /// Bound every write_frame by this budget (0 = unbounded).  `on_timeout`
  /// (optional) runs each time a write gives up — the server counts it
  /// like any other serving counter.
  virtual void set_send_timeout_ms(
      int /*timeout_ms*/, std::function<void()> /*on_timeout*/ = nullptr) {}

  /// Telemetry-clock timestamp of the last completed frame in either
  /// direction (0 = transport does not track activity; never reaped idle).
  virtual std::uint64_t last_activity_ns() const { return 0; }

  /// Peer description for logs, e.g. "127.0.0.1:51244".
  virtual std::string peer() const = 0;
};

/// Produces connections.
class Listener {
 public:
  virtual ~Listener() = default;

  /// Blocks for the next connection; nullptr on `wake_fd` readable,
  /// listener closed, or — when `timeout_ms` >= 0 — after that long with
  /// no arrival (callers distinguish shutdown via their own stop flag; the
  /// acceptor uses the timeout as its idle-reaping tick).
  virtual std::shared_ptr<Connection> accept(int wake_fd,
                                             int timeout_ms = -1) = 0;

  /// Stops accepting (idempotent); a blocked accept() returns nullptr.
  virtual void close() = 0;

  /// The bound port (resolved, so port 0 requests report the real one).
  virtual int port() const = 0;
};

// --- TCP --------------------------------------------------------------------

class TcpConnection : public Connection {
 public:
  /// Takes ownership of a connected socket fd.
  TcpConnection(int fd, std::string peer);
  ~TcpConnection() override;

  bool read_frame(FrameHeader& header, std::vector<std::uint8_t>& payload,
                  int wake_fd) override;
  bool write_frame(FrameKind kind, std::uint64_t request_id,
                   const std::vector<std::uint8_t>& payload) override;
  void close() override;
  void abort() override;
  void set_send_timeout_ms(int timeout_ms,
                           std::function<void()> on_timeout) override {
    send_timeout_ms_ = timeout_ms;
    on_timeout_ = std::move(on_timeout);
  }
  std::uint64_t last_activity_ns() const override {
    return last_activity_ns_.load(std::memory_order_relaxed);
  }
  std::string peer() const override { return peer_; }

 protected:
  /// Byte-level primitives, virtual so serve/fault.h can interpose delays,
  /// short transfers, corruption, and disconnects underneath the framing.
  /// transport_recv follows ::recv semantics (0 = EOF, -1 = errno);
  /// transport_send follows ::send with MSG_DONTWAIT | MSG_NOSIGNAL (may
  /// return short or -1/EAGAIN — the caller loops and polls).
  virtual ssize_t transport_recv(std::uint8_t* buf, std::size_t n);
  virtual ssize_t transport_send(const std::uint8_t* buf, std::size_t n);

  int fd() const { return fd_; }

 private:
  bool read_exact(std::uint8_t* buf, std::size_t n, int wake_fd);
  /// Bounded write loop (write_mu_ held): non-blocking sends with POLLOUT
  /// waits, giving up after `deadline_ns` (0 = wait forever).  On timeout
  /// aborts the socket — a half-written frame is unrecoverable framing.
  bool write_all_bounded(const std::uint8_t* p, std::size_t n,
                         std::uint64_t deadline_ns);
  void touch_activity();

  int fd_ = -1;
  std::string peer_;
  std::mutex write_mu_;
  std::atomic<bool> aborted_{false};
  int send_timeout_ms_ = 0;  // 0 = unbounded
  std::function<void()> on_timeout_;
  std::atomic<std::uint64_t> last_activity_ns_{0};
};

struct TcpListenerOptions {
  /// SO_SNDBUF for accepted sockets, set on the listening socket so it is
  /// inherited (0 = OS default).  Tests shrink it to provoke send
  /// timeouts without megabytes of in-flight traffic.
  int sndbuf_bytes = 0;
};

class TcpListener : public Listener {
 public:
  /// Binds and listens on `host:port` (port 0 = ephemeral).  Throws Error
  /// when the address is unavailable.
  TcpListener(const std::string& host, int port,
              TcpListenerOptions options = {});
  ~TcpListener() override;

  std::shared_ptr<Connection> accept(int wake_fd,
                                     int timeout_ms = -1) override;
  void close() override;
  int port() const override { return port_; }

  /// Raw-socket accept for transports layered above TCP (serve/fault.h):
  /// returns the connected fd (caller owns it) and fills `peer`, or -1 on
  /// wake/close/timeout.
  int accept_fd(int wake_fd, int timeout_ms, std::string* peer);

 private:
  int fd_ = -1;
  int port_ = 0;
};

/// Client side of the TCP transport (used by serve_loadgen and tests).
/// Synchronous request/response; NOT thread-safe — one client per thread.
class TcpClient {
 public:
  /// Connects, retrying for up to `retry_ms` while the daemon comes up.
  TcpClient(const std::string& host, int port, int retry_ms = 0);
  ~TcpClient();

  TcpClient(const TcpClient&) = delete;
  TcpClient& operator=(const TcpClient&) = delete;

  /// What every call reports besides its result: `ok` (the result is
  /// valid), the daemon's refusal in `error`, or a closed connection
  /// (daemon drained away, or a mid-frame fault) in `disconnected`.
  struct Outcome {
    bool ok = false;
    bool disconnected = false;
    ErrorResponse error;  // valid when !ok && !disconnected
  };

  /// Sends `request` and blocks for its reply.
  struct Reply : Outcome {
    InferResponse response;
  };
  Reply roundtrip(const InferRequest& request);

  /// Requests a live STAT snapshot (serve::Server::stat_json).  `json` is
  /// the raw document; parse with JsonValue::parse.
  struct StatReply : Outcome {
    std::string json;
  };
  StatReply stat(std::uint64_t request_id = 0);

  /// v3 streaming.  stream_open blocks for the daemon's echo ack;
  /// stream_step blocks for the chunk's infer response (Reply semantics,
  /// same as roundtrip); stream_close blocks for the lifetime totals.
  using StreamAck = Outcome;
  StreamAck stream_open(std::uint64_t stream_id,
                        std::uint64_t request_id = 0);
  Reply stream_step(std::uint64_t stream_id, const InferRequest& request);
  struct StreamCloseResult : Outcome {
    StreamCloseReply totals;
  };
  StreamCloseResult stream_close(std::uint64_t stream_id,
                                 std::uint64_t request_id = 0);

  bool connected() const { return fd_ >= 0; }

 private:
  /// The one send-then-read path under every call: sends one
  /// RequestBuilder `frame`, then reads one reply frame into reply_header_
  /// and reply_payload_.  Returns true (and sets out.ok) on a reply of kind
  /// `want`; otherwise sets out.disconnected on a broken connection, or
  /// decodes a kError reply into out.error.  Any other kind throws, naming
  /// `what`.
  bool exchange(const std::vector<std::uint8_t>& frame, FrameKind want,
                const char* what, Outcome& out);
  bool read_reply_frame(FrameHeader& header,
                        std::vector<std::uint8_t>& payload);

  int fd_ = -1;
  FrameHeader reply_header_;
  std::vector<std::uint8_t> reply_payload_;
};

}  // namespace spiketune::serve
