#include "serve/fault.h"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <thread>

#include "core/error.h"
#include "obs/flight.h"

namespace spiketune::serve {

namespace {

double parse_prob(const std::string& key, const std::string& value) {
  std::size_t used = 0;
  double p = 0.0;
  try {
    p = std::stod(value, &used);
  } catch (const std::exception&) {
    used = 0;
  }
  ST_REQUIRE(used == value.size() && p >= 0.0 && p <= 1.0,
             "fault-spec: " + key + " must be a probability in [0,1], got '" +
                 value + "'");
  return p;
}

int parse_ms(const std::string& key, const std::string& value) {
  std::size_t used = 0;
  long v = 0;
  try {
    v = std::stol(value, &used);
  } catch (const std::exception&) {
    used = 0;
  }
  ST_REQUIRE(used == value.size() && v >= 0 && v <= 60'000,
             "fault-spec: " + key + " must be milliseconds in [0, 60000], "
                                    "got '" +
                 value + "'");
  return static_cast<int>(v);
}

}  // namespace

FaultSpec FaultSpec::parse(const std::string& text) {
  FaultSpec spec;
  std::stringstream ss(text);
  std::string item;
  while (std::getline(ss, item, ',')) {
    if (item.empty()) continue;
    const std::size_t eq = item.find('=');
    ST_REQUIRE(eq != std::string::npos && eq > 0,
               "fault-spec: expected key=value, got '" + item + "'");
    const std::string key = item.substr(0, eq);
    const std::string value = item.substr(eq + 1);
    if (key == "seed") {
      std::size_t used = 0;
      unsigned long long s = 0;
      try {
        s = std::stoull(value, &used);
      } catch (const std::exception&) {
        used = 0;
      }
      ST_REQUIRE(used == value.size(),
                 "fault-spec: seed must be an integer, got '" + value + "'");
      spec.seed = s;
    } else if (key == "p_delay") {
      spec.p_delay = parse_prob(key, value);
    } else if (key == "delay_ms") {
      spec.delay_ms = parse_ms(key, value);
    } else if (key == "p_read_stall") {
      spec.p_read_stall = parse_prob(key, value);
    } else if (key == "p_write_stall") {
      spec.p_write_stall = parse_prob(key, value);
    } else if (key == "stall_ms") {
      spec.stall_ms = parse_ms(key, value);
    } else if (key == "p_partial") {
      spec.p_partial = parse_prob(key, value);
    } else if (key == "p_corrupt") {
      spec.p_corrupt = parse_prob(key, value);
    } else if (key == "p_disconnect") {
      spec.p_disconnect = parse_prob(key, value);
    } else if (key == "crash_at" || key == "crash-at") {
      std::size_t used = 0;
      long long v = 0;
      try {
        v = std::stoll(value, &used);
      } catch (const std::exception&) {
        used = 0;
      }
      ST_REQUIRE(used == value.size() && v >= 0,
                 "fault-spec: crash_at must be a frame count >= 0, got '" +
                     value + "'");
      spec.crash_at = v;
    } else if (key == "crash_sig" || key == "crash-sig") {
      std::size_t used = 0;
      long v = 0;
      try {
        v = std::stol(value, &used);
      } catch (const std::exception&) {
        used = 0;
      }
      ST_REQUIRE(used == value.size() && (v == 6 || v == 11),
                 "fault-spec: crash_sig must be 11 (SIGSEGV) or 6 (SIGABRT), "
                 "got '" +
                     value + "'");
      spec.crash_sig = static_cast<int>(v);
    } else {
      throw InvalidArgument("fault-spec: unknown key '" + key + "'");
    }
  }
  return spec;
}

std::string FaultSpec::describe() const {
  std::ostringstream os;
  os << "seed=" << seed << ",p_delay=" << p_delay
     << ",delay_ms=" << delay_ms << ",p_read_stall=" << p_read_stall
     << ",p_write_stall=" << p_write_stall << ",stall_ms=" << stall_ms
     << ",p_partial=" << p_partial << ",p_corrupt=" << p_corrupt
     << ",p_disconnect=" << p_disconnect << ",crash_at=" << crash_at
     << ",crash_sig=" << crash_sig;
  return os.str();
}

// --- FaultLog ---------------------------------------------------------------

void FaultLog::record(std::uint64_t conn, char dir, std::uint64_t op,
                      std::string fault) {
  std::lock_guard<std::mutex> lock(mu_);
  events_.push_back({conn, dir, op, std::move(fault)});
}

std::size_t FaultLog::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return events_.size();
}

std::vector<FaultLog::Event> FaultLog::events() const {
  std::lock_guard<std::mutex> lock(mu_);
  return events_;
}

std::string FaultLog::dump() const {
  std::vector<Event> sorted = events();
  std::sort(sorted.begin(), sorted.end(),
            [](const Event& a, const Event& b) {
              if (a.conn != b.conn) return a.conn < b.conn;
              if (a.dir != b.dir) return a.dir < b.dir;
              return a.op < b.op;
            });
  std::ostringstream os;
  for (const Event& e : sorted) {
    os << "{\"conn\":" << e.conn << ",\"dir\":\"" << e.dir
       << "\",\"op\":" << e.op << ",\"fault\":\"" << e.fault << "\"}\n";
  }
  return os.str();
}

void FaultLog::write_jsonl(const std::string& path) const {
  std::ofstream out(path);
  ST_REQUIRE(out.good(), "cannot write fault log: " + path);
  out << dump();
}

// --- FaultInjectingConnection -----------------------------------------------

FaultInjectingConnection::FaultInjectingConnection(
    int fd, std::string peer, const FaultSpec& spec, std::uint64_t conn_index,
    FaultLog* log, std::shared_ptr<std::atomic<std::int64_t>> frame_counter)
    : TcpConnection(fd, std::move(peer)),
      spec_(spec),
      conn_index_(conn_index),
      log_(log),
      frame_counter_(std::move(frame_counter)),
      read_rng_(Rng(spec.seed).fork(conn_index * 2 + 0)),
      write_rng_(Rng(spec.seed).fork(conn_index * 2 + 1)) {}

void FaultInjectingConnection::log_fault(char dir, std::uint64_t op,
                                         const char* fault) {
  obs::flight_record(obs::FlightEventId::kFaultInjected, conn_index_, op);
  if (log_ != nullptr) log_->record(conn_index_, dir, op, fault);
}

bool FaultInjectingConnection::read_frame(FrameHeader& header,
                                          std::vector<std::uint8_t>& payload,
                                          int wake_fd) {
  // Per-frame draws happen in a fixed order regardless of outcome, so the
  // schedule depends only on (seed, connection, frame index).
  const std::uint64_t frame = read_seq_++;
  const bool delay = read_rng_.bernoulli(spec_.p_delay);
  const bool corrupt = read_rng_.bernoulli(spec_.p_corrupt);
  if (delay) {
    log_fault('r', frame, "delay");
    std::this_thread::sleep_for(std::chrono::milliseconds(spec_.delay_ms));
  }
  // Corruption is armed per frame and fires on the first header byte (the
  // magic LSB), so decode_header is guaranteed to reject it — faults must
  // never be able to silently alter a payload the parity gate would pass.
  corrupt_next_read_ = corrupt;
  if (!TcpConnection::read_frame(header, payload, wake_fd)) return false;
  // crash_at is counter-based, not an RNG draw, so it neither perturbs the
  // fault schedule above nor depends on it: the Nth decoded inbound frame
  // across all of the listener's connections kills the process, exactly.
  // It fires once that frame has arrived, not when the reader starts
  // waiting for it: a client that sends frame N only after its reply to
  // N - 1 then knows every earlier request was answered before the crash.
  if (spec_.crash_at > 0 && frame_counter_ != nullptr) {
    const std::int64_t nth =
        frame_counter_->fetch_add(1, std::memory_order_relaxed) + 1;
    if (nth == spec_.crash_at) {
      log_fault('r', frame, "crash");
      obs::flight_record(obs::FlightEventId::kCrashInjected,
                         static_cast<std::uint64_t>(nth),
                         static_cast<std::uint64_t>(spec_.crash_sig));
      if (spec_.crash_sig == 6) {
        std::abort();
      } else {
        volatile int* null_page = nullptr;
        *null_page = 42;  // SIGSEGV with fault_addr 0 in the bundle
      }
    }
  }
  return true;
}

ssize_t FaultInjectingConnection::transport_recv(std::uint8_t* buf,
                                                 std::size_t n) {
  const std::uint64_t op = read_seq_++;
  const bool stall = read_rng_.bernoulli(spec_.p_read_stall);
  const bool disconnect = read_rng_.bernoulli(spec_.p_disconnect);
  if (stall) {
    log_fault('r', op, "read_stall");
    std::this_thread::sleep_for(std::chrono::milliseconds(spec_.stall_ms));
  }
  if (disconnect) {
    log_fault('r', op, "disconnect");
    abort();
    return 0;  // surfaces as EOF mid-frame
  }
  const ssize_t r = TcpConnection::transport_recv(buf, n);
  if (r > 0 && corrupt_next_read_) {
    log_fault('r', op, "corrupt_header");
    buf[0] ^= 0x01;  // breaks the frame magic; decode_header throws
    corrupt_next_read_ = false;
  }
  return r;
}

ssize_t FaultInjectingConnection::transport_send(const std::uint8_t* buf,
                                                 std::size_t n) {
  const std::uint64_t op = write_seq_++;
  const bool stall = write_rng_.bernoulli(spec_.p_write_stall);
  const bool partial = write_rng_.bernoulli(spec_.p_partial);
  const bool disconnect = write_rng_.bernoulli(spec_.p_disconnect);
  if (stall) {
    log_fault('w', op, "write_stall");
    std::this_thread::sleep_for(std::chrono::milliseconds(spec_.stall_ms));
  }
  if (disconnect) {
    // Let a few bytes escape first so the peer sees a torn frame, not a
    // clean close between frames.
    const std::size_t torn = std::min<std::size_t>(n, 3);
    (void)TcpConnection::transport_send(buf, torn);
    log_fault('w', op, "disconnect");
    abort();
    errno = ECONNRESET;
    return -1;
  }
  if (partial && n > 1) {
    log_fault('w', op, "partial_write");
    n = 1 + static_cast<std::size_t>(write_rng_.uniform_int(
                std::min<std::uint64_t>(n - 1, 8)));
  }
  return TcpConnection::transport_send(buf, n);
}

// --- FaultInjectingListener -------------------------------------------------

FaultInjectingListener::FaultInjectingListener(
    std::unique_ptr<TcpListener> inner, FaultSpec spec, FaultLog* log)
    : inner_(std::move(inner)),
      spec_(spec),
      log_(log),
      frame_counter_(spec.crash_at > 0
                         ? std::make_shared<std::atomic<std::int64_t>>(0)
                         : nullptr) {}

std::shared_ptr<Connection> FaultInjectingListener::accept(int wake_fd,
                                                           int timeout_ms) {
  std::string peer;
  const int fd = inner_->accept_fd(wake_fd, timeout_ms, &peer);
  if (fd < 0) return nullptr;
  const std::uint64_t index =
      next_index_.fetch_add(1, std::memory_order_relaxed);
  return std::make_shared<FaultInjectingConnection>(
      fd, std::move(peer), spec_, index, log_, frame_counter_);
}

void FaultInjectingListener::close() { inner_->close(); }

int FaultInjectingListener::port() const { return inner_->port(); }

}  // namespace spiketune::serve
