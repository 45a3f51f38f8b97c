// Serving-daemon tests: wire protocol round-trips, dynamic-batcher
// admission/coalescing semantics, and end-to-end Server integration over
// real TCP connections — including the bitwise parity contract (a served
// response equals a direct InferenceSession run on the same window,
// whatever batch it rode in) and drain-safe shutdown with requests in
// flight.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_set>
#include <vector>

#include "core/error.h"
#include "core/json.h"
#include "core/rng.h"
#include "infer/session.h"
#include "obs/ledger.h"
#include "obs/metrics.h"
#include "obs/signal_flush.h"
#include "obs/spans.h"
#include "obs/telemetry.h"
#include "serve/batcher.h"
#include "serve/fault.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "serve/transport.h"
#include "snn/model_zoo.h"

namespace spiketune::serve {
namespace {

// --- protocol ---------------------------------------------------------------

TEST(ServeProtocol, HeaderRoundTrip) {
  FrameHeader h;
  h.kind = FrameKind::kInferResponse;
  h.request_id = 0x1122334455667788ULL;
  h.payload_bytes = 412;
  std::uint8_t raw[kHeaderBytes];
  encode_header(h, raw);
  const FrameHeader back = decode_header(raw);
  EXPECT_EQ(back.magic, kMagic);
  EXPECT_EQ(back.kind, FrameKind::kInferResponse);
  EXPECT_EQ(back.request_id, h.request_id);
  EXPECT_EQ(back.payload_bytes, h.payload_bytes);
}

TEST(ServeProtocol, RejectsBadMagicAndUnknownKind) {
  FrameHeader h;
  std::uint8_t raw[kHeaderBytes];
  encode_header(h, raw);
  std::uint8_t bad[kHeaderBytes];
  std::memcpy(bad, raw, kHeaderBytes);
  bad[0] ^= 0xff;  // corrupt the magic
  EXPECT_THROW(decode_header(bad), InvalidArgument);
  // Byte-swapped magic = wrong-endian peer: also rejected.
  std::memcpy(bad, raw, kHeaderBytes);
  std::swap(bad[0], bad[3]);
  std::swap(bad[1], bad[2]);
  EXPECT_THROW(decode_header(bad), InvalidArgument);
  std::memcpy(bad, raw, kHeaderBytes);
  bad[4] = 0x7f;  // kind outside the enum
  EXPECT_THROW(decode_header(bad), InvalidArgument);
}

TEST(ServeProtocol, HeaderRejectsOversizedPayload) {
  FrameHeader h;
  std::uint8_t raw[kHeaderBytes];
  h.payload_bytes = kMaxPayloadBytes;
  encode_header(h, raw);
  EXPECT_EQ(decode_header(raw).payload_bytes, kMaxPayloadBytes);
  h.payload_bytes = kMaxPayloadBytes + 1;
  encode_header(h, raw);
  EXPECT_THROW(decode_header(raw), InvalidArgument);
  h.payload_bytes = 0xffffffffu;
  encode_header(h, raw);
  EXPECT_THROW(decode_header(raw), InvalidArgument);
}

TEST(ServeProtocol, RejectsOverflowingRequestDims) {
  // num_steps = elems_per_step = 2^31: the element count times
  // sizeof(float) wraps to 0 modulo 2^64, so a multiply-based size check
  // would accept this 16-byte payload (dims + deadline, no floats) and then
  // die inside resize().  The decoder must reject it as InvalidArgument.
  const std::uint32_t huge = 1u << 31;
  std::vector<std::uint8_t> payload;
  const auto* p = reinterpret_cast<const std::uint8_t*>(&huge);
  payload.insert(payload.end(), p, p + 4);  // num_steps
  payload.insert(payload.end(), p, p + 4);  // elems_per_step
  payload.insert(payload.end(), 8, 0);      // deadline_us = 0
  EXPECT_THROW(decode_request(42, payload), InvalidArgument);

  // A trailing byte count that is not a multiple of sizeof(float) can
  // never agree with any (num_steps, elems_per_step): also rejected.
  payload.push_back(0);
  EXPECT_THROW(decode_request(42, payload), InvalidArgument);
}

TEST(ServeProtocol, RequestRoundTripAndTruncationChecks) {
  InferRequest r;
  r.request_id = 42;
  r.num_steps = 3;
  r.elems_per_step = 4;
  Rng rng(7);
  for (int i = 0; i < 12; ++i)
    r.data.push_back(static_cast<float>(rng.normal()));
  const std::vector<std::uint8_t> payload =
      detail::encode_request_payload(r);
  const InferRequest back = decode_request(r.request_id, payload);
  EXPECT_EQ(back.request_id, 42u);
  EXPECT_EQ(back.num_steps, 3u);
  EXPECT_EQ(back.elems_per_step, 4u);
  ASSERT_EQ(back.data.size(), r.data.size());
  EXPECT_EQ(std::memcmp(back.data.data(), r.data.data(),
                        r.data.size() * sizeof(float)),
            0);

  // Truncated payload and inconsistent dims both throw.
  std::vector<std::uint8_t> cut(payload.begin(), payload.end() - 4);
  EXPECT_THROW(decode_request(42, cut), InvalidArgument);
  EXPECT_THROW(decode_request(42, std::vector<std::uint8_t>{1, 2, 3}),
               InvalidArgument);
}

TEST(ServeProtocol, ResponseAndErrorRoundTrip) {
  InferResponse r;
  r.request_id = 9;
  r.out_features = 3;
  r.batch = 5;
  r.queue_ns = 1234;
  r.assemble_ns = 777;
  r.infer_ns = 987654321;
  r.spike_counts = {1.0f, 0.0f, 2.5f};
  const InferResponse back =
      decode_response(9, detail::encode_response_payload(r));
  EXPECT_EQ(back.batch, 5u);
  EXPECT_EQ(back.queue_ns, 1234u);
  EXPECT_EQ(back.assemble_ns, 777u);
  EXPECT_EQ(back.infer_ns, 987654321u);
  ASSERT_EQ(back.spike_counts.size(), 3u);
  EXPECT_EQ(std::memcmp(back.spike_counts.data(), r.spike_counts.data(),
                        3 * sizeof(float)),
            0);

  ErrorResponse e;
  e.request_id = 9;
  e.code = ErrorCode::kOverloaded;
  e.message = "queue at max depth";
  const ErrorResponse eback =
      decode_error(9, detail::encode_error_payload(e));
  EXPECT_EQ(eback.code, ErrorCode::kOverloaded);
  EXPECT_EQ(eback.message, "queue at max depth");
  EXPECT_STREQ(error_code_name(ErrorCode::kShuttingDown), "shutting-down");
}

TEST(ServeProtocol, StatPayloadRoundTrip) {
  const std::string json = "{\"served\":3,\"qps\":12.5}";
  EXPECT_EQ(decode_stat(detail::encode_stat_payload(json)), json);
  EXPECT_TRUE(decode_stat(detail::encode_stat_payload("")).empty());
}

TEST(ServeProtocol, HeaderAcceptsOnlyProtocolVersion3) {
  // Every kind round-trips at kProtocolVersion, which lives in the kind
  // word's second byte.  Any other version — the zero byte of the original,
  // pre-versioning format, 1, 2 or a newer one — is rejected for every
  // kind, with a message naming the version received.
  for (std::uint32_t kind = 1; kind <= 8; ++kind) {
    SCOPED_TRACE("kind " + std::to_string(kind));
    FrameHeader h;
    h.kind = static_cast<FrameKind>(kind);
    h.request_id = 7;
    std::uint8_t raw[kHeaderBytes];
    encode_header(h, raw);
    EXPECT_EQ(raw[4], kind);
    EXPECT_EQ(raw[5], kProtocolVersion);
    EXPECT_EQ(decode_header(raw).kind, h.kind);
    for (const std::uint32_t v : {0u, 1u, 2u, kProtocolVersion + 1}) {
      raw[5] = static_cast<std::uint8_t>(v);
      try {
        decode_header(raw);
        ADD_FAILURE() << "version " << v << " was accepted";
      } catch (const InvalidArgument& e) {
        EXPECT_NE(std::string(e.what()).find("version " + std::to_string(v)),
                  std::string::npos)
            << e.what();
      }
    }
  }
  // The builder frames for kProtocolVersion only.
  EXPECT_NO_THROW(RequestBuilder{kProtocolVersion});
  EXPECT_THROW(RequestBuilder{2}, InvalidArgument);
  EXPECT_THROW(RequestBuilder{kProtocolVersion + 1}, InvalidArgument);
}

TEST(ServeProtocol, RequestDeadlineRoundTrip) {
  InferRequest r;
  r.request_id = 13;
  r.num_steps = 2;
  r.elems_per_step = 3;
  r.deadline_us = 123456;
  r.data = {1, 0, 1, 0, 1, 0};
  const std::vector<std::uint8_t> payload = detail::encode_request_payload(r);
  EXPECT_EQ(payload.size(), 16u + r.data.size() * sizeof(float));
  const InferRequest back = decode_request(13, payload);
  EXPECT_EQ(back.deadline_us, 123456u);
  EXPECT_EQ(back.num_steps, 2u);
  ASSERT_EQ(back.data.size(), r.data.size());
}

// A reply frame as the server writes it: the header, then exactly the
// payload encoder's bytes.  RequestBuilder frames only the client's side.
std::vector<std::uint8_t> reply_frame(
    FrameKind kind, std::uint64_t id,
    const std::vector<std::uint8_t>& payload) {
  FrameHeader h;
  h.kind = kind;
  h.request_id = id;
  h.payload_bytes = static_cast<std::uint32_t>(payload.size());
  std::vector<std::uint8_t> out(kHeaderBytes);
  encode_header(h, out.data());
  out.insert(out.end(), payload.begin(), payload.end());
  return out;
}

// Decodes `payload` as a frame of `h.kind` (throwing InvalidArgument when
// the decoder refuses it) and returns a thunk that re-encodes the decoded
// message through RequestBuilder or reply_frame.  `reply` picks the
// STREAM_CLOSE layout, the one kind whose payload depends on the direction.
std::function<std::vector<std::uint8_t>()> decode_frame(
    const FrameHeader& h, const std::vector<std::uint8_t>& payload,
    bool reply) {
  const RequestBuilder b;
  const std::uint64_t id = h.request_id;
  switch (h.kind) {
    case FrameKind::kInferRequest:
      return [b, m = decode_request(id, payload)] {
        return b.infer_request(m);
      };
    case FrameKind::kInferResponse:
      return [id, m = decode_response(id, payload)] {
        return reply_frame(FrameKind::kInferResponse, id,
                           detail::encode_response_payload(m));
      };
    case FrameKind::kError:
      return [id, m = decode_error(id, payload)] {
        return reply_frame(FrameKind::kError, id,
                           detail::encode_error_payload(m));
      };
    case FrameKind::kStatRequest:
      return [b, id] { return b.stat_request(id); };
    case FrameKind::kStatResponse:
      return [id, m = decode_stat(payload)] {
        return reply_frame(FrameKind::kStatResponse, id,
                           detail::encode_stat_payload(m));
      };
    case FrameKind::kStreamOpen:
      return [b, m = decode_stream_control(id, payload)] {
        return b.stream_open(m);
      };
    case FrameKind::kStreamStep:
      return [b, m = decode_stream_step(id, payload)] {
        return b.stream_step(m);
      };
    case FrameKind::kStreamClose:
      if (reply) {
        return [id, m = decode_stream_close_reply(id, payload)] {
          return reply_frame(FrameKind::kStreamClose, id,
                             detail::encode_stream_close_reply_payload(m));
        };
      }
      return [b, m = decode_stream_control(id, payload)] {
        return b.stream_close(m);
      };
  }
  throw std::logic_error("decode_header let an unknown kind through");
}

// Reads `bytes` as a peer's frame reader does — a header, exactly
// payload_bytes of payload, the kind's decoder, then the next frame — and
// expects every frame it decodes to re-encode to the very bytes it was read
// from, so nothing is silently misread.  Reading stops at an
// InvalidArgument (a rejected frame) or where fewer bytes remain than the
// next header or payload needs (the reader would wait for them).  Returns
// the number of bytes decoded.
std::size_t expect_rejected_or_exact(const std::vector<std::uint8_t>& bytes,
                                     bool reply) {
  std::size_t off = 0;
  while (bytes.size() - off >= kHeaderBytes) {
    FrameHeader h;
    std::function<std::vector<std::uint8_t>()> reencode;
    try {
      h = decode_header(bytes.data() + off);
      if (bytes.size() - off - kHeaderBytes < h.payload_bytes) break;
      const auto body = bytes.begin() +
                        static_cast<std::ptrdiff_t>(off + kHeaderBytes);
      reencode = decode_frame(
          h, std::vector<std::uint8_t>(body, body + h.payload_bytes), reply);
    } catch (const InvalidArgument&) {
      break;
    }
    const std::size_t end = off + kHeaderBytes + h.payload_bytes;
    const std::vector<std::uint8_t> read(
        bytes.begin() + static_cast<std::ptrdiff_t>(off),
        bytes.begin() + static_cast<std::ptrdiff_t>(end));
    EXPECT_EQ(reencode(), read) << "frame at byte " << off << " misread";
    off = end;
  }
  return off;
}

TEST(ServeProtocol, FrameMutantsAreRejectedOrReencodeExactly) {
  const RequestBuilder b;
  InferRequest req;
  req.request_id = 0x0102030405060708ull;
  req.num_steps = 2;
  req.elems_per_step = 2;
  req.deadline_us = 99;
  req.data = {1.0f, 0.0f, 0.5f, 1.0f};
  InferResponse resp;
  resp.request_id = 11;
  resp.out_features = 2;
  resp.batch = 3;
  resp.queue_ns = 40;
  resp.assemble_ns = 5;
  resp.infer_ns = 900;
  resp.spike_counts = {4.0f, 0.0f};
  ErrorResponse err;
  err.request_id = 12;
  err.code = ErrorCode::kOverloaded;
  err.message = "busy";
  StreamCloseReply totals;
  totals.request_id = 13;
  totals.stream_id = 9;
  totals.steps_done = 6;
  totals.cumulative_counts = {2.0f, 7.0f};

  struct Case {
    const char* name;
    std::vector<std::uint8_t> frame;
    bool reply;
  };
  const Case cases[] = {
      {"infer_request", b.infer_request(req), false},
      {"infer_response",
       reply_frame(FrameKind::kInferResponse, resp.request_id,
                   detail::encode_response_payload(resp)),
       true},
      {"error",
       reply_frame(FrameKind::kError, err.request_id,
                   detail::encode_error_payload(err)),
       true},
      {"stat_request", b.stat_request(14), false},
      {"stat_response",
       reply_frame(FrameKind::kStatResponse, 14,
                   detail::encode_stat_payload("{\"served\":3}")),
       true},
      {"stream_open", b.stream_open({15, 9}), false},
      {"stream_step", b.stream_step({9, req}), false},
      {"stream_close", b.stream_close({16, 9}), false},
      {"stream_close_reply",
       reply_frame(FrameKind::kStreamClose, totals.request_id,
                   detail::encode_stream_close_reply_payload(totals)),
       true},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    EXPECT_EQ(expect_rejected_or_exact(c.frame, c.reply), c.frame.size());
    for (std::size_t bit = 0; bit < c.frame.size() * 8; ++bit) {
      SCOPED_TRACE("bit " + std::to_string(bit));
      std::vector<std::uint8_t> m = c.frame;
      m[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
      expect_rejected_or_exact(m, c.reply);
    }
    for (std::size_t len = 0; len < c.frame.size(); ++len) {
      SCOPED_TRACE("length " + std::to_string(len));
      std::vector<std::uint8_t> m(
          c.frame.begin(), c.frame.begin() + static_cast<std::ptrdiff_t>(len));
      // Relabel payload_bytes to the bytes left, so the cut reaches the
      // payload decoder instead of leaving the reader waiting for the rest.
      if (len >= kHeaderBytes) {
        const auto n = static_cast<std::uint32_t>(len - kHeaderBytes);
        std::memcpy(m.data() + 16, &n, sizeof n);
      }
      expect_rejected_or_exact(m, c.reply);
    }
  }
}

TEST(ServeProtocol, V2ErrorCodesRoundTrip) {
  ErrorResponse e;
  e.request_id = 4;
  e.code = ErrorCode::kDeadlineExceeded;
  e.message = "late";
  EXPECT_EQ(decode_error(4, detail::encode_error_payload(e)).code,
            ErrorCode::kDeadlineExceeded);
  e.code = ErrorCode::kInternalError;
  EXPECT_EQ(decode_error(4, detail::encode_error_payload(e)).code,
            ErrorCode::kInternalError);
  EXPECT_STREQ(error_code_name(ErrorCode::kDeadlineExceeded),
               "deadline-exceeded");
  EXPECT_STREQ(error_code_name(ErrorCode::kInternalError), "internal-error");
  // One past the last known code: rejected at decode.
  e.code = static_cast<ErrorCode>(6);
  EXPECT_THROW(decode_error(4, detail::encode_error_payload(e)),
               InvalidArgument);
}

// --- batcher ----------------------------------------------------------------

PendingRequest pending(std::uint32_t num_steps, std::uint64_t id = 0,
                       std::uint64_t deadline_ns = 0) {
  PendingRequest p;
  p.request.request_id = id;
  p.request.num_steps = num_steps;
  p.deadline_ns = deadline_ns;
  return p;
}

/// Dequeue for tests of the deadline-free batching rules: nothing queued
/// carries a deadline, so the expired out-parameter must stay empty.
std::vector<PendingRequest> take_batch(Batcher& b) {
  std::vector<PendingRequest> expired;
  std::vector<PendingRequest> batch = b.next_batch(expired);
  EXPECT_TRUE(expired.empty());
  return batch;
}

TEST(ServeBatcher, AdmissionControlBoundsQueueDepth) {
  Batcher b({.max_batch = 4, .batch_timeout_us = 0, .max_queue_depth = 2});
  EXPECT_EQ(b.submit(pending(4)), AdmitResult::kAdmitted);
  EXPECT_EQ(b.submit(pending(4)), AdmitResult::kAdmitted);
  EXPECT_EQ(b.submit(pending(4)), AdmitResult::kQueueFull);
  EXPECT_EQ(b.depth(), 2u);
}

TEST(ServeBatcher, DrainRejectsSubmitsAndReleasesWorkers) {
  Batcher b({.max_batch = 4, .batch_timeout_us = 0, .max_queue_depth = 8});
  b.drain();
  EXPECT_TRUE(b.draining());
  EXPECT_EQ(b.submit(pending(4)), AdmitResult::kDraining);
  // Draining + empty queue: next_batch returns empty instead of blocking.
  EXPECT_TRUE(take_batch(b).empty());
}

TEST(ServeBatcher, DrainServesQueuedWorkBeforeReleasing) {
  Batcher b({.max_batch = 2, .batch_timeout_us = 0, .max_queue_depth = 8});
  ASSERT_EQ(b.submit(pending(4, 1)), AdmitResult::kAdmitted);
  ASSERT_EQ(b.submit(pending(4, 2)), AdmitResult::kAdmitted);
  ASSERT_EQ(b.submit(pending(4, 3)), AdmitResult::kAdmitted);
  b.drain();
  EXPECT_EQ(take_batch(b).size(), 2u);  // admitted work still comes out
  EXPECT_EQ(take_batch(b).size(), 1u);
  EXPECT_TRUE(take_batch(b).empty());  // then the drain signal
}

TEST(ServeBatcher, CoalescesSameWindowLengthOnly) {
  // Queue: T=4, T=4, T=2, T=4.  The first batch takes the three T=4
  // requests (in arrival order); T=2 stays queued and forms the next batch.
  Batcher b({.max_batch = 8, .batch_timeout_us = 0, .max_queue_depth = 16});
  ASSERT_EQ(b.submit(pending(4, 1)), AdmitResult::kAdmitted);
  ASSERT_EQ(b.submit(pending(4, 2)), AdmitResult::kAdmitted);
  ASSERT_EQ(b.submit(pending(2, 3)), AdmitResult::kAdmitted);
  ASSERT_EQ(b.submit(pending(4, 4)), AdmitResult::kAdmitted);

  const auto first = take_batch(b);
  ASSERT_EQ(first.size(), 3u);
  for (const PendingRequest& p : first) EXPECT_EQ(p.request.num_steps, 4u);
  EXPECT_EQ(first[0].request.request_id, 1u);
  EXPECT_EQ(first[1].request.request_id, 2u);
  EXPECT_EQ(first[2].request.request_id, 4u);

  const auto second = take_batch(b);
  ASSERT_EQ(second.size(), 1u);
  EXPECT_EQ(second[0].request.request_id, 3u);
  EXPECT_EQ(second[0].request.num_steps, 2u);
}

TEST(ServeBatcher, RespectsMaxBatch) {
  Batcher b({.max_batch = 2, .batch_timeout_us = 0, .max_queue_depth = 16});
  for (std::uint64_t i = 0; i < 5; ++i)
    ASSERT_EQ(b.submit(pending(4, i)), AdmitResult::kAdmitted);
  EXPECT_EQ(take_batch(b).size(), 2u);
  EXPECT_EQ(take_batch(b).size(), 2u);
  EXPECT_EQ(take_batch(b).size(), 1u);
  EXPECT_EQ(b.depth(), 0u);
}

/// Seeds a batcher's cost fit with two T=4 runs whose per-timestep cost is
/// exactly 100 ms + rows * 10 ms: a 100 ms fixed cost per step, so one more
/// row saves a·T = 400 ms and a lone row's predicted service is 440 ms.
constexpr std::uint64_t kFixedStepNs = 100'000'000;
constexpr std::uint64_t kRowStepNs = 10'000'000;
void seed_fixed_cost(Batcher& b) {
  b.record_cost(1, 4, (kFixedStepNs + 1 * kRowStepNs) * 4);
  b.record_cost(4, 4, (kFixedStepNs + 4 * kRowStepNs) * 4);
}

std::uint64_t ms_since(std::chrono::steady_clock::time_point t0) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now() - t0)
          .count());
}

TEST(ServeBatcher, LatencyBudgetPicksUpLateArrivals) {
  // With a clear fixed cost on record, holding pays: the batch stays open
  // (up to the 200 ms budget, well under a·T) and a late arrival joins.
  Batcher b({.max_batch = 4, .batch_timeout_us = 200000,
             .max_queue_depth = 16});
  seed_fixed_cost(b);
  ASSERT_EQ(b.submit(pending(4, 1)), AdmitResult::kAdmitted);
  std::thread late([&b] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    ASSERT_EQ(b.submit(pending(4, 2)), AdmitResult::kAdmitted);
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    b.drain();  // close the window so next_batch returns promptly
  });
  const auto batch = take_batch(b);
  late.join();
  ASSERT_EQ(batch.size(), 2u);  // the late arrival joined the open batch
  EXPECT_EQ(batch[1].request.request_id, 2u);
}

TEST(ServeBatcher, NeverHoldsWhenHoldingCannotPay) {
  // Each case would hold a 200 ms budget under a fixed-window rule; the
  // cost-aware rule closes at once because the wait buys nothing.
  const auto closes_at_once = [](Batcher& b) {
    ASSERT_EQ(b.submit(pending(4, 1)), AdmitResult::kAdmitted);
    const auto t0 = std::chrono::steady_clock::now();
    EXPECT_EQ(take_batch(b).size(), 1u);
    EXPECT_LT(ms_since(t0), 100u);
  };
  {
    SCOPED_TRACE("no cost evidence");
    Batcher b({.max_batch = 4, .batch_timeout_us = 200000,
               .max_queue_depth = 16});
    closes_at_once(b);
  }
  {
    SCOPED_TRACE("one batch size seen");
    Batcher b({.max_batch = 4, .batch_timeout_us = 200000,
               .max_queue_depth = 16});
    b.record_cost(1, 4, 400'000'000);
    b.record_cost(1, 4, 500'000'000);
    closes_at_once(b);
  }
  {
    SCOPED_TRACE("a <= 0: every row costs the same at any batch size");
    Batcher b({.max_batch = 4, .batch_timeout_us = 200000,
               .max_queue_depth = 16});
    b.record_cost(1, 1, 800'000);
    b.record_cost(4, 1, 3'200'000);
    closes_at_once(b);
  }
  {
    SCOPED_TRACE("budget 0 never holds, whatever the fit");
    Batcher b({.max_batch = 4, .batch_timeout_us = 0,
               .max_queue_depth = 16});
    seed_fixed_cost(b);
    closes_at_once(b);
  }
}

TEST(ServeBatcher, ClosesAtOnceWhileAnotherWorkerIsParked) {
  // The fit says hold up to a·T = 400 ms (the budget allows 1 s), but the
  // second worker parked in next_batch could take the next arrival at
  // once, so whichever worker seeds the row closes its batch without
  // holding.  Either thread may win the row; the other stays parked until
  // the drain.
  Batcher b({.max_batch = 4, .batch_timeout_us = 1'000'000,
             .max_queue_depth = 16});
  seed_fixed_cost(b);
  std::atomic<int> rows_out{0};
  std::atomic<std::uint64_t> close_ms{0};
  const auto t0 = std::chrono::steady_clock::now();
  const auto worker = [&] {
    std::vector<PendingRequest> expired;
    const auto batch = b.next_batch(expired);
    if (batch.empty()) return;
    close_ms.store(ms_since(t0));
    rows_out.fetch_add(static_cast<int>(batch.size()));
    b.drain();  // release the parked worker
  };
  std::thread w1(worker), w2(worker);
  ASSERT_EQ(b.submit(pending(4, 1)), AdmitResult::kAdmitted);
  w1.join();
  w2.join();
  EXPECT_EQ(rows_out.load(), 1);
  EXPECT_LT(close_ms.load(), 200u);
}

TEST(ServeBatcher, HoldEndsBeforeEarliestDeadlineMinusServiceTime) {
  // a·T = 400 ms and the budget allows 1 s, but the row must be done by
  // its deadline 540 ms out and a lone row's predicted service time is
  // 440 ms: the hold may run only ~100 ms.
  Batcher b({.max_batch = 4, .batch_timeout_us = 1'000'000,
             .max_queue_depth = 16});
  seed_fixed_cost(b);
  constexpr std::uint64_t kServiceNs = (kFixedStepNs + kRowStepNs) * 4;
  const std::uint64_t deadline =
      obs::telemetry_now_ns() + kServiceNs + 100'000'000;
  ASSERT_EQ(b.submit(pending(4, 1, deadline)), AdmitResult::kAdmitted);
  std::vector<PendingRequest> expired;
  const auto batch = b.next_batch(expired);
  const std::uint64_t closed = obs::telemetry_now_ns();
  EXPECT_TRUE(expired.empty());
  ASSERT_EQ(batch.size(), 1u);
  // Held past deadline - service by at most scheduling noise (a hold to
  // a·T would overshoot by 300 ms).
  EXPECT_LT(closed + kServiceNs, deadline + 150'000'000);
}

TEST(ServeBatcher, ShedsExpiredEntriesAtDequeue) {
  Batcher b({.max_batch = 4, .batch_timeout_us = 0, .max_queue_depth = 16});
  const std::uint64_t now = obs::telemetry_now_ns();
  ASSERT_EQ(b.submit(pending(4, 1)), AdmitResult::kAdmitted);
  ASSERT_EQ(b.submit(pending(4, 2, /*deadline_ns=*/now)),  // already expired
            AdmitResult::kAdmitted);
  ASSERT_EQ(b.submit(pending(4, 3, now + 60'000'000'000ull)),  // +60 s
            AdmitResult::kAdmitted);
  std::vector<PendingRequest> expired;
  const auto batch = b.next_batch(expired);
  ASSERT_EQ(expired.size(), 1u);
  EXPECT_EQ(expired[0].request.request_id, 2u);
  ASSERT_EQ(batch.size(), 2u);  // the live requests still coalesce
  EXPECT_EQ(batch[0].request.request_id, 1u);
  EXPECT_EQ(batch[1].request.request_id, 3u);
  EXPECT_EQ(b.depth(), 0u);
}

TEST(ServeBatcher, ExpiredOnlyQueueReturnsPromptlyWithoutBlocking) {
  // Everything queued is stale: next_batch must hand the expired entries
  // back immediately (they still need kDeadlineExceeded answers) instead
  // of blocking for a live arrival that may never come.
  Batcher b({.max_batch = 4, .batch_timeout_us = 0, .max_queue_depth = 16});
  ASSERT_EQ(b.submit(pending(4, 1, obs::telemetry_now_ns())),
            AdmitResult::kAdmitted);
  std::vector<PendingRequest> expired;
  EXPECT_TRUE(b.next_batch(expired).empty());
  ASSERT_EQ(expired.size(), 1u);
  EXPECT_EQ(expired[0].request.request_id, 1u);
}

TEST(ServeBatcher, DrainStillShedsExpiredBeforeReleasingWorkers) {
  Batcher b({.max_batch = 4, .batch_timeout_us = 0, .max_queue_depth = 16});
  ASSERT_EQ(b.submit(pending(4, 1, obs::telemetry_now_ns())),
            AdmitResult::kAdmitted);
  b.drain();
  // First pass: the expired entry comes out for shedding, not inference.
  std::vector<PendingRequest> expired;
  EXPECT_TRUE(b.next_batch(expired).empty());
  ASSERT_EQ(expired.size(), 1u);
  // Second pass: dry and draining — the worker-exit signal.
  expired.clear();
  EXPECT_TRUE(b.next_batch(expired).empty());
  EXPECT_TRUE(expired.empty());
}

/// One seeded schedule against a real Batcher: a producer submits random
/// plain rows and stream chunks (mixed num_steps, within a stream too;
/// random deadlines, some already past) while `workers` threads pull
/// batches, report a synthetic cost (so holds happen), "serve" for a random
/// while, and hand their streams back.  Every invariant the server relies
/// on is checked on the way out.
void run_batcher_schedule(std::uint64_t seed) {
  SCOPED_TRACE("schedule seed " + std::to_string(seed));
  constexpr std::int64_t kMaxBatch = 4;
  constexpr int kArrivals = 300;
  constexpr std::uint64_t kStreams = 5;
  const int workers = 2 + static_cast<int>(seed % 3);
  Batcher b({.max_batch = kMaxBatch, .batch_timeout_us = 500,
             .max_queue_depth = 32});
  Rng rng(seed);

  struct Row {
    std::uint64_t stream = 0;  // 0 = plain row
    std::uint64_t seq = 0;     // chunk index within its stream
    bool admitted = false;
    int outs = 0;              // times it came out (batch or expired)
  };
  std::vector<Row> rows(kArrivals + 1);  // by request id (1-based)
  std::mutex mu;
  std::unordered_set<std::uint64_t> aboard;       // streams in a batch
  std::map<std::uint64_t, std::uint64_t> served;  // stream -> last seq + 1
  std::vector<std::string> faults;
  const auto fault = [&](const std::string& what) {
    faults.push_back(what);
  };

  const auto worker = [&](Rng wrng) {
    for (;;) {
      std::vector<PendingRequest> expired;
      const std::uint64_t asked = obs::telemetry_now_ns();
      std::vector<PendingRequest> batch = b.next_batch(expired);
      const std::uint64_t got = obs::telemetry_now_ns();
      if (batch.empty() && expired.empty()) return;  // drained and dry
      {
        std::lock_guard<std::mutex> lock(mu);
        for (const PendingRequest& p : expired) {
          ++rows[p.request.request_id].outs;
          if (p.deadline_ns == 0 || p.deadline_ns > got)
            fault("live row " + std::to_string(p.request.request_id) +
                  " shed as expired");
        }
        if (static_cast<std::int64_t>(batch.size()) > kMaxBatch)
          fault("batch of " + std::to_string(batch.size()) + " rows");
        for (const PendingRequest& p : batch) {
          const std::uint64_t id = p.request.request_id;
          ++rows[id].outs;
          if (p.request.num_steps != batch.front().request.num_steps)
            fault("batch mixes window lengths");
          // Exact without a race: a row already stale when the worker
          // asked must have been shed by the purge or the close.
          if (p.deadline_ns != 0 && p.deadline_ns <= asked)
            fault("row " + std::to_string(id) + " served past its deadline");
          if (p.stream_id == 0) continue;
          if (!aboard.insert(p.stream_id).second)
            fault("stream " + std::to_string(p.stream_id) +
                  " aboard two batches");
          std::uint64_t& next = served[p.stream_id];
          if (rows[id].seq < next)
            fault("stream " + std::to_string(p.stream_id) + " chunk " +
                  std::to_string(rows[id].seq) + " served out of order");
          next = rows[id].seq + 1;
        }
      }
      if (batch.empty()) continue;
      const auto n = static_cast<std::int64_t>(batch.size());
      const auto t = static_cast<std::int64_t>(batch.front().request.num_steps);
      b.record_cost(n, t, static_cast<std::uint64_t>((200'000 + 50'000 * n) * t));
      std::this_thread::sleep_for(
          std::chrono::microseconds(wrng.uniform_int(300)));
      {
        std::lock_guard<std::mutex> lock(mu);
        for (const PendingRequest& p : batch)
          if (p.stream_id != 0) aboard.erase(p.stream_id);
      }
      for (const PendingRequest& p : batch) b.finish_stream(p.stream_id);
    }
  };
  std::vector<std::thread> pool;
  for (int w = 0; w < workers; ++w)
    pool.emplace_back(worker, rng.fork(static_cast<std::uint64_t>(w) + 100));

  std::uint64_t next_seq[kStreams + 1] = {};
  for (std::uint64_t id = 1; id <= kArrivals; ++id) {
    std::this_thread::sleep_for(
        std::chrono::microseconds(rng.uniform_int(150)));
    const std::uint32_t steps = 1u << rng.uniform_int(3);  // 1, 2 or 4
    const double roll = rng.uniform();
    std::uint64_t deadline = 0;
    if (roll < 0.15) {
      deadline = 1;  // long past
    } else if (roll < 0.6) {
      deadline = obs::telemetry_now_ns() +
                 static_cast<std::uint64_t>(rng.uniform(2e5, 3e6));
    }
    PendingRequest p = pending(steps, id, deadline);
    std::lock_guard<std::mutex> lock(mu);  // rows[] is read by workers
    if (rng.bernoulli(0.7)) {
      p.stream_id = 1 + rng.uniform_int(kStreams);
      rows[id].stream = p.stream_id;
      rows[id].seq = next_seq[p.stream_id];
    }
    const AdmitResult r = b.submit(std::move(p));
    if (r == AdmitResult::kAdmitted) {
      rows[id].admitted = true;
      if (rows[id].stream != 0) ++next_seq[rows[id].stream];
    } else if (r != AdmitResult::kQueueFull) {
      fault("submit refused before the drain");
    }
  }
  b.drain();
  for (std::thread& w : pool) w.join();

  for (std::uint64_t id = 1; id <= kArrivals; ++id)
    if (rows[id].outs != (rows[id].admitted ? 1 : 0))
      fault("request " + std::to_string(id) + " came out " +
            std::to_string(rows[id].outs) + " times");
  EXPECT_EQ(b.depth(), 0u);
  for (const std::string& f : faults) ADD_FAILURE() << f;
}

TEST(ServeBatcher, SeededSchedulesKeepFifoDeadlineAndExactlyOnce) {
  for (std::uint64_t seed : {1, 2, 3, 4}) run_batcher_schedule(seed);
}

// --- server integration -----------------------------------------------------

struct MlpServer {
  std::unique_ptr<snn::SpikingNetwork> net;
  Shape per_sample;
  infer::CompiledModel model;
  std::unique_ptr<Server> server;

  explicit MlpServer(ServerConfig cfg = {})
      : net(snn::make_snn_mlp({})),
        per_sample({snn::MlpConfig{}.in_features}),
        model(infer::CompiledModel::compile(*net, per_sample)) {
    cfg.port = 0;  // ephemeral
    server = std::make_unique<Server>(model, cfg);
    server->start();
  }
};

InferRequest random_request(std::uint64_t id, std::uint32_t num_steps,
                            std::int64_t elems, Rng& rng) {
  InferRequest r;
  r.request_id = id;
  r.num_steps = num_steps;
  r.elems_per_step = static_cast<std::uint32_t>(elems);
  r.data.resize(static_cast<std::size_t>(num_steps) *
                static_cast<std::size_t>(elems));
  for (float& v : r.data) v = rng.uniform() < 0.2 ? 1.0f : 0.0f;
  return r;
}

// Direct single-sample reference run for the parity checks.
std::vector<float> reference_counts(const infer::CompiledModel& model,
                                    const Shape& per_sample,
                                    const InferRequest& r) {
  infer::InferenceSession session(model, {.max_batch = 1});
  std::vector<std::int64_t> dims{1};
  for (std::int64_t d : per_sample.dims()) dims.push_back(d);
  const std::int64_t elems = per_sample.numel();
  std::vector<Tensor> window;
  for (std::uint32_t t = 0; t < r.num_steps; ++t) {
    Tensor x{Shape(dims)};
    std::memcpy(x.data(), r.data.data() + t * elems,
                static_cast<std::size_t>(elems) * sizeof(float));
    window.push_back(std::move(x));
  }
  const auto out = session.run(window);
  return {out.spike_counts.data(),
          out.spike_counts.data() + out.spike_counts.numel()};
}

TEST(ServeServer, SingleRequestMatchesDirectSessionBitwise) {
  MlpServer s;
  Rng rng(11);
  const std::int64_t elems = s.per_sample.numel();
  TcpClient client("127.0.0.1", s.server->port(), /*retry_ms=*/2000);
  const InferRequest req = random_request(7, 6, elems, rng);
  const TcpClient::Reply reply = client.roundtrip(req);
  ASSERT_TRUE(reply.ok) << reply.error.message;
  EXPECT_EQ(reply.response.request_id, 7u);
  EXPECT_GE(reply.response.batch, 1u);

  const std::vector<float> want = reference_counts(s.model, s.per_sample, req);
  ASSERT_EQ(reply.response.spike_counts.size(), want.size());
  EXPECT_EQ(std::memcmp(reply.response.spike_counts.data(), want.data(),
                        want.size() * sizeof(float)),
            0)
      << "served spike counts differ from a direct InferenceSession run";
}

TEST(ServeServer, ConcurrentClientsAllGetBitwiseParity) {
  MlpServer s({.num_workers = 2, .max_batch = 8, .batch_timeout_us = 1000});
  const std::int64_t elems = s.per_sample.numel();
  const int port = s.server->port();
  constexpr int kThreads = 4;
  constexpr int kPerThread = 12;
  std::vector<int> mismatches(kThreads, 0);
  std::vector<std::thread> clients;
  for (int c = 0; c < kThreads; ++c) {
    clients.emplace_back([&, c] {
      Rng rng(100 + static_cast<std::uint64_t>(c));
      TcpClient client("127.0.0.1", port, 2000);
      for (int i = 0; i < kPerThread; ++i) {
        const InferRequest req = random_request(
            static_cast<std::uint64_t>(c * 1000 + i), 4, elems, rng);
        const TcpClient::Reply reply = client.roundtrip(req);
        if (!reply.ok) {
          ++mismatches[static_cast<std::size_t>(c)];
          continue;
        }
        const std::vector<float> want =
            reference_counts(s.model, s.per_sample, req);
        if (std::memcmp(reply.response.spike_counts.data(), want.data(),
                        want.size() * sizeof(float)) != 0)
          ++mismatches[static_cast<std::size_t>(c)];
      }
    });
  }
  for (std::thread& t : clients) t.join();
  for (int c = 0; c < kThreads; ++c)
    EXPECT_EQ(mismatches[static_cast<std::size_t>(c)], 0) << "client " << c;
  // A worker counts a response after writing it, so the last reply can
  // reach its client first; the drain joins the workers.
  s.server->drain_and_stop();
  const Server::Stats stats = s.server->stats();
  EXPECT_EQ(stats.served, kThreads * kPerThread);
  EXPECT_EQ(stats.bad_requests, 0);
  EXPECT_GE(stats.max_batch_seen, 1);
}

TEST(ServeServer, RejectsMalformedRequests) {
  MlpServer s({.max_steps = 8});
  Rng rng(3);
  const std::int64_t elems = s.per_sample.numel();
  TcpClient client("127.0.0.1", s.server->port(), 2000);

  // Shape mismatch with the model input.
  InferRequest wrong_elems = random_request(1, 4, elems + 1, rng);
  TcpClient::Reply reply = client.roundtrip(wrong_elems);
  ASSERT_FALSE(reply.ok);
  ASSERT_FALSE(reply.disconnected);
  EXPECT_EQ(reply.error.code, ErrorCode::kBadRequest);

  // Window length above the configured cap.
  InferRequest too_long = random_request(2, 9, elems, rng);
  reply = client.roundtrip(too_long);
  ASSERT_FALSE(reply.ok);
  EXPECT_EQ(reply.error.code, ErrorCode::kBadRequest);

  // The connection survives bad requests: a good one still round-trips.
  reply = client.roundtrip(random_request(3, 4, elems, rng));
  EXPECT_TRUE(reply.ok);
  EXPECT_EQ(s.server->stats().bad_requests, 2);
}

// Raw-socket helpers for sending hostile bytes TcpClient never would.
// `rcvbuf` (if nonzero) shrinks SO_RCVBUF before connecting, so a peer
// that never reads wedges the daemon's sends after a few KiB.
int connect_raw(int port, int rcvbuf = 0) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  if (rcvbuf > 0)
    setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &rcvbuf, sizeof rcvbuf);
  sockaddr_in addr = {};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr), 0);
  return fd;
}

void send_raw(int fd, const std::uint8_t* p, std::size_t n) {
  while (n > 0) {
    const ssize_t w = ::send(fd, p, n, MSG_NOSIGNAL);
    ASSERT_GT(w, 0);
    p += w;
    n -= static_cast<std::size_t>(w);
  }
}

bool recv_exact(int fd, std::uint8_t* p, std::size_t n) {
  std::size_t got = 0;
  while (got < n) {
    const ssize_t r = ::recv(fd, p + got, n - got, 0);
    if (r <= 0) return false;
    got += static_cast<std::size_t>(r);
  }
  return true;
}

bool recv_frame_raw(int fd, FrameHeader& header,
                    std::vector<std::uint8_t>& payload) {
  std::uint8_t raw[kHeaderBytes];
  if (!recv_exact(fd, raw, kHeaderBytes)) return false;
  header = decode_header(raw);
  payload.resize(header.payload_bytes);
  return payload.empty() || recv_exact(fd, payload.data(), payload.size());
}

/// One full frame (header + payload) as raw wire bytes.
std::vector<std::uint8_t> frame_bytes(const InferRequest& req) {
  const std::vector<std::uint8_t> payload = detail::encode_request_payload(req);
  FrameHeader h;
  h.kind = FrameKind::kInferRequest;
  h.request_id = req.request_id;
  h.payload_bytes = static_cast<std::uint32_t>(payload.size());
  std::vector<std::uint8_t> out(kHeaderBytes);
  encode_header(h, out.data());
  out.insert(out.end(), payload.begin(), payload.end());
  return out;
}

TEST(ServeServer, HostileFramesNeverKillTheDaemon) {
  MlpServer s;
  const int port = s.server->port();

  // 1. Overflowing dims (num_steps = elems = 2^31 in a 16-byte payload of
  //    dims and a zero deadline): answered with bad-request; the connection
  //    stays usable.
  {
    const int fd = connect_raw(port);
    FrameHeader h;
    h.kind = FrameKind::kInferRequest;
    h.request_id = 77;
    h.payload_bytes = 16;
    std::uint8_t raw[kHeaderBytes];
    encode_header(h, raw);
    send_raw(fd, raw, kHeaderBytes);
    const std::uint32_t huge = 1u << 31;
    std::uint8_t dims[16] = {};
    std::memcpy(dims, &huge, 4);
    std::memcpy(dims + 4, &huge, 4);
    send_raw(fd, dims, 16);
    FrameHeader rh;
    std::vector<std::uint8_t> rp;
    ASSERT_TRUE(recv_frame_raw(fd, rh, rp));
    EXPECT_EQ(rh.kind, FrameKind::kError);
    EXPECT_EQ(decode_error(rh.request_id, rp).code, ErrorCode::kBadRequest);
    ::close(fd);
  }

  // 2. A header claiming a ~4 GiB payload: the daemon drops the connection
  //    (framing is unrecoverable) without allocating or aborting.
  {
    const int fd = connect_raw(port);
    FrameHeader h;
    h.kind = FrameKind::kInferRequest;
    h.request_id = 78;
    h.payload_bytes = 0xffffffffu;
    std::uint8_t raw[kHeaderBytes];
    encode_header(h, raw);
    send_raw(fd, raw, kHeaderBytes);
    std::uint8_t b;
    EXPECT_LE(::recv(fd, &b, 1, 0), 0);  // server closed, not crashed
    ::close(fd);
  }

  // 3. A well-formed request in the original, pre-versioning format (zero
  //    version byte): a framing error, so the daemon drops that connection
  //    without a reply — a pre-v3 peer could not parse a v3 error frame.
  Rng rng(5);
  const InferRequest req = random_request(9, 4, s.per_sample.numel(), rng);
  {
    const std::int64_t bad_before = s.server->stats().bad_requests;
    std::vector<std::uint8_t> frame = frame_bytes(req);
    frame[5] = 0;
    const int fd = connect_raw(port);
    send_raw(fd, frame.data(), frame.size());
    std::uint8_t b;
    EXPECT_LE(::recv(fd, &b, 1, 0), 0);  // dropped, not answered
    ::close(fd);
    EXPECT_EQ(s.server->stats().bad_requests, bad_before + 1);
  }

  // 4. The daemon survived all three: a v3 client still round-trips with
  //    bitwise parity.
  TcpClient client("127.0.0.1", port, 2000);
  const TcpClient::Reply reply = client.roundtrip(req);
  ASSERT_TRUE(reply.ok) << reply.error.message;
  const std::vector<float> want = reference_counts(s.model, s.per_sample, req);
  EXPECT_EQ(std::memcmp(reply.response.spike_counts.data(), want.data(),
                        want.size() * sizeof(float)),
            0);
  EXPECT_GE(s.server->stats().bad_requests, 3);
}

TEST(ServeServer, DrainAnswersInFlightRequestsAndStopsAdmissions) {
  MlpServer s({.num_workers = 2, .max_batch = 4, .batch_timeout_us = 500});
  const std::int64_t elems = s.per_sample.numel();
  const int port = s.server->port();
  constexpr int kThreads = 4;
  std::atomic<int> connected{0};
  std::atomic<int> completed{0};
  std::atomic<int> shutdown_seen{0};
  std::atomic<int> unexpected{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kThreads; ++c) {
    clients.emplace_back([&, c] {
      Rng rng(200 + static_cast<std::uint64_t>(c));
      TcpClient client("127.0.0.1", port, 2000);
      ++connected;
      for (int i = 0; i < 200; ++i) {
        const TcpClient::Reply reply = client.roundtrip(random_request(
            static_cast<std::uint64_t>(i), 4, elems, rng));
        if (reply.ok) {
          ++completed;
        } else if (reply.disconnected ||
                   reply.error.code == ErrorCode::kShuttingDown) {
          ++shutdown_seen;
          return;  // daemon drained away mid-burst: expected
        } else {
          ++unexpected;
          return;
        }
      }
    });
  }
  // Let every client connect and some requests land, then drain while the
  // clients keep pushing (a client still connecting would be refused).
  while (connected.load() < kThreads || completed.load() < 8)
    std::this_thread::yield();
  s.server->drain_and_stop();
  for (std::thread& t : clients) t.join();

  EXPECT_EQ(unexpected.load(), 0);
  EXPECT_GE(completed.load(), 8);
  const Server::Stats stats = s.server->stats();
  // Every request the daemon admitted was answered: the clients' completed
  // tally equals the server's served counter (no response vanished).
  EXPECT_EQ(stats.served, completed.load());
  EXPECT_EQ(stats.dropped_responses, 0);
  EXPECT_FALSE(s.server->running());
  // Idempotent: a second drain is a no-op.
  s.server->drain_and_stop();
}

TEST(ServeServer, StatReportsConsistentWindowedBreakdown) {
  const std::string span_log = ::testing::TempDir() + "/serve_stat_spans.jsonl";
  std::remove(span_log.c_str());
  ServerConfig cfg;
  cfg.max_batch = 4;
  cfg.batch_timeout_us = 500;
  cfg.span_sample_every = 1;  // record every request
  cfg.span_log = span_log;
  cfg.slo_target_ms = 10000.0;  // generous: every request should pass
  MlpServer s(cfg);
  Rng rng(21);
  const std::int64_t elems = s.per_sample.numel();
  TcpClient client("127.0.0.1", s.server->port(), 2000);

  constexpr int kRequests = 24;
  for (int i = 0; i < kRequests; ++i) {
    const TcpClient::Reply reply = client.roundtrip(
        random_request(static_cast<std::uint64_t>(i + 1), 4, elems, rng));
    ASSERT_TRUE(reply.ok) << reply.error.message;
    // The response metadata carries the per-request stage split.
    EXPECT_GT(reply.response.infer_ns, 0u);
  }
  // A worker accounts a request (counters, windows, SLO, then its span)
  // just after writing the response, so the last reply can reach the
  // client first; let that bookkeeping land before taking the snapshot.
  const auto give_up =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (s.server->spans().recorded() < kRequests &&
         std::chrono::steady_clock::now() < give_up)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  // STAT on the same connection, interleaved with inference traffic.
  const TcpClient::StatReply stat = client.stat(777);
  ASSERT_TRUE(stat.ok);
  ASSERT_FALSE(stat.disconnected);
  const JsonValue root = JsonValue::parse(stat.json, "STAT reply");

  const JsonValue* totals = root.find("totals");
  ASSERT_NE(totals, nullptr);
  EXPECT_EQ(totals->number_or("served", -1), kRequests);
  EXPECT_GT(root.number_or("qps", 0.0), 0.0);
  EXPECT_GT(root.number_or("uptime_s", 0.0), 0.0);

  // Every request landed inside the default 10 s window, and the five
  // stage histograms tile [recv, send]: their means sum to the end-to-end
  // mean (up to float noise from the ns -> us division).
  const JsonValue* req = root.find("request_us");
  const JsonValue* stages = root.find("stages");
  ASSERT_NE(req, nullptr);
  ASSERT_NE(stages, nullptr);
  EXPECT_EQ(req->number_or("count", -1), kRequests);
  double stage_mean_sum = 0.0;
  for (const char* key :
       {"decode_us", "queue_us", "assemble_us", "infer_us", "respond_us"}) {
    const JsonValue* stage = stages->find(key);
    ASSERT_NE(stage, nullptr) << key;
    EXPECT_EQ(stage->number_or("count", -1), kRequests) << key;
    stage_mean_sum += stage->number_or("mean", 0.0);
  }
  const double e2e_mean = req->number_or("mean", 0.0);
  EXPECT_GT(e2e_mean, 0.0);
  EXPECT_NEAR(stage_mean_sum, e2e_mean, 1e-6 * e2e_mean + 1e-3);
  EXPECT_GE(req->number_or("p99", 0.0), req->number_or("p50", 0.0));

  // SLO: a 10-second target means zero violations and zero burn.
  const JsonValue* slo = root.find("slo");
  ASSERT_NE(slo, nullptr);
  EXPECT_EQ(slo->number_or("violations", -1), 0);
  EXPECT_EQ(slo->number_or("ok", -1), kRequests);
  EXPECT_DOUBLE_EQ(slo->number_or("burn", -1), 0.0);

  // At 100% sampling every request left a span.
  const JsonValue* spans = root.find("spans");
  ASSERT_NE(spans, nullptr);
  EXPECT_EQ(spans->number_or("recorded", -1), kRequests);
  EXPECT_EQ(s.server->spans().recorded(), kRequests);
  EXPECT_EQ(s.server->stats().stat_requests, 1);

  // Drain writes the span log; it parses back with one line per request
  // and per-span stage tiling.
  s.server->drain_and_stop();
  const std::vector<obs::RequestSpan> parsed =
      obs::parse_span_jsonl(span_log);
  ASSERT_EQ(parsed.size(), static_cast<std::size_t>(kRequests));
  for (const obs::RequestSpan& p : parsed) {
    EXPECT_TRUE(p.ok);
    EXPECT_GE(p.batch, 1);
    const obs::SpanTimes t = obs::span_times(p);
    double stage_sum = 0.0;
    for (double us : t.stage_us) stage_sum += us;
    EXPECT_NEAR(stage_sum, t.e2e_us, 1e-6 * t.e2e_us + 1e-3);
  }
}

TEST(ServeServer, StatStagesTileEndToEndWhenRequestsFail) {
  // Every other request is poisoned, so half the admitted requests are
  // answered kInternalError.  Each stage must still count exactly the
  // answered population that request_us counts, or the stage means stop
  // summing to the end-to-end mean.
  ServerConfig cfg;
  cfg.num_workers = 1;
  cfg.max_batch = 1;
  cfg.poison_hook = [](const InferRequest& r) {
    if (r.request_id % 2 == 0) throw Error("poison pill");
  };
  MlpServer s(cfg);
  Rng rng(23);
  const std::int64_t elems = s.per_sample.numel();
  TcpClient client("127.0.0.1", s.server->port(), 2000);
  constexpr int kRequests = 20;
  for (int i = 1; i <= kRequests; ++i) {
    const TcpClient::Reply reply = client.roundtrip(
        random_request(static_cast<std::uint64_t>(i), 4, elems, rng));
    EXPECT_EQ(reply.ok, i % 2 == 1) << "request " << i;
  }
  // Read STAT once the workers are joined, so no record is in flight.
  s.server->drain_and_stop();
  const JsonValue root = JsonValue::parse(s.server->stat_json(), "STAT");
  const double served = root.find("totals")->number_or("served", -1);
  EXPECT_EQ(served, kRequests / 2);
  EXPECT_EQ(root.find("totals")->number_or("internal_errors", -1),
            kRequests / 2);
  const JsonValue* req = root.find("request_us");
  const JsonValue* stages = root.find("stages");
  ASSERT_NE(req, nullptr);
  ASSERT_NE(stages, nullptr);
  EXPECT_EQ(req->number_or("count", -1), served);
  double stage_mean_sum = 0.0;
  for (const char* key :
       {"decode_us", "queue_us", "assemble_us", "infer_us", "respond_us"}) {
    const JsonValue* stage = stages->find(key);
    ASSERT_NE(stage, nullptr) << key;
    EXPECT_EQ(stage->number_or("count", -1), served) << key;
    stage_mean_sum += stage->number_or("mean", 0.0);
  }
  const double e2e_mean = req->number_or("mean", 0.0);
  EXPECT_GT(e2e_mean, 0.0);
  EXPECT_NEAR(stage_mean_sum, e2e_mean, 1e-6 * e2e_mean + 1e-3);
}

TEST(ServeServer, RejectsNonPositiveStatWindow) {
  // A window of zero or fewer seconds is refused, not silently widened.
  for (const int window_s : {0, -1}) {
    ServerConfig cfg;
    cfg.stat_window_s = window_s;
    EXPECT_THROW(MlpServer s(cfg), Error) << window_s;
  }
}

TEST(ServeServer, StatAnswersBeforeAnyInferenceTraffic) {
  // STAT bypasses the batcher entirely, so introspection works on an idle
  // daemon (and, by the same path, on an overloaded one): empty windows
  // report zero quantiles rather than erroring.
  MlpServer s({.num_workers = 1, .max_batch = 2, .batch_timeout_us = 100});
  TcpClient client("127.0.0.1", s.server->port(), 2000);
  const TcpClient::StatReply stat = client.stat(1);
  ASSERT_TRUE(stat.ok);
  const JsonValue root = JsonValue::parse(stat.json, "STAT reply");
  EXPECT_EQ(root.find("totals")->number_or("served", -1), 0);
  EXPECT_DOUBLE_EQ(root.number_or("qps", -1), 0.0);
  const JsonValue* req = root.find("request_us");
  ASSERT_NE(req, nullptr);
  EXPECT_EQ(req->number_or("count", -1), 0);
  EXPECT_DOUBLE_EQ(req->number_or("p99", -1), 0.0);
}

// --- deadlines, poison isolation, connection hygiene ------------------------

TEST(ServeServer, ExpiredDeadlineIsShedNotServed) {
  ServerConfig cfg;
  cfg.num_workers = 1;
  cfg.max_batch = 1;
  cfg.batch_timeout_us = 0;
  // Wedge the single worker inside the first request's inference so the
  // second request's budget deterministically expires in the queue.
  cfg.poison_hook = [](const InferRequest&) {
    std::this_thread::sleep_for(std::chrono::milliseconds(250));
  };
  MlpServer s(cfg);
  const std::int64_t elems = s.per_sample.numel();
  const int port = s.server->port();

  std::thread wedge([&] {
    Rng rng(41);
    TcpClient c("127.0.0.1", port, 2000);
    const TcpClient::Reply r = c.roundtrip(random_request(1, 4, elems, rng));
    EXPECT_TRUE(r.ok) << r.error.message;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(80));

  Rng rng(42);
  TcpClient client("127.0.0.1", port, 2000);
  InferRequest late = random_request(2, 4, elems, rng);
  late.deadline_us = 5000;  // 5 ms << the ~170 ms of wedge left
  const TcpClient::Reply reply = client.roundtrip(late);
  wedge.join();
  ASSERT_FALSE(reply.ok);
  ASSERT_FALSE(reply.disconnected);
  EXPECT_EQ(reply.error.code, ErrorCode::kDeadlineExceeded);

  // The shed shows up in live STAT introspection (both counters were
  // bumped before the error frame we already received was written).
  const TcpClient::StatReply stat = client.stat(99);
  ASSERT_TRUE(stat.ok);
  const JsonValue root = JsonValue::parse(stat.json, "STAT reply");
  const JsonValue* deadline = root.find("deadline");
  ASSERT_NE(deadline, nullptr);
  EXPECT_EQ(deadline->number_or("requests", -1), 1);
  EXPECT_EQ(deadline->number_or("shed", -1), 1);

  // Counters are only final once the workers are joined: `served` is
  // bumped after the response write, so a drain must separate the last
  // reply from the stats assertions.
  s.server->drain_and_stop();
  const Server::Stats stats = s.server->stats();
  EXPECT_EQ(stats.deadline_requests, 1);
  EXPECT_EQ(stats.deadline_shed, 1);
  EXPECT_EQ(stats.served, 1);
  EXPECT_EQ(unanswered(stats), 0);
}

// Turns obs metrics on for one test's scope.  The registry is process-wide,
// so tests compare obs counts as deltas.
struct MetricsOn {
  MetricsOn() { obs::enable_telemetry(obs::kMetricsBit); }
  ~MetricsOn() { obs::disable_telemetry(obs::kMetricsBit); }
};

/// An obs counter's count, or a histogram's sample count; 0 if unregistered.
std::int64_t obs_count(const std::string& name) {
  for (const obs::MetricSnapshot& m : obs::snapshot_metrics())
    if (m.name == name)
      return m.kind == obs::MetricKind::kHistogram ? m.hist.count() : m.count;
  return 0;
}

TEST(ServeServer, PoisonRequestIsolatedWithoutKillingBatchmates) {
  // The single worker is parked inside a gate request's hook until the
  // three requests below are queued in order, so they leave the queue as
  // ONE batch [1, 666, 2] whatever the close rule decides: the poison pill
  // fails a real multi-row batch and isolation must save both batchmates.
  // With metrics on, every count of a run and of a response must agree
  // between stats(), STAT and obs.
  const MetricsOn metrics_on;
  const std::int64_t obs_batches = obs_count("serve.batches");
  const std::int64_t obs_batch_sizes = obs_count("serve.batch_size");
  const std::int64_t obs_requests = obs_count("serve.requests");
  constexpr std::uint64_t kGate = 99;
  std::mutex gate_mu;
  std::condition_variable gate_cv;
  bool gate_entered = false;
  bool gate_open = false;
  std::map<std::uint64_t, int> hook_calls;
  ServerConfig cfg;
  cfg.num_workers = 1;
  cfg.max_batch = 8;
  cfg.poison_hook = [&](const InferRequest& r) {
    std::unique_lock<std::mutex> lock(gate_mu);
    ++hook_calls[r.request_id];
    if (r.request_id == kGate) {
      gate_entered = true;
      gate_cv.notify_all();
      gate_cv.wait(lock, [&] { return gate_open; });
    }
    if (r.request_id == 666) throw Error("poison pill");
  };
  MlpServer s(cfg);
  const std::int64_t elems = s.per_sample.numel();
  const int port = s.server->port();

  std::thread gate([&] {
    Rng rng(299);
    TcpClient c("127.0.0.1", port, 2000);
    EXPECT_TRUE(c.roundtrip(random_request(kGate, 4, elems, rng)).ok);
  });
  {
    std::unique_lock<std::mutex> lock(gate_mu);
    gate_cv.wait(lock, [&] { return gate_entered; });
  }
  const auto wait_admitted = [&](std::int64_t n) {
    const auto give_up =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (s.server->stats().admitted < n &&
           std::chrono::steady_clock::now() < give_up)
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    ASSERT_EQ(s.server->stats().admitted, n);
  };

  constexpr std::uint64_t kIds[3] = {1, 666, 2};
  TcpClient::Reply replies[3];
  InferRequest requests[3];
  std::vector<std::thread> clients;
  for (int i = 0; i < 3; ++i) {
    clients.emplace_back([&, i] {
      Rng rng(300 + static_cast<std::uint64_t>(i));
      TcpClient c("127.0.0.1", port, 2000);
      requests[i] = random_request(kIds[i], 4, elems, rng);
      replies[i] = c.roundtrip(requests[i]);
    });
    wait_admitted(2 + i);  // the gate, then each request in queue order
  }
  {
    std::lock_guard<std::mutex> lock(gate_mu);
    gate_open = true;
  }
  gate_cv.notify_all();
  gate.join();
  for (std::thread& t : clients) t.join();
  {
    // Request 1 rode ahead of the pill in the failed batch (hook called)
    // and was re-run alone (called again); run apart, it would be once.
    std::lock_guard<std::mutex> lock(gate_mu);
    EXPECT_EQ(hook_calls[1], 2);
    EXPECT_EQ(hook_calls[666], 2);
    EXPECT_EQ(hook_calls[2], 1);
  }

  for (int i = 0; i < 3; ++i) {
    if (kIds[i] == 666) {
      ASSERT_FALSE(replies[i].ok);
      ASSERT_FALSE(replies[i].disconnected);
      EXPECT_EQ(replies[i].error.code, ErrorCode::kInternalError);
      continue;
    }
    // Batchmates survive the poison AND keep bitwise parity: the isolation
    // re-run is the same kernel on the same window.
    ASSERT_TRUE(replies[i].ok) << replies[i].error.message;
    const std::vector<float> want =
        reference_counts(s.model, s.per_sample, requests[i]);
    EXPECT_EQ(std::memcmp(replies[i].response.spike_counts.data(), want.data(),
                          want.size() * sizeof(float)),
              0)
        << "batchmate " << kIds[i];
  }
  // The worker survived the poison: a fresh request still round-trips.
  Rng rng(310);
  TcpClient after("127.0.0.1", port, 2000);
  EXPECT_TRUE(after.roundtrip(random_request(7, 4, elems, rng)).ok);

  // Counters bump after the response write, so they are only final once
  // the workers are joined — drain before asserting them.
  s.server->drain_and_stop();
  const Server::Stats stats = s.server->stats();
  EXPECT_EQ(stats.internal_errors, 1);
  EXPECT_EQ(stats.served, 4);  // gate, two surviving batchmates, follow-up
  EXPECT_EQ(unanswered(stats), 0);
  // The failed batch is no run; the two lone re-runs are.
  const JsonValue stat = JsonValue::parse(s.server->stat_json(), "STAT");
  EXPECT_EQ(stat.find("batch_size")->find("count")->as_number(),
            static_cast<double>(stats.batches));
  EXPECT_EQ(obs_count("serve.batches") - obs_batches, stats.batches);
  EXPECT_EQ(obs_count("serve.batch_size") - obs_batch_sizes, stats.batches);
  EXPECT_EQ(obs_count("serve.requests") - obs_requests, stats.served);
}

TEST(ServeServer, SlowPeerIsCutBySendTimeoutNotServedForever) {
  // With metrics on, the obs counter must see every timeout STAT sees.
  const auto obs_send_timeouts = [] {
    return obs_count("serve.conn.send_timeouts");
  };
  const MetricsOn metrics_on;
  const std::int64_t obs_before = obs_send_timeouts();
  ServerConfig cfg;
  cfg.num_workers = 1;
  cfg.max_batch = 4;
  cfg.batch_timeout_us = 0;
  cfg.send_timeout_ms = 150;
  cfg.sndbuf_bytes = 4096;  // wedge after a few KiB, not megabytes
  MlpServer s(cfg);
  const std::int64_t elems = s.per_sample.numel();
  const int port = s.server->port();

  // A peer that floods requests and never reads a byte of its responses.
  const int fd = connect_raw(port, /*rcvbuf=*/4096);
  Rng rng(51);
  InferRequest req = random_request(1, 2, elems, rng);
  const std::vector<std::uint8_t> frame = frame_bytes(req);
  bool full = false;
  for (int i = 0; i < 2000 && !full; ++i) {
    std::size_t off = 0;
    while (off < frame.size()) {
      const ssize_t w = ::send(fd, frame.data() + off, frame.size() - off,
                               MSG_DONTWAIT | MSG_NOSIGNAL);
      if (w <= 0) {
        full = true;  // kernel buffers full (or the daemon already cut us)
        break;
      }
      off += static_cast<std::size_t>(w);
    }
  }

  // The bounded write path gives up on the wedged peer within the budget.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (s.server->stats().send_timeouts < 1 &&
         std::chrono::steady_clock::now() < deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  EXPECT_GE(s.server->stats().send_timeouts, 1);
  ::close(fd);

  // Only that connection paid: a healthy client still gets parity service
  // (retrying through any overload backlog the flood left behind).
  Rng rng2(52);
  TcpClient healthy("127.0.0.1", port, 2000);
  const InferRequest good = random_request(9, 4, elems, rng2);
  TcpClient::Reply reply;
  for (int attempt = 0; attempt < 200; ++attempt) {
    reply = healthy.roundtrip(good);
    if (reply.ok || reply.error.code != ErrorCode::kOverloaded) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  ASSERT_TRUE(reply.ok) << reply.error.message;
  const std::vector<float> want =
      reference_counts(s.model, s.per_sample, good);
  EXPECT_EQ(std::memcmp(reply.response.spike_counts.data(), want.data(),
                        want.size() * sizeof(float)),
            0);
  EXPECT_EQ(obs_send_timeouts() - obs_before,
            s.server->stats().send_timeouts);
}

// --- v3 streaming integration -----------------------------------------------

// One request's spike window reshaped to the [1, ...] layout the streaming
// reference session expects.
std::vector<Tensor> request_window(const Shape& per_sample,
                                   const InferRequest& r) {
  std::vector<std::int64_t> dims{1};
  for (std::int64_t d : per_sample.dims()) dims.push_back(d);
  const std::int64_t elems = per_sample.numel();
  std::vector<Tensor> window;
  for (std::uint32_t t = 0; t < r.num_steps; ++t) {
    Tensor x{Shape(dims)};
    std::memcpy(x.data(), r.data.data() + t * elems,
                static_cast<std::size_t>(elems) * sizeof(float));
    window.push_back(std::move(x));
  }
  return window;
}

TEST(ServeStream, OpenStepCloseMatchesDirectStreamStateBitwise) {
  // The streaming parity contract end-to-end: every chunk's served counts
  // equal the same chunk fed to a local StreamState, and the close totals
  // equal its lifetime cumulative counts — the daemon's batching, queueing,
  // and state management must be invisible in the numbers.
  MlpServer s;
  const std::int64_t elems = s.per_sample.numel();
  TcpClient client("127.0.0.1", s.server->port(), 2000);
  ASSERT_TRUE(client.stream_open(42, 1).ok);

  infer::InferenceSession ref(s.model, {.max_batch = 1});
  infer::StreamState state = ref.make_stream();
  infer::StreamState* ptr = &state;
  Rng rng(0x5eed);
  for (std::uint32_t chunk = 0; chunk < 3; ++chunk) {
    SCOPED_TRACE("chunk=" + std::to_string(chunk));
    const InferRequest req =
        random_request(100 + chunk, 2 + chunk, elems, rng);
    const TcpClient::Reply reply = client.stream_step(42, req);
    ASSERT_TRUE(reply.ok) << reply.error.message;
    const auto want = ref.run(&ptr, 1, request_window(s.per_sample, req));
    ASSERT_EQ(reply.response.spike_counts.size(),
              static_cast<std::size_t>(want.spike_counts.numel()));
    EXPECT_EQ(std::memcmp(reply.response.spike_counts.data(),
                          want.spike_counts.data(),
                          reply.response.spike_counts.size() * sizeof(float)),
              0)
        << "served chunk counts differ from a direct StreamState step";
  }

  const TcpClient::StreamCloseResult closed = client.stream_close(42, 9);
  ASSERT_TRUE(closed.ok) << closed.error.message;
  EXPECT_EQ(closed.totals.stream_id, 42u);
  EXPECT_EQ(closed.totals.steps_done,
            static_cast<std::uint64_t>(state.steps_done()));
  ASSERT_EQ(closed.totals.cumulative_counts.size(),
            state.cumulative_counts().size());
  EXPECT_EQ(std::memcmp(closed.totals.cumulative_counts.data(),
                        state.cumulative_counts().data(),
                        state.cumulative_counts().size() * sizeof(float)),
            0)
      << "close totals differ from the local stream's lifetime counts";
}

TEST(ServeStream, LifecycleErrorsAreBadRequests) {
  MlpServer s;
  const std::int64_t elems = s.per_sample.numel();
  TcpClient client("127.0.0.1", s.server->port(), 2000);
  Rng rng(77);
  const InferRequest req = random_request(1, 2, elems, rng);

  // Stepping a stream that was never opened is a bad request, not a crash
  // and not a silent fresh stream.
  TcpClient::Reply r = client.stream_step(7, req);
  ASSERT_FALSE(r.ok);
  EXPECT_EQ(r.error.code, ErrorCode::kBadRequest);

  // Stream id 0 is the plain-request sentinel: the client-side builder
  // refuses to even encode it...
  EXPECT_THROW(client.stream_open(0), InvalidArgument);
  // ...and a peer that hand-crafts the frame anyway gets a bad-request.
  {
    const int fd = connect_raw(s.server->port());
    std::vector<std::uint8_t> zero_id(kHeaderBytes + 8, 0);
    FrameHeader h;
    h.kind = FrameKind::kStreamOpen;
    h.request_id = 3;
    h.payload_bytes = 8;
    encode_header(h, zero_id.data());
    send_raw(fd, zero_id.data(), zero_id.size());
    FrameHeader back;
    std::vector<std::uint8_t> payload;
    ASSERT_TRUE(recv_frame_raw(fd, back, payload));
    EXPECT_EQ(back.kind, FrameKind::kError);
    EXPECT_EQ(decode_error(3, payload).code, ErrorCode::kBadRequest);
    ::close(fd);
  }

  ASSERT_TRUE(client.stream_open(7).ok);
  TcpClient::StreamAck ack = client.stream_open(7);  // double open
  ASSERT_FALSE(ack.ok);
  EXPECT_EQ(ack.error.code, ErrorCode::kBadRequest);

  ASSERT_TRUE(client.stream_step(7, req).ok);
  ASSERT_TRUE(client.stream_close(7).ok);

  // Step-after-close: the id is gone, so the step bounces as bad-request.
  r = client.stream_step(7, req);
  ASSERT_FALSE(r.ok);
  EXPECT_EQ(r.error.code, ErrorCode::kBadRequest);
  const TcpClient::StreamCloseResult closed = client.stream_close(7);
  ASSERT_FALSE(closed.ok);
  EXPECT_EQ(closed.error.code, ErrorCode::kBadRequest);

  s.server->drain_and_stop();
  const Server::Stats stats = s.server->stats();
  EXPECT_EQ(stats.streams_opened, 1);
  EXPECT_EQ(stats.streams_closed, 1);
  EXPECT_EQ(stats.stream_steps, 1);
  EXPECT_EQ(unanswered(stats), 0);
}

TEST(ServeStream, OpenPastBoundWithoutSpillDirIsOverloaded) {
  ServerConfig cfg;
  cfg.max_live_streams = 2;  // no stream_checkpoint_dir: a hard bound
  MlpServer s(cfg);
  TcpClient client("127.0.0.1", s.server->port(), 2000);
  ASSERT_TRUE(client.stream_open(1).ok);
  ASSERT_TRUE(client.stream_open(2).ok);
  const TcpClient::StreamAck ack = client.stream_open(3);
  ASSERT_FALSE(ack.ok);
  EXPECT_EQ(ack.error.code, ErrorCode::kOverloaded);
  // Closing one frees the slot.
  ASSERT_TRUE(client.stream_close(2).ok);
  EXPECT_TRUE(client.stream_open(3).ok);
}

TEST(ServeStream, DrainWithOpenStreamsCheckpointsEachExactlyOnce) {
  const std::string dir = ::testing::TempDir() + "/serve_stream_drain";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  ServerConfig cfg;
  cfg.max_live_streams = 64;
  cfg.stream_checkpoint_dir = dir;
  MlpServer s(cfg);
  const std::int64_t elems = s.per_sample.numel();
  TcpClient client("127.0.0.1", s.server->port(), 2000);
  Rng rng(91);
  for (std::uint64_t id = 1; id <= 5; ++id) {
    ASSERT_TRUE(client.stream_open(id).ok);
    ASSERT_TRUE(client.stream_step(id, random_request(id, 3, elems, rng)).ok);
  }
  // Stream 5 closes cleanly before the drain; 1-4 are still open.
  ASSERT_TRUE(client.stream_close(5).ok);

  s.server->drain_and_stop();

  // Each still-open stream's state lands in exactly one STK2 spill file;
  // the closed stream leaves nothing behind.
  std::size_t files = 0;
  for (const auto& e : std::filesystem::directory_iterator(dir)) {
    EXPECT_TRUE(e.path().filename().string().rfind("stream-", 0) == 0)
        << e.path();
    ++files;
  }
  EXPECT_EQ(files, 4u);
  const Server::Stats stats = s.server->stats();
  EXPECT_EQ(stats.streams_opened, 5);
  EXPECT_EQ(stats.streams_closed, 1);
  EXPECT_EQ(stats.streams_checkpointed, 4);
  EXPECT_EQ(stats.streams_evicted, 0);
  EXPECT_EQ(stats.stream_steps, 5);
  // Drain is NOT a disconnect: the still-connected client's streams were
  // checkpointed for resumption, never reaped as orphans.
  EXPECT_EQ(stats.stream_auto_closed, 0);
}

TEST(ServeStream, DisconnectWithoutCloseReapsOrphanedStreams) {
  // A client that vanishes without STREAM_CLOSE must not leak its streams:
  // with no checkpoint dir they would pin max_live capacity forever, and
  // eventually every open on the daemon gets kOverloaded.  The reader
  // closes its connection's streams on the way out.
  ServerConfig cfg;
  cfg.max_live_streams = 2;  // hard bound: a leak is immediately visible
  MlpServer s(cfg);
  {
    TcpClient client("127.0.0.1", s.server->port(), 2000);
    ASSERT_TRUE(client.stream_open(1).ok);
    ASSERT_TRUE(client.stream_open(2).ok);
  }  // destructor drops the connection with both streams open

  // The reader reaps asynchronously after it sees EOF; poll briefly.
  Server::Stats stats;
  for (int i = 0; i < 500; ++i) {
    stats = s.server->stats();
    if (stats.stream_auto_closed >= 2) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_EQ(stats.streams_opened, 2);
  EXPECT_EQ(stats.streams_closed, 2);
  EXPECT_EQ(stats.stream_auto_closed, 2);

  // The capacity the orphans pinned is usable again.
  TcpClient again("127.0.0.1", s.server->port(), 2000);
  EXPECT_TRUE(again.stream_open(1).ok);
  EXPECT_TRUE(again.stream_open(2).ok);
}

TEST(ServeStream, UnhappyRowsLeaveTheirBatchmatesServed) {
  // One batch of four T=4 rows: a plain request, a step on a healthy
  // stream B, a step on a stream A whose spill file was corrupted while A
  // was evicted, and a step on a stream C closed after the step was
  // admitted.  A gets internal-error, C bad-request; the plain row and B
  // run together, and nothing is left wedged in flight.
  const std::string dir = ::testing::TempDir() + "/serve_unhappy_rows";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  constexpr std::uint64_t kGate = 99, kA = 1, kB = 2, kC = 3;
  std::mutex gate_mu;
  std::condition_variable gate_cv;
  bool gate_entered = false;
  bool gate_open = false;
  ServerConfig cfg;
  cfg.num_workers = 1;
  cfg.max_batch = 8;
  cfg.max_live_streams = 1;  // each open evicts the stream before it
  cfg.stream_checkpoint_dir = dir;
  cfg.poison_hook = [&](const InferRequest& r) {
    if (r.request_id != kGate) return;
    std::unique_lock<std::mutex> lock(gate_mu);
    gate_entered = true;
    gate_cv.notify_all();
    gate_cv.wait(lock, [&] { return gate_open; });
  };
  MlpServer s(cfg);
  const std::int64_t elems = s.per_sample.numel();
  const int port = s.server->port();
  const auto wait_for = [&](std::int64_t Server::Stats::*field,
                            std::int64_t n) {
    const auto give_up =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (s.server->stats().*field < n &&
           std::chrono::steady_clock::now() < give_up)
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    ASSERT_EQ(s.server->stats().*field, n);
  };

  infer::InferenceSession ref(s.model, {.max_batch = 1});
  infer::StreamState b_ref = ref.make_stream();
  infer::StreamState* b_ptr = &b_ref;
  Rng rng(0xbad);
  TcpClient owner("127.0.0.1", port, 2000);
  // A warm step on A and on B, each released (stream_steps counts after
  // the release) before the next open evicts it: A and B end on disk.
  ASSERT_TRUE(owner.stream_open(kA).ok);
  ASSERT_TRUE(owner.stream_step(kA, random_request(10, 4, elems, rng)).ok);
  wait_for(&Server::Stats::stream_steps, 1);
  ASSERT_TRUE(owner.stream_open(kB).ok);
  const InferRequest b_warm = random_request(11, 4, elems, rng);
  ASSERT_TRUE(owner.stream_step(kB, b_warm).ok);
  ref.run(&b_ptr, 1, request_window(s.per_sample, b_warm));
  wait_for(&Server::Stats::stream_steps, 2);
  ASSERT_TRUE(owner.stream_open(kC).ok);
  ASSERT_EQ(s.server->stats().streams_evicted, 2);
  {
    const std::string spill = dir + "/stream-0000000000000001.stk";
    ASSERT_TRUE(std::filesystem::exists(spill));
    std::ofstream f(spill, std::ios::binary | std::ios::trunc);
    f << "not an STK2 container";
  }

  std::thread gate([&] {
    Rng gate_rng(399);
    TcpClient c("127.0.0.1", port, 2000);
    EXPECT_TRUE(c.roundtrip(random_request(kGate, 4, elems, gate_rng)).ok);
  });
  {
    std::unique_lock<std::mutex> lock(gate_mu);
    gate_cv.wait(lock, [&] { return gate_entered; });
  }
  struct Row {
    std::uint64_t stream;
    InferRequest request;
    TcpClient::Reply reply;
  };
  Row rows[4] = {{0, random_request(20, 4, elems, rng), {}},
                 {kB, random_request(21, 4, elems, rng), {}},
                 {kA, random_request(22, 4, elems, rng), {}},
                 {kC, random_request(23, 4, elems, rng), {}}};
  std::vector<std::thread> clients;
  for (int i = 0; i < 4; ++i) {
    clients.emplace_back([&, i] {
      TcpClient c("127.0.0.1", port, 2000);
      Row& row = rows[i];
      row.reply = row.stream == 0 ? c.roundtrip(row.request)
                                  : c.stream_step(row.stream, row.request);
    });
    wait_for(&Server::Stats::admitted, 4 + i);  // 2 warm steps, the gate
  }
  // C's step sits queued behind the gate; close C under it.
  EXPECT_TRUE(owner.stream_close(kC).ok);
  {
    std::lock_guard<std::mutex> lock(gate_mu);
    gate_open = true;
  }
  gate_cv.notify_all();
  gate.join();
  for (std::thread& t : clients) t.join();

  const auto expect_bitwise = [](const TcpClient::Reply& reply,
                                 const float* want, const char* what) {
    ASSERT_TRUE(reply.ok) << what << ": " << reply.error.message;
    EXPECT_EQ(std::memcmp(reply.response.spike_counts.data(), want,
                          reply.response.spike_counts.size() * sizeof(float)),
              0)
        << what;
  };
  const std::vector<float> plain_want =
      reference_counts(s.model, s.per_sample, rows[0].request);
  expect_bitwise(rows[0].reply, plain_want.data(), "plain row");
  EXPECT_EQ(rows[0].reply.response.batch, 2u);
  const infer::InferenceResult b_want =
      ref.run(&b_ptr, 1, request_window(s.per_sample, rows[1].request));
  expect_bitwise(rows[1].reply, b_want.spike_counts.data(), "stream B");
  EXPECT_EQ(rows[1].reply.response.batch, 2u);
  ASSERT_FALSE(rows[2].reply.ok);
  ASSERT_FALSE(rows[2].reply.disconnected);
  EXPECT_EQ(rows[2].reply.error.code, ErrorCode::kInternalError);
  ASSERT_FALSE(rows[3].reply.ok);
  ASSERT_FALSE(rows[3].reply.disconnected);
  EXPECT_EQ(rows[3].reply.error.code, ErrorCode::kBadRequest);

  // Nothing is wedged in flight: B's next chunk and a new stream run.
  const InferRequest b_next = random_request(30, 4, elems, rng);
  const infer::InferenceResult b_next_want =
      ref.run(&b_ptr, 1, request_window(s.per_sample, b_next));
  expect_bitwise(owner.stream_step(kB, b_next), b_next_want.spike_counts.data(),
                 "stream B, next chunk");
  ASSERT_TRUE(owner.stream_open(4).ok);
  EXPECT_TRUE(owner.stream_step(4, random_request(31, 4, elems, rng)).ok);

  s.server->drain_and_stop();
  const Server::Stats stats = s.server->stats();
  EXPECT_EQ(stats.internal_errors, 1);
  EXPECT_EQ(stats.stream_orphan_steps, 1);
  EXPECT_EQ(unanswered(stats), 0);
}

// --- counter table (serve/counters.h) ---------------------------------------

static_assert(unanswered(Server::Stats{}) == 0);

/// A Stats holding a distinct nonzero value in every row.
Server::Stats distinct_stats() {
  Server::Stats s;
  std::int64_t v = 101;
  for (const CounterRow& r : kCounterRows) s.*r.field = v++;
  return s;
}

TEST(ServeCounters, UnansweredIsAdmittedMinusTheFiveAnswerTerms) {
  Server::Stats s = distinct_stats();
  const auto answered = [](const Server::Stats& t) {
    return t.served + t.dropped_responses + t.deadline_shed +
           t.internal_errors + t.stream_orphan_steps;
  };
  EXPECT_EQ(unanswered(s), s.admitted - answered(s));
  s.admitted = answered(s);
  EXPECT_EQ(unanswered(s), 0);
  // Tallies outside the identity never unbalance it.
  s.bad_requests += 7;
  s.rejected_overload += 7;
  s.stream_steps += 7;
  EXPECT_EQ(unanswered(s), 0);
  // A lost request and a doubly answered one are both caught.
  Server::Stats lost = s;
  --lost.served;
  EXPECT_EQ(unanswered(lost), 1);
  Server::Stats twice = s;
  ++twice.stream_orphan_steps;
  EXPECT_EQ(unanswered(twice), -1);
}

TEST(ServeCounters, EveryRowReachesStatAndLedgerWithItsValue) {
  MlpServer srv;
  const Server::Stats s = distinct_stats();
  const JsonValue root =
      JsonValue::parse(srv.server->stat_json(s), "STAT reply");
  const auto stat_at = [&root](const std::string& section,
                               const std::string& key) {
    const JsonValue* sec = root.find(section);
    const JsonValue* v = sec != nullptr ? sec->find(key) : nullptr;
    return v != nullptr ? v->as_number() : -1.0;
  };

  const std::string dir = ::testing::TempDir() + "/serve_counter_ledger";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  {
    obs::RunLedger ledger(dir + "/serve.jsonl");
    obs::LedgerManifest m;
    m.run_id = "serve";
    ledger.write_manifest(m);
    obs::LedgerFinal fin;
    fin.values = ledger_values(s);
    ledger.write_final(fin);
  }
  const obs::ParsedLedger parsed = obs::parse_ledger(dir + "/serve.jsonl");
  ASSERT_TRUE(parsed.has_final);
  const auto ledger_at = [&parsed](const std::string& key) {
    for (const auto& [k, v] : parsed.final_record.values)
      if (k == key) return v;
    return -1.0;
  };

  for (const CounterRow& r : kCounterRows) {
    SCOPED_TRACE(r.name);
    const double want = static_cast<double>(s.*r.field);
    EXPECT_NE(r.sections, 0u) << "row missing from STAT";
    if ((r.sections & kTotals) != 0) {
      EXPECT_EQ(stat_at("totals", r.name), want);
    }
    if ((r.sections & kDeadline) != 0) {
      EXPECT_EQ(stat_at("deadline", r.key), want);
    }
    if ((r.sections & kStreams) != 0) {
      EXPECT_EQ(stat_at("streams", r.key), want);
    }
    EXPECT_EQ(ledger_at(r.name), want);
  }

  // The published counter keys of STAT and the ledger final: each must
  // keep its value.  Keys may be added to either, never dropped.
  struct Path {
    const char* section;
    const char* key;
    std::int64_t Server::Stats::*field;
  };
#define TOTAL(f) {"totals", #f, &Server::Stats::f}
  const Path stat_paths[] = {
      TOTAL(connections),       TOTAL(admitted),
      TOTAL(served),            TOTAL(batches),
      TOTAL(rejected_overload), TOTAL(rejected_draining),
      TOTAL(bad_requests),      TOTAL(dropped_responses),
      TOTAL(deadline_requests), TOTAL(deadline_shed),
      TOTAL(internal_errors),   TOTAL(idle_reaped),
      TOTAL(send_timeouts),     TOTAL(max_batch_seen),
      {"deadline", "requests", &Server::Stats::deadline_requests},
      {"deadline", "shed", &Server::Stats::deadline_shed},
      {"streams", "peak_live", &Server::Stats::stream_peak_live},
      {"streams", "opened", &Server::Stats::streams_opened},
      {"streams", "closed", &Server::Stats::streams_closed},
      {"streams", "evicted", &Server::Stats::streams_evicted},
      {"streams", "restored", &Server::Stats::streams_restored},
      {"streams", "checkpointed", &Server::Stats::streams_checkpointed},
      {"streams", "steps", &Server::Stats::stream_steps},
      {"streams", "orphan_steps", &Server::Stats::stream_orphan_steps},
      {"streams", "auto_closed", &Server::Stats::stream_auto_closed},
  };
  const Path ledger_keys[] = {
      TOTAL(connections),          TOTAL(admitted),
      TOTAL(served),               TOTAL(batches),
      TOTAL(rejected_overload),    TOTAL(rejected_draining),
      TOTAL(bad_requests),         TOTAL(dropped_responses),
      TOTAL(deadline_requests),    TOTAL(deadline_shed),
      TOTAL(internal_errors),      TOTAL(idle_reaped),
      TOTAL(send_timeouts),        TOTAL(max_batch_seen),
      TOTAL(stat_requests),        TOTAL(streams_opened),
      TOTAL(streams_closed),       TOTAL(streams_evicted),
      TOTAL(streams_restored),     TOTAL(streams_checkpointed),
      TOTAL(stream_peak_live),     TOTAL(stream_steps),
      TOTAL(stream_orphan_steps),
  };
#undef TOTAL
  for (const Path& p : stat_paths) {
    SCOPED_TRACE(std::string(p.section) + "." + p.key);
    EXPECT_EQ(stat_at(p.section, p.key), static_cast<double>(s.*p.field));
  }
  for (const Path& p : ledger_keys) {
    SCOPED_TRACE(p.key);
    EXPECT_EQ(ledger_at(p.key), static_cast<double>(s.*p.field));
  }
}

// --- fault injection --------------------------------------------------------

TEST(ServeFault, SpecParsesValidatesAndRoundTrips) {
  const FaultSpec spec =
      FaultSpec::parse("seed=42,p_partial=0.3,p_disconnect=0.01,delay_ms=7");
  EXPECT_EQ(spec.seed, 42u);
  EXPECT_DOUBLE_EQ(spec.p_partial, 0.3);
  EXPECT_DOUBLE_EQ(spec.p_disconnect, 0.01);
  EXPECT_EQ(spec.delay_ms, 7);
  EXPECT_TRUE(spec.enabled());
  EXPECT_FALSE(FaultSpec{}.enabled());
  EXPECT_FALSE(FaultSpec::parse("").enabled());

  // describe() is canonical and round-trippable.
  const FaultSpec back = FaultSpec::parse(spec.describe());
  EXPECT_EQ(back.describe(), spec.describe());

  EXPECT_THROW(FaultSpec::parse("p_bogus=0.1"), InvalidArgument);
  EXPECT_THROW(FaultSpec::parse("p_partial=1.5"), InvalidArgument);
  EXPECT_THROW(FaultSpec::parse("p_partial=-0.1"), InvalidArgument);
  EXPECT_THROW(FaultSpec::parse("seed=banana"), InvalidArgument);
  EXPECT_THROW(FaultSpec::parse("p_partial"), InvalidArgument);
}

/// Replays a fixed frame script straight through FaultInjectingConnections
/// over socketpairs — single-threaded, with every inbound frame fully
/// buffered before the injector reads it — and returns the fired-fault
/// schedule.  Scripting matters: over real TCP the kernel's own short
/// writes change how many transport_send calls (and thus RNG draws) a
/// frame costs, so the schedule would not replay byte-for-byte.
std::string scripted_fault_schedule(const std::string& spec_text) {
  const FaultSpec spec = FaultSpec::parse(spec_text);
  FaultLog log;
  for (std::uint64_t conn = 0; conn < 3; ++conn) {
    int sv[2];
    if (::socketpair(AF_UNIX, SOCK_STREAM, 0, sv) != 0) {
      ADD_FAILURE() << "socketpair: " << std::strerror(errno);
      return "";
    }
    FaultInjectingConnection c(sv[0], "scripted", spec, conn, &log);
    for (int i = 0; i < 12; ++i) {
      Rng rng(1000 * (conn + 1) + static_cast<std::uint64_t>(i));
      const InferRequest req =
          random_request(static_cast<std::uint64_t>(i + 1), 2, 16, rng);
      const std::vector<std::uint8_t> frame = frame_bytes(req);
      std::size_t off = 0;
      while (off < frame.size()) {
        const ssize_t w = ::send(sv[1], frame.data() + off,
                                 frame.size() - off, MSG_NOSIGNAL);
        if (w <= 0) break;
        off += static_cast<std::size_t>(w);
      }
      FrameHeader h;
      std::vector<std::uint8_t> payload;
      bool alive = false;
      try {
        alive = c.read_frame(h, payload, /*wake_fd=*/-1);
      } catch (const Error&) {
        // Corrupted header: the daemon would drop the connection.
      }
      if (alive)
        alive = c.write_frame(FrameKind::kInferResponse, req.request_id,
                              payload);
      // Drain whatever reached the peer so later writes never block.
      std::uint8_t sink[4096];
      while (::recv(sv[1], sink, sizeof sink, MSG_DONTWAIT) > 0) {
      }
      if (!alive) break;  // disconnect or corruption killed this connection
    }
    ::close(sv[1]);
  }
  return log.dump();
}

TEST(ServeFault, SameSeedReproducesTheSameSchedule) {
  const std::string spec =
      "seed=11,p_delay=0.25,delay_ms=1,p_read_stall=0.2,p_write_stall=0.2,"
      "stall_ms=1,p_partial=0.5,p_corrupt=0.1,p_disconnect=0.1";
  const std::string a = scripted_fault_schedule(spec);
  const std::string b = scripted_fault_schedule(spec);
  EXPECT_FALSE(a.empty()) << "no faults fired: the schedule test is vacuous";
  EXPECT_EQ(a, b) << "same seed, same traffic, different fault schedule";
  // A different seed produces a different schedule (overwhelmingly).
  const std::string c = scripted_fault_schedule(
      "seed=12,p_delay=0.25,delay_ms=1,p_read_stall=0.2,p_write_stall=0.2,"
      "stall_ms=1,p_partial=0.5,p_corrupt=0.1,p_disconnect=0.1");
  EXPECT_NE(a, c);
}

TEST(ServeFault, ChaosNeverBreaksParityGivenRetries) {
  ServerConfig cfg;
  cfg.num_workers = 2;
  cfg.max_batch = 4;
  cfg.batch_timeout_us = 500;
  cfg.fault_spec =
      "seed=3,p_delay=0.1,delay_ms=1,p_partial=0.4,p_corrupt=0.05,"
      "p_disconnect=0.05";
  MlpServer s(cfg);
  const std::int64_t elems = s.per_sample.numel();
  const int port = s.server->port();

  Rng rng(61);
  std::unique_ptr<TcpClient> client;
  int completed = 0;
  for (int i = 0; i < 25; ++i) {
    const InferRequest req =
        random_request(static_cast<std::uint64_t>(i + 1), 4, elems, rng);
    for (int attempt = 0; attempt < 12; ++attempt) {
      if (client == nullptr || !client->connected())
        client = std::make_unique<TcpClient>("127.0.0.1", port, 2000);
      const TcpClient::Reply reply = client->roundtrip(req);
      if (reply.disconnected) {
        client.reset();  // mid-frame fault: reconnect and retry
        continue;
      }
      if (!reply.ok) continue;
      // THE chaos invariant: a response that arrives is bitwise correct,
      // whatever partial writes and delays it survived.
      const std::vector<float> want =
          reference_counts(s.model, s.per_sample, req);
      ASSERT_EQ(reply.response.spike_counts.size(), want.size());
      ASSERT_EQ(std::memcmp(reply.response.spike_counts.data(), want.data(),
                            want.size() * sizeof(float)),
                0)
          << "request " << i << " lost parity under faults";
      ++completed;
      break;
    }
  }
  EXPECT_EQ(completed, 25);
  EXPECT_GT(s.server->fault_log().size(), 0u);

  s.server->drain_and_stop();
  const Server::Stats stats = s.server->stats();
  EXPECT_EQ(unanswered(stats), 0);
}

// --- drain x deadlines (forked: the SIGTERM path end to end) ----------------

TEST(ServeServer, SigtermDrainShedsExpiredAndExitsZero) {
  // install_shutdown_request() arms process-global state, so the daemon
  // side runs in a fork (same pattern as the cooperative-shutdown tests in
  // test_signal_flush.cpp); the gtest parent plays the clients.
  int ready[2];
  ASSERT_EQ(pipe(ready), 0);
  const pid_t pid = fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    close(ready[0]);
    obs::install_shutdown_request();
    const auto net = snn::make_snn_mlp({});
    const Shape per_sample{snn::MlpConfig{}.in_features};
    const auto model = infer::CompiledModel::compile(*net, per_sample);
    ServerConfig cfg;
    cfg.port = 0;
    cfg.num_workers = 1;
    cfg.max_batch = 1;
    cfg.batch_timeout_us = 0;
    // Wedge the worker so tight-deadline requests are still queued (and
    // expired) when SIGTERM lands.
    cfg.poison_hook = [](const InferRequest&) {
      std::this_thread::sleep_for(std::chrono::milliseconds(400));
    };
    Server server(model, cfg);
    server.start();
    const std::uint32_t port = static_cast<std::uint32_t>(server.port());
    if (write(ready[1], &port, sizeof port) != sizeof port) _exit(90);
    while (!obs::shutdown_requested()) {
      struct pollfd pfd = {obs::shutdown_fd(), POLLIN, 0};
      poll(&pfd, 1, 1000);
    }
    server.drain_and_stop();
    const Server::Stats st = server.stats();
    if (server.running()) _exit(91);
    if (st.admitted < 5) _exit(92);
    if (st.deadline_shed < 4) _exit(93);
    // Exactly-once accounting: every admitted request left through served,
    // dropped, shed, or internal-error — nothing vanished, nothing doubled.
    if (unanswered(st) != 0) _exit(94);
    _exit(0);
  }
  close(ready[1]);
  std::uint32_t port = 0;
  ASSERT_EQ(read(ready[0], &port, sizeof port),
            static_cast<ssize_t>(sizeof port));
  close(ready[0]);
  const std::int64_t elems = Shape{snn::MlpConfig{}.in_features}.numel();

  // One no-deadline request wedges the single worker for ~400 ms...
  std::thread wedge([&] {
    Rng rng(71);
    TcpClient c("127.0.0.1", static_cast<int>(port), 2000);
    const TcpClient::Reply r = c.roundtrip(random_request(1, 4, elems, rng));
    EXPECT_TRUE(r.ok || r.disconnected);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(100));

  // ...while four 1 ms-deadline requests pile up behind it and expire.
  Rng rng(72);
  const int fd = connect_raw(static_cast<int>(port));
  for (std::uint64_t id = 2; id <= 5; ++id) {
    InferRequest req = random_request(id, 4, elems, rng);
    req.deadline_us = 1000;
    const std::vector<std::uint8_t> frame = frame_bytes(req);
    send_raw(fd, frame.data(), frame.size());
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  ASSERT_EQ(kill(pid, SIGTERM), 0);

  // The drain answers every queued request: four deadline-exceeded sheds
  // arrive before the daemon closes the connection.
  int sheds = 0;
  FrameHeader rh;
  std::vector<std::uint8_t> rp;
  while (recv_frame_raw(fd, rh, rp)) {
    if (rh.kind == FrameKind::kError &&
        decode_error(rh.request_id, rp).code == ErrorCode::kDeadlineExceeded)
      ++sheds;
  }
  EXPECT_EQ(sheds, 4);
  ::close(fd);
  wedge.join();

  int status = 0;
  ASSERT_EQ(waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 0)
      << "daemon child failed invariant check " << WEXITSTATUS(status);
}

}  // namespace
}  // namespace spiketune::serve
