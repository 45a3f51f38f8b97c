#include "serve/protocol.h"

#include <cstring>

#include "core/error.h"

namespace spiketune::serve {

namespace {

// Little-endian scalar append/read.  The build targets little-endian hosts
// (x86-64 / AArch64); the magic check rejects a byte-swapped peer.
template <typename T>
void put(std::vector<std::uint8_t>& out, T v) {
  const auto* p = reinterpret_cast<const std::uint8_t*>(&v);
  out.insert(out.end(), p, p + sizeof(T));
}

template <typename T>
T get(const std::vector<std::uint8_t>& in, std::size_t& off,
      const char* what) {
  ST_REQUIRE(off + sizeof(T) <= in.size(),
             std::string("truncated payload reading ") + what);
  T v;
  std::memcpy(&v, in.data() + off, sizeof(T));
  off += sizeof(T);
  return v;
}

}  // namespace

const char* error_code_name(ErrorCode code) {
  switch (code) {
    case ErrorCode::kOverloaded:
      return "overloaded";
    case ErrorCode::kBadRequest:
      return "bad-request";
    case ErrorCode::kShuttingDown:
      return "shutting-down";
    case ErrorCode::kDeadlineExceeded:
      return "deadline-exceeded";
    case ErrorCode::kInternalError:
      return "internal-error";
  }
  return "unknown";
}

std::vector<Tensor> window_tensors(const std::vector<const InferRequest*>& rows,
                                   const Shape& per_sample) {
  ST_REQUIRE(!rows.empty(), "window_tensors needs at least one request");
  const std::size_t steps = rows.front()->num_steps;
  const std::size_t elems = static_cast<std::size_t>(per_sample.numel());
  for (const InferRequest* r : rows)
    ST_REQUIRE(r->num_steps == steps && r->elems_per_step == elems &&
                   r->data.size() == steps * elems,
               "request window is not [num_steps, per-sample elements]");
  std::vector<std::int64_t> dims{static_cast<std::int64_t>(rows.size())};
  for (std::int64_t d : per_sample.dims()) dims.push_back(d);
  std::vector<Tensor> window;
  window.reserve(steps);
  for (std::size_t t = 0; t < steps; ++t) {
    Tensor x{Shape(dims)};
    for (std::size_t i = 0; i < rows.size(); ++i)
      std::memcpy(x.data() + i * elems, rows[i]->data.data() + t * elems,
                  elems * sizeof(float));
    window.push_back(std::move(x));
  }
  return window;
}

void encode_header(const FrameHeader& h, std::uint8_t out[kHeaderBytes]) {
  std::uint8_t* p = out;
  std::memcpy(p, &h.magic, 4);
  p += 4;
  const std::uint32_t kind_ver =
      static_cast<std::uint32_t>(h.kind) | (kProtocolVersion << 8);
  std::memcpy(p, &kind_ver, 4);
  p += 4;
  std::memcpy(p, &h.request_id, 8);
  p += 8;
  std::memcpy(p, &h.payload_bytes, 4);
}

FrameHeader decode_header(const std::uint8_t in[kHeaderBytes]) {
  FrameHeader h;
  const std::uint8_t* p = in;
  std::memcpy(&h.magic, p, 4);
  p += 4;
  ST_REQUIRE(h.magic == kMagic,
             "bad frame magic (not a spiketune-serve peer, or wrong "
             "endianness)");
  std::uint32_t kind_ver = 0;
  std::memcpy(&kind_ver, p, 4);
  p += 4;
  const std::uint32_t kind = kind_ver & 0xffu;
  const std::uint32_t version = kind_ver >> 8;
  ST_REQUIRE(version == kProtocolVersion,
             "frame version " + std::to_string(version) +
                 " is not supported (this daemon speaks only version " +
                 std::to_string(kProtocolVersion) + ")");
  ST_REQUIRE(kind >= 1 && kind <= 8, "unknown frame kind " +
                                         std::to_string(kind));
  h.kind = static_cast<FrameKind>(kind);
  std::memcpy(&h.request_id, p, 8);
  p += 8;
  std::memcpy(&h.payload_bytes, p, 4);
  ST_REQUIRE(h.payload_bytes <= kMaxPayloadBytes,
             "frame payload of " + std::to_string(h.payload_bytes) +
                 " bytes exceeds the " + std::to_string(kMaxPayloadBytes) +
                 "-byte protocol cap");
  // A stat request has no payload to decode; bytes there would be ignored,
  // so a frame that carries some is refused rather than half-read.
  ST_REQUIRE(h.kind != FrameKind::kStatRequest || h.payload_bytes == 0,
             "a stat request carries no payload");
  return h;
}

namespace {

// The infer-request layout, appended to `out`: a plain request's whole
// payload, and a stream step's payload after its stream id.
void put_request(std::vector<std::uint8_t>& out, const InferRequest& r) {
  ST_REQUIRE(r.data.size() == static_cast<std::size_t>(r.num_steps) *
                                  r.elems_per_step,
             "request data does not match num_steps * elems_per_step");
  put(out, r.num_steps);
  put(out, r.elems_per_step);
  put(out, r.deadline_us);
  const auto* p = reinterpret_cast<const std::uint8_t*>(r.data.data());
  out.insert(out.end(), p, p + r.data.size() * sizeof(float));
}

// Reads the infer-request layout from payload[off, end).
InferRequest get_request(std::uint64_t request_id,
                         const std::vector<std::uint8_t>& payload,
                         std::size_t off) {
  InferRequest r;
  r.request_id = request_id;
  r.num_steps = get<std::uint32_t>(payload, off, "num_steps");
  r.elems_per_step = get<std::uint32_t>(payload, off, "elems_per_step");
  r.deadline_us = get<std::uint64_t>(payload, off, "deadline_us");
  const std::size_t n =
      static_cast<std::size_t>(r.num_steps) * r.elems_per_step;
  // Checked by division: n * sizeof(float) can wrap modulo 2^64 for hostile
  // dims (e.g. num_steps = elems_per_step = 2^31), which would let a tiny
  // payload pass and turn resize(n) into an allocation bomb.
  const std::size_t body = payload.size() - off;
  ST_REQUIRE(body % sizeof(float) == 0 && body / sizeof(float) == n,
             "request payload size does not match num_steps * elems");
  r.data.resize(n);
  std::memcpy(r.data.data(), payload.data() + off, n * sizeof(float));
  return r;
}

}  // namespace

namespace detail {

std::vector<std::uint8_t> encode_request_payload(const InferRequest& r) {
  std::vector<std::uint8_t> out;
  out.reserve(16 + r.data.size() * sizeof(float));
  put_request(out, r);
  return out;
}

std::vector<std::uint8_t> encode_response_payload(const InferResponse& r) {
  ST_REQUIRE(r.spike_counts.size() == r.out_features,
             "response spike_counts does not match out_features");
  std::vector<std::uint8_t> out;
  out.reserve(32 + r.spike_counts.size() * sizeof(float));
  put(out, r.out_features);
  put(out, r.batch);
  put(out, r.queue_ns);
  put(out, r.assemble_ns);
  put(out, r.infer_ns);
  const auto* p = reinterpret_cast<const std::uint8_t*>(r.spike_counts.data());
  out.insert(out.end(), p, p + r.spike_counts.size() * sizeof(float));
  return out;
}

std::vector<std::uint8_t> encode_error_payload(const ErrorResponse& r) {
  std::vector<std::uint8_t> out;
  out.reserve(8 + r.message.size());
  put(out, static_cast<std::uint32_t>(r.code));
  put(out, static_cast<std::uint32_t>(r.message.size()));
  out.insert(out.end(), r.message.begin(), r.message.end());
  return out;
}

std::vector<std::uint8_t> encode_stat_payload(const std::string& json) {
  return std::vector<std::uint8_t>(json.begin(), json.end());
}

std::vector<std::uint8_t> encode_stream_control_payload(
    const StreamControl& c) {
  ST_REQUIRE(c.stream_id != 0, "stream_id 0 is reserved");
  std::vector<std::uint8_t> out;
  out.reserve(8);
  put(out, c.stream_id);
  return out;
}

std::vector<std::uint8_t> encode_stream_step_payload(
    const StreamStepRequest& r) {
  ST_REQUIRE(r.stream_id != 0, "stream_id 0 is reserved");
  // The chunk body is exactly the infer-request layout, so the batcher and
  // workers treat a step like any other request after the stream id is
  // peeled off.
  std::vector<std::uint8_t> out;
  out.reserve(24 + r.request.data.size() * sizeof(float));
  put(out, r.stream_id);
  put_request(out, r.request);
  return out;
}

std::vector<std::uint8_t> encode_stream_close_reply_payload(
    const StreamCloseReply& r) {
  std::vector<std::uint8_t> out;
  out.reserve(20 + r.cumulative_counts.size() * sizeof(float));
  put(out, r.stream_id);
  put(out, r.steps_done);
  put(out, static_cast<std::uint32_t>(r.cumulative_counts.size()));
  const auto* p =
      reinterpret_cast<const std::uint8_t*>(r.cumulative_counts.data());
  out.insert(out.end(), p, p + r.cumulative_counts.size() * sizeof(float));
  return out;
}

}  // namespace detail

RequestBuilder::RequestBuilder(std::uint32_t version) {
  ST_REQUIRE(version == kProtocolVersion,
             "unsupported protocol version " + std::to_string(version));
}

std::vector<std::uint8_t> RequestBuilder::frame(
    FrameKind kind, std::uint64_t request_id,
    std::vector<std::uint8_t> payload) const {
  FrameHeader h;
  h.kind = kind;
  h.request_id = request_id;
  h.payload_bytes = static_cast<std::uint32_t>(payload.size());
  std::vector<std::uint8_t> out(kHeaderBytes + payload.size());
  encode_header(h, out.data());
  if (!payload.empty())
    std::memcpy(out.data() + kHeaderBytes, payload.data(), payload.size());
  return out;
}

std::vector<std::uint8_t> RequestBuilder::infer_request(
    const InferRequest& r) const {
  return frame(FrameKind::kInferRequest, r.request_id,
               detail::encode_request_payload(r));
}

std::vector<std::uint8_t> RequestBuilder::stat_request(
    std::uint64_t request_id) const {
  return frame(FrameKind::kStatRequest, request_id, {});
}

std::vector<std::uint8_t> RequestBuilder::stream_open(
    const StreamControl& c) const {
  return frame(FrameKind::kStreamOpen, c.request_id,
               detail::encode_stream_control_payload(c));
}

std::vector<std::uint8_t> RequestBuilder::stream_step(
    const StreamStepRequest& r) const {
  return frame(FrameKind::kStreamStep, r.request.request_id,
               detail::encode_stream_step_payload(r));
}

std::vector<std::uint8_t> RequestBuilder::stream_close(
    const StreamControl& c) const {
  return frame(FrameKind::kStreamClose, c.request_id,
               detail::encode_stream_control_payload(c));
}

InferRequest decode_request(std::uint64_t request_id,
                            const std::vector<std::uint8_t>& payload) {
  return get_request(request_id, payload, 0);
}

InferResponse decode_response(std::uint64_t request_id,
                              const std::vector<std::uint8_t>& payload) {
  InferResponse r;
  r.request_id = request_id;
  std::size_t off = 0;
  r.out_features = get<std::uint32_t>(payload, off, "out_features");
  r.batch = get<std::uint32_t>(payload, off, "batch");
  r.queue_ns = get<std::uint64_t>(payload, off, "queue_ns");
  r.assemble_ns = get<std::uint64_t>(payload, off, "assemble_ns");
  r.infer_ns = get<std::uint64_t>(payload, off, "infer_ns");
  ST_REQUIRE(payload.size() == off + r.out_features * sizeof(float),
             "response payload size does not match out_features");
  r.spike_counts.resize(r.out_features);
  std::memcpy(r.spike_counts.data(), payload.data() + off,
              r.out_features * sizeof(float));
  return r;
}

ErrorResponse decode_error(std::uint64_t request_id,
                           const std::vector<std::uint8_t>& payload) {
  ErrorResponse r;
  r.request_id = request_id;
  std::size_t off = 0;
  const auto code = get<std::uint32_t>(payload, off, "error code");
  ST_REQUIRE(code >= 1 && code <= 5, "unknown error code");
  r.code = static_cast<ErrorCode>(code);
  const auto len = get<std::uint32_t>(payload, off, "message length");
  ST_REQUIRE(payload.size() == off + len, "error message truncated");
  r.message.assign(payload.begin() + static_cast<std::ptrdiff_t>(off),
                   payload.end());
  return r;
}

StreamControl decode_stream_control(std::uint64_t request_id,
                                    const std::vector<std::uint8_t>& payload) {
  StreamControl c;
  c.request_id = request_id;
  std::size_t off = 0;
  c.stream_id = get<std::uint64_t>(payload, off, "stream_id");
  ST_REQUIRE(payload.size() == off, "stream control payload has extra bytes");
  ST_REQUIRE(c.stream_id != 0, "stream_id 0 is reserved");
  return c;
}

StreamStepRequest decode_stream_step(std::uint64_t request_id,
                                     const std::vector<std::uint8_t>& payload) {
  StreamStepRequest r;
  std::size_t off = 0;
  r.stream_id = get<std::uint64_t>(payload, off, "stream_id");
  ST_REQUIRE(r.stream_id != 0, "stream_id 0 is reserved");
  r.request = get_request(request_id, payload, off);
  return r;
}

StreamCloseReply decode_stream_close_reply(
    std::uint64_t request_id, const std::vector<std::uint8_t>& payload) {
  StreamCloseReply r;
  r.request_id = request_id;
  std::size_t off = 0;
  r.stream_id = get<std::uint64_t>(payload, off, "stream_id");
  r.steps_done = get<std::uint64_t>(payload, off, "steps_done");
  const auto n = get<std::uint32_t>(payload, off, "out_features");
  ST_REQUIRE(payload.size() == off + n * sizeof(float),
             "close reply payload size does not match out_features");
  r.cumulative_counts.resize(n);
  std::memcpy(r.cumulative_counts.data(), payload.data() + off,
              n * sizeof(float));
  return r;
}

std::string decode_stat(const std::vector<std::uint8_t>& payload) {
  return std::string(payload.begin(), payload.end());
}

}  // namespace spiketune::serve
