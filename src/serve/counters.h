// Every serving counter, declared once.
//
// Each row of SPIKETUNE_SERVE_COUNTERS is one monotonic Server counter,
// and yields with no other edit: the Server::Stats field, its atomic slot
// and Counter enumerator for Server::bump(), its STAT key(s), its
// ledger-final key (ledger_values()), the obs counter bump() mirrors into,
// and its term in the accounting identity (unanswered()).  Gauges,
// histograms and windowed rates are not counters (serve/metric_ids.h).
//
// admitted counts requests that entered the queue; served, responses
// written; batches, successful session runs; dropped_responses,
// answers whose peer was gone; deadline_requests, admissions with a
// budget; deadline_shed, ones that expired queued; internal_errors, poison
// requests and failed stream restores; stream_orphan_steps, steps whose
// stream closed while queued; stream_auto_closed, a vanished peer's
// streams reaped at reader exit.
//
// X(field, kind, sections, key, obs, stream):
//   kind      kSum (bump adds), kMax (bump keeps the running max), or
//             kAnswer: a sum counting one way an admitted request is
//             answered — a term of the accounting identity
//   sections  STAT objects holding the value; "totals" keys by `field`,
//             "deadline" and "streams" by `key`
//   obs       obs counter counting exactly the same events, or nullptr
//             (always for kMax)
//   stream    non-null: infer::StreamManager owns the tally; the Server
//             reads it from StreamCounters and never bumps it
#pragma once

#include <cstddef>
#include <cstdint>
#include <iterator>
#include <string>
#include <utility>
#include <vector>

#include "infer/stream.h"

namespace spiketune::serve {

enum CounterKind { kSum, kMax, kAnswer };
enum StatSection : unsigned { kTotals = 1u, kDeadline = 2u, kStreams = 4u };

// clang-format off
#define SPIKETUNE_SERVE_COUNTERS(X)                                          \
  X(connections, kSum, kTotals, nullptr, nullptr, nullptr)                   \
  X(admitted, kSum, kTotals, nullptr, nullptr, nullptr)                      \
  X(served, kAnswer, kTotals, nullptr, "serve.requests", nullptr)            \
  X(batches, kSum, kTotals, nullptr, "serve.batches", nullptr)               \
  X(rejected_overload, kSum, kTotals, nullptr, "serve.rejected_overload",    \
    nullptr)                                                                 \
  X(rejected_draining, kSum, kTotals, nullptr, nullptr, nullptr)             \
  X(bad_requests, kSum, kTotals, nullptr, nullptr, nullptr)                  \
  X(dropped_responses, kAnswer, kTotals, nullptr, nullptr, nullptr)          \
  X(deadline_requests, kSum, kTotals | kDeadline, "requests",                \
    "serve.deadline.requests", nullptr)                                      \
  X(deadline_shed, kAnswer, kTotals | kDeadline, "shed",                     \
    "serve.deadline.shed", nullptr)                                          \
  X(internal_errors, kAnswer, kTotals, nullptr, "serve.internal_errors",     \
    nullptr)                                                                 \
  X(idle_reaped, kSum, kTotals, nullptr, "serve.conn.idle_reaped", nullptr)  \
  X(send_timeouts, kSum, kTotals, nullptr, "serve.conn.send_timeouts",       \
    nullptr)                                                                 \
  X(max_batch_seen, kMax, kTotals, nullptr, nullptr, nullptr)                \
  X(stat_requests, kSum, kTotals, nullptr, "serve.stat_requests", nullptr)   \
  X(streams_opened, kSum, kStreams, "opened", nullptr,                       \
    &infer::StreamCounters::opened)                                          \
  X(streams_closed, kSum, kStreams, "closed", nullptr,                       \
    &infer::StreamCounters::closed)                                          \
  X(streams_evicted, kSum, kStreams, "evicted", nullptr,                     \
    &infer::StreamCounters::evicted)                                         \
  X(streams_restored, kSum, kStreams, "restored", nullptr,                   \
    &infer::StreamCounters::restored)                                        \
  X(streams_checkpointed, kSum, kStreams, "checkpointed", nullptr,           \
    &infer::StreamCounters::checkpointed)                                    \
  X(stream_peak_live, kMax, kStreams, "peak_live", nullptr,                  \
    &infer::StreamCounters::peak_live)                                       \
  X(stream_steps, kSum, kStreams, "steps", "serve.stream.steps", nullptr)    \
  X(stream_orphan_steps, kAnswer, kStreams, "orphan_steps",                  \
    "serve.stream.orphans", nullptr)                                         \
  X(stream_auto_closed, kSum, kStreams, "auto_closed", nullptr, nullptr)
// clang-format on

/// Monotonic counters for the final report / ledger (Server::Stats).
struct ServerStats {
#define SPIKETUNE_X(field, ...) std::int64_t field = 0;
  SPIKETUNE_SERVE_COUNTERS(SPIKETUNE_X)
#undef SPIKETUNE_X
};

/// Names a row: the index into kCounterRows and the Server's slots.
enum class Counter : std::size_t {
#define SPIKETUNE_X(field, ...) field,
  SPIKETUNE_SERVE_COUNTERS(SPIKETUNE_X)
#undef SPIKETUNE_X
};

struct CounterRow {
  const char* name;
  std::int64_t ServerStats::*field;
  CounterKind kind;
  unsigned sections;
  const char* key;
  const char* obs;
  std::int64_t infer::StreamCounters::*stream;
};

inline constexpr CounterRow kCounterRows[] = {
#define SPIKETUNE_X(field, kind, sections, key, obs, stream) \
  {#field, &ServerStats::field, kind, sections, key, obs, stream},
    SPIKETUNE_SERVE_COUNTERS(SPIKETUNE_X)
#undef SPIKETUNE_X
};
inline constexpr std::size_t kNumCounters = std::size(kCounterRows);

/// The accounting identity: admitted requests not (yet) answered by a
/// kAnswer row — served, dropped_responses, deadline_shed, internal_errors
/// or stream_orphan_steps.  In flight while serving; zero after a drain.
constexpr std::int64_t unanswered(const ServerStats& s) {
  std::int64_t left = s.admitted;
  for (const CounterRow& r : kCounterRows)
    if (r.kind == kAnswer) left -= s.*r.field;
  return left;
}

/// Every row as a ledger-final (key, value) pair, in table order.
inline std::vector<std::pair<std::string, double>> ledger_values(
    const ServerStats& s) {
  std::vector<std::pair<std::string, double>> out;
  for (const CounterRow& r : kCounterRows)
    out.emplace_back(r.name, static_cast<double>(s.*r.field));
  return out;
}

}  // namespace spiketune::serve
