// Sliding-window aggregate tests (obs/window.h): epoch-rollover exactness
// against a serial reference driven by a synthetic clock, stalled-writer
// drop accounting, rate math over completed epochs, and a concurrent
// writers-vs-reader hammer.  Plus the request-span ring (obs/spans.h):
// sampling gate, ring retention, and the JSONL write/parse round-trip with
// its derived stage durations.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <fstream>
#include <map>
#include <thread>
#include <vector>

#include "core/error.h"
#include "obs/spans.h"
#include "obs/window.h"

namespace spiketune::obs {
namespace {

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

// --- WindowedHistogram ------------------------------------------------------

TEST(WindowedHistogram, EmptyWindowReportsZeros) {
  WindowedHistogram h({.epoch_ns = 1000, .epochs = 4});
  const LogHistogram merged = h.merged_at(123456);
  EXPECT_EQ(merged.count(), 0);
  EXPECT_EQ(merged.quantile(0.5), 0.0);
  EXPECT_EQ(merged.quantile(0.99), 0.0);
  EXPECT_EQ(merged.mean_or(-1.0), -1.0);
  EXPECT_EQ(h.dropped_late(), 0);
}

TEST(WindowedHistogram, RolloverMatchesSerialReferenceExactly) {
  constexpr std::uint64_t kEpochNs = 1000;
  constexpr int kEpochs = 4;
  WindowedHistogram h({.epoch_ns = kEpochNs, .epochs = kEpochs});

  // Serial reference: one plain LogHistogram per epoch, merged by hand over
  // the same [cur - epochs + 1, cur] range the windowed structure uses.
  std::map<std::uint64_t, LogHistogram> by_epoch;
  auto reference_at = [&](std::uint64_t now_ns) {
    const std::uint64_t cur = now_ns / kEpochNs;
    const std::uint64_t lo = cur + 1 >= kEpochs ? cur + 1 - kEpochs : 0;
    LogHistogram merged;
    for (const auto& [epoch, hist] : by_epoch)
      if (epoch >= lo && epoch <= cur) merged.merge(hist);
    return merged;
  };

  // A deterministic value stream spread over 12 epochs — three full window
  // lengths, so every slot gets recycled at least once.
  std::uint64_t now = 0;
  for (int i = 0; i < 240; ++i) {
    now += 47;  // ~21 samples per epoch, never landing on an epoch edge
    const double v = 0.5 + static_cast<double>((i * 37) % 1000);
    h.record_at(v, now);
    by_epoch[now / kEpochNs].record(v);

    if (i % 17 == 0) {
      const LogHistogram got = h.merged_at(now);
      const LogHistogram want = reference_at(now);
      ASSERT_EQ(got.count(), want.count()) << "at now=" << now;
      ASSERT_DOUBLE_EQ(got.sum(), want.sum()) << "at now=" << now;
      ASSERT_EQ(got.min_seen(), want.min_seen()) << "at now=" << now;
      ASSERT_EQ(got.max_seen(), want.max_seen()) << "at now=" << now;
      ASSERT_EQ(got.buckets(), want.buckets()) << "at now=" << now;
    }
  }
  // Nothing was dropped: the synthetic clock only moves forward.
  EXPECT_EQ(h.dropped_late(), 0);

  // Far in the future the window is empty again.
  EXPECT_EQ(h.merged_at(now + 100 * kEpochNs * kEpochs).count(), 0);
}

TEST(WindowedHistogram, StalledWriterDropsInsteadOfCorrupting) {
  // epochs=2 -> 4 slots; epoch 0 and epoch 4 share a slot.
  WindowedHistogram h({.epoch_ns = 1000, .epochs = 2});
  h.record_at(1.0, 500);            // epoch 0
  h.record_at(2.0, 4 * 1000 + 1);   // epoch 4 recycles epoch 0's slot
  EXPECT_EQ(h.dropped_late(), 0);

  h.record_at(3.0, 700);  // a writer stalled since epoch 0: slot is gone
  EXPECT_EQ(h.dropped_late(), 1);
  // The late sample is absent everywhere; the fresh epoch is intact.
  const LogHistogram merged = h.merged_at(4 * 1000 + 2);
  EXPECT_EQ(merged.count(), 1);
  EXPECT_EQ(merged.max_seen(), 2.0);
}

TEST(WindowedHistogram, ConcurrentWritersLoseNothing) {
  // A shared synthetic clock, advanced once per record, drives every
  // writer: the records roll over tens of epochs concurrently, yet the
  // total advance (kThreads * kPerThread * kTickNs = 40 ms) stays inside
  // the 60 ms window however slowly the writers run (a sanitizer build,
  // say).  So every sample lands in the window and the final merged count
  // must equal the total pushed (no torn slots).
  WindowedHistogram h({.epoch_ns = 1'000'000, .epochs = 60});
  WindowedRate r({.epoch_ns = 1'000'000, .epochs = 60});
  constexpr int kThreads = 4;
  constexpr int kPerThread = 20000;
  constexpr std::uint64_t kTickNs = 500;
  std::atomic<std::uint64_t> clock{0};
  std::atomic<bool> stop{false};
  std::thread reader([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      const std::uint64_t now = clock.load(std::memory_order_relaxed);
      (void)h.merged_at(now);
      (void)r.per_second_at(now);
      (void)r.total_in_window_at(now);
    }
  });
  std::vector<std::thread> writers;
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        const std::uint64_t now =
            clock.fetch_add(kTickNs, std::memory_order_relaxed);
        h.record_at(static_cast<double>(t * kPerThread + i % 97) + 1.0, now);
        r.add_at(1, now);
      }
    });
  }
  for (std::thread& w : writers) w.join();
  stop.store(true);
  reader.join();

  const std::uint64_t end = clock.load();
  EXPECT_EQ(h.merged_at(end).count() + h.dropped_late(),
            static_cast<std::int64_t>(kThreads) * kPerThread);
  EXPECT_EQ(r.total_in_window_at(end) + r.dropped_late(),
            static_cast<std::int64_t>(kThreads) * kPerThread);
  // Dropping needs a writer stalled past the whole window of synthetic
  // time, which the clock's total advance never reaches.
  EXPECT_EQ(h.dropped_late(), 0);
}

// --- WindowedRate -----------------------------------------------------------

TEST(WindowedRate, PerSecondIsWindowTotalOverCoveredTime) {
  constexpr std::uint64_t kSecond = 1'000'000'000;
  WindowedRate r({.epoch_ns = kSecond, .epochs = 5});
  for (std::uint64_t e = 0; e < 5; ++e)
    r.add_at(10, e * kSecond + kSecond / 2);

  // At t=5s the window is epochs 1..5: 40 events over the 4 s from the
  // start of epoch 1 to now.
  EXPECT_DOUBLE_EQ(r.per_second_at(5 * kSecond), 10.0);
  // The current, partial epoch counts with the time it has run: 2 events
  // half-way into epoch 5 make 42 events over 4.5 s.
  r.add_at(2, 5 * kSecond + 1);
  EXPECT_EQ(r.total_in_window_at(5 * kSecond + kSecond / 2), 42);
  EXPECT_DOUBLE_EQ(r.per_second_at(5 * kSecond + kSecond / 2), 42.0 / 4.5);

  // One window later everything has aged out.
  EXPECT_DOUBLE_EQ(r.per_second_at(20 * kSecond), 0.0);
  EXPECT_EQ(r.total_in_window_at(20 * kSecond), 0);
}

TEST(WindowedRate, CurrentEpochTrafficCountsPastTheFirstSecond) {
  constexpr std::uint64_t kSecond = 1'000'000'000;
  WindowedRate r({.epoch_ns = kSecond, .epochs = 5});
  // Every event lands in epoch 3, which has not completed: the window
  // (epochs 0..3, clamped at time 0) covers 3.5 s.
  r.add_at(7, 3 * kSecond + kSecond / 4);
  EXPECT_GT(r.per_second_at(3 * kSecond + kSecond / 2), 0.0);
  EXPECT_DOUBLE_EQ(r.per_second_at(3 * kSecond + kSecond / 2), 7.0 / 3.5);
}

TEST(WindowedRate, EarlyLifeWindowStartsAtTimeZero) {
  constexpr std::uint64_t kSecond = 1'000'000'000;
  WindowedRate r({.epoch_ns = kSecond, .epochs = 5});
  r.add_at(4, kSecond / 4);
  // No epoch has completed yet: 4 events over the 0.5 s since time 0.
  EXPECT_DOUBLE_EQ(r.per_second_at(kSecond / 2), 8.0);
  // At time 0 the window covers no time at all.
  EXPECT_DOUBLE_EQ(WindowedRate({.epoch_ns = kSecond, .epochs = 5})
                       .per_second_at(0),
                   0.0);
}

// --- SpanRecorder -----------------------------------------------------------

TEST(SpanRecorder, SamplingGateIsModuloOnServerId) {
  const SpanRecorder every(16, 1);
  const SpanRecorder fourth(16, 4);
  const SpanRecorder off(16, 0);
  EXPECT_TRUE(every.sampled(1));
  EXPECT_TRUE(every.sampled(2));
  EXPECT_TRUE(fourth.sampled(4));
  EXPECT_TRUE(fourth.sampled(8));
  EXPECT_FALSE(fourth.sampled(5));
  EXPECT_FALSE(off.sampled(4));
  EXPECT_FALSE(off.sampled(0));
}

TEST(SpanRecorder, RingKeepsMostRecentOldestFirst) {
  SpanRecorder rec(4, 1);
  for (std::uint64_t id = 1; id <= 10; ++id) {
    RequestSpan s;
    s.server_id = id;
    rec.record(s);
  }
  EXPECT_EQ(rec.recorded(), 10);
  const std::vector<RequestSpan> kept = rec.snapshot();
  ASSERT_EQ(kept.size(), 4u);
  for (std::uint64_t i = 0; i < 4; ++i)
    EXPECT_EQ(kept[i].server_id, 7 + i);
}

TEST(SpanRecorder, JsonlRoundTripDerivesStageDurations) {
  const std::string path = temp_path("spans_roundtrip.jsonl");
  std::remove(path.c_str());

  SpanRecorder rec(8, 1);
  RequestSpan s;
  s.server_id = 3;
  s.client_id = 99;
  s.num_steps = 4;
  s.batch = 2;
  s.recv_ns = 1'000'000;
  s.admit_ns = 1'005'000;     // decode  =  5 us
  s.assemble_ns = 1'105'000;  // queue   = 100 us
  s.infer_ns = 1'115'000;     // assemble = 10 us
  s.done_ns = 1'915'000;      // infer   = 800 us
  s.send_ns = 1'935'000;      // respond =  20 us
  s.sparse_kernel_ns = 600'000;
  s.dense_kernel_ns = 150'000;
  rec.record(s);
  // The JSONL bytes and key order are a published format.
  EXPECT_EQ(rec.dump_jsonl(),
            "{\"server_id\":3,\"client_id\":99,\"num_steps\":4,\"batch\":2,"
            "\"recv_ns\":1000000,\"admit_ns\":1005000,"
            "\"assemble_ns\":1105000,\"infer_ns\":1115000,"
            "\"done_ns\":1915000,\"send_ns\":1935000,"
            "\"sparse_kernel_ns\":600000,\"dense_kernel_ns\":150000,"
            "\"ok\":true}\n");
  rec.write_jsonl(path);

  const std::vector<RequestSpan> parsed = parse_span_jsonl(path);
  ASSERT_EQ(parsed.size(), 1u);
  const RequestSpan& p = parsed[0];
  EXPECT_EQ(p.server_id, 3u);
  EXPECT_EQ(p.recv_ns, 1'000'000u);
  EXPECT_EQ(p.batch, 2);
  EXPECT_TRUE(p.ok);
  EXPECT_EQ(p.client_id, 99u);
  EXPECT_EQ(p.num_steps, 4);
  EXPECT_EQ(p.sparse_kernel_ns, 600'000u);
  EXPECT_EQ(p.dense_kernel_ns, 150'000u);
  for (const SpanStamp& st : kSpanStamps) EXPECT_EQ(p.*st.field, s.*st.field);

  const SpanTimes t = span_times(p);
  ASSERT_EQ(kNumStages, 5u);
  EXPECT_STREQ(stage_name(0), "decode");
  EXPECT_STREQ(stage_name(4), "respond");
  EXPECT_EQ(stage_key(1), "queue_us");
  EXPECT_DOUBLE_EQ(t.stage_us[0], 5.0);    // decode
  EXPECT_DOUBLE_EQ(t.stage_us[1], 100.0);  // queue
  EXPECT_DOUBLE_EQ(t.stage_us[2], 10.0);   // assemble
  EXPECT_DOUBLE_EQ(t.stage_us[3], 800.0);  // infer
  EXPECT_DOUBLE_EQ(t.stage_us[4], 20.0);   // respond
  EXPECT_DOUBLE_EQ(t.e2e_us, 935.0);
  // The five stages tile [recv, send] exactly.
  double stage_sum = 0.0;
  for (double us : t.stage_us) stage_sum += us;
  EXPECT_DOUBLE_EQ(stage_sum, t.e2e_us);

  EXPECT_THROW(parse_span_jsonl(temp_path("no_such_spans.jsonl")), Error);
}

TEST(SpanRecorder, ParseFillsMissingStampsAndRejectsOutOfRange) {
  const std::string path = temp_path("spans_missing_stamp.jsonl");
  {
    std::ofstream out(path, std::ios::trunc);
    out << "{\"server_id\":1,\"recv_ns\":1000,\"admit_ns\":3000,"
           "\"done_ns\":9000,\"send_ns\":10000}\n";
  }
  const std::vector<RequestSpan> parsed = parse_span_jsonl(path);
  ASSERT_EQ(parsed.size(), 1u);
  // A missing stamp takes the previous one, so its stage reads as zero.
  EXPECT_EQ(parsed[0].assemble_ns, 3000u);
  EXPECT_EQ(parsed[0].infer_ns, 3000u);
  const SpanTimes t = span_times(parsed[0]);
  EXPECT_DOUBLE_EQ(t.stage_us[1], 0.0);  // queue
  EXPECT_DOUBLE_EQ(t.stage_us[2], 0.0);  // assemble
  EXPECT_DOUBLE_EQ(t.stage_us[3], 6.0);  // infer
  EXPECT_DOUBLE_EQ(t.e2e_us, 9.0);

  // A negative stamp cannot be a telemetry time; it is refused, not cast.
  {
    std::ofstream out(path, std::ios::trunc);
    out << "{\"server_id\":1,\"recv_ns\":-5}\n";
  }
  EXPECT_THROW(parse_span_jsonl(path), Error);
}

}  // namespace
}  // namespace spiketune::obs
