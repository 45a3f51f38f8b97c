#include "obs/window.h"

#include <algorithm>
#include <limits>

#include "core/error.h"
#include "obs/telemetry.h"

namespace spiketune::obs {

namespace {

// Tag values that can never collide with a real epoch index: epochs are
// now_ns / epoch_ns, which stays far below 2^63 for any real clock.
constexpr std::uint64_t kNeverTag = ~std::uint64_t{0} - 1;
constexpr std::uint64_t kClaimTag = ~std::uint64_t{0};

/// Oldest epoch of a window of `epochs` epochs ending at `cur`, clamped
/// at epoch 0.
std::uint64_t oldest_epoch(std::uint64_t cur, int epochs) {
  const std::uint64_t span = static_cast<std::uint64_t>(epochs);
  return cur + 1 >= span ? cur + 1 - span : 0;
}

void atomic_add_double(std::atomic<double>& a, double v) {
  double cur = a.load(std::memory_order_relaxed);
  while (!a.compare_exchange_weak(cur, cur + v, std::memory_order_relaxed)) {
  }
}

void atomic_min_double(std::atomic<double>& a, double v) {
  double cur = a.load(std::memory_order_relaxed);
  while (v < cur &&
         !a.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

void atomic_max_double(std::atomic<double>& a, double v) {
  double cur = a.load(std::memory_order_relaxed);
  while (v > cur &&
         !a.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

}  // namespace

// --- WindowedHistogram ------------------------------------------------------

struct WindowedHistogram::Slot {
  std::atomic<std::uint64_t> tag{kNeverTag};
  std::array<std::atomic<std::int64_t>, LogHistogram::kNumBuckets> buckets{};
  std::atomic<std::int64_t> count{0};
  std::atomic<double> sum{0.0};
  std::atomic<double> min{std::numeric_limits<double>::infinity()};
  std::atomic<double> max{-std::numeric_limits<double>::infinity()};
};

WindowedHistogram::WindowedHistogram(WindowConfig config) : config_(config) {
  ST_REQUIRE(config_.epoch_ns > 0, "epoch_ns must be positive");
  ST_REQUIRE(config_.epochs > 0, "window must cover at least one epoch");
  // Two spare slots: the current partial epoch plus a guard so a slot is
  // never recycled while still inside the reader's window.
  num_slots_ = config_.epochs + 2;
  slots_ = std::make_unique<Slot[]>(static_cast<std::size_t>(num_slots_));
}

WindowedHistogram::~WindowedHistogram() = default;

WindowedHistogram::Slot& WindowedHistogram::claim_slot(std::uint64_t epoch,
                                                       bool& ok) {
  Slot& s = slots_[epoch % static_cast<std::uint64_t>(num_slots_)];
  std::uint64_t tag = s.tag.load(std::memory_order_acquire);
  while (tag != epoch) {
    if (tag == kClaimTag) {  // another writer is resetting; wait it out
      tag = s.tag.load(std::memory_order_acquire);
      continue;
    }
    if (tag != kNeverTag && tag > epoch) {
      // The slot already belongs to a newer epoch: this writer stalled for
      // longer than the whole window.  Drop rather than corrupt.
      ok = false;
      return s;
    }
    if (s.tag.compare_exchange_weak(tag, kClaimTag,
                                    std::memory_order_acq_rel)) {
      for (auto& b : s.buckets) b.store(0, std::memory_order_relaxed);
      s.count.store(0, std::memory_order_relaxed);
      s.sum.store(0.0, std::memory_order_relaxed);
      s.min.store(std::numeric_limits<double>::infinity(),
                  std::memory_order_relaxed);
      s.max.store(-std::numeric_limits<double>::infinity(),
                  std::memory_order_relaxed);
      s.tag.store(epoch, std::memory_order_release);
      tag = epoch;
    }
  }
  ok = true;
  return s;
}

void WindowedHistogram::record_at(double value, std::uint64_t now_ns) {
  const std::uint64_t epoch = now_ns / config_.epoch_ns;
  bool ok = false;
  Slot& s = claim_slot(epoch, ok);
  if (!ok) {
    dropped_late_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  const int b = LogHistogram::bucket_index(value);
  s.buckets[static_cast<std::size_t>(b)].fetch_add(1,
                                                   std::memory_order_relaxed);
  s.count.fetch_add(1, std::memory_order_relaxed);
  atomic_add_double(s.sum, value);
  atomic_min_double(s.min, value);
  atomic_max_double(s.max, value);
}

LogHistogram WindowedHistogram::merged_at(std::uint64_t now_ns) const {
  const std::uint64_t cur = now_ns / config_.epoch_ns;
  const std::uint64_t lo = oldest_epoch(cur, config_.epochs);
  LogHistogram out;
  for (int i = 0; i < num_slots_; ++i) {
    const Slot& s = slots_[i];
    const std::uint64_t tag = s.tag.load(std::memory_order_acquire);
    if (tag == kNeverTag || tag == kClaimTag || tag < lo || tag > cur)
      continue;
    out.merge_raw(s.buckets, s.count.load(std::memory_order_relaxed),
                  s.sum.load(std::memory_order_relaxed),
                  s.min.load(std::memory_order_relaxed),
                  s.max.load(std::memory_order_relaxed));
  }
  return out;
}

// --- WindowedRate -----------------------------------------------------------

struct WindowedRate::Slot {
  std::atomic<std::uint64_t> tag{kNeverTag};
  std::atomic<std::int64_t> count{0};
};

WindowedRate::WindowedRate(WindowConfig config) : config_(config) {
  ST_REQUIRE(config_.epoch_ns > 0, "epoch_ns must be positive");
  ST_REQUIRE(config_.epochs > 0, "window must cover at least one epoch");
  num_slots_ = config_.epochs + 2;
  slots_ = std::make_unique<Slot[]>(static_cast<std::size_t>(num_slots_));
}

WindowedRate::~WindowedRate() = default;

void WindowedRate::add(std::int64_t n) { add_at(n, telemetry_now_ns()); }

void WindowedRate::add_at(std::int64_t n, std::uint64_t now_ns) {
  const std::uint64_t epoch = now_ns / config_.epoch_ns;
  Slot& s = slots_[epoch % static_cast<std::uint64_t>(num_slots_)];
  std::uint64_t tag = s.tag.load(std::memory_order_acquire);
  while (tag != epoch) {
    if (tag == kClaimTag) {
      tag = s.tag.load(std::memory_order_acquire);
      continue;
    }
    if (tag != kNeverTag && tag > epoch) {
      dropped_late_.fetch_add(n, std::memory_order_relaxed);
      return;
    }
    if (s.tag.compare_exchange_weak(tag, kClaimTag,
                                    std::memory_order_acq_rel)) {
      s.count.store(0, std::memory_order_relaxed);
      s.tag.store(epoch, std::memory_order_release);
      tag = epoch;
    }
  }
  s.count.fetch_add(n, std::memory_order_relaxed);
}

double WindowedRate::per_second_at(std::uint64_t now_ns) const {
  // The window's events over the time it covers: from the start of its
  // oldest epoch (time 0 while the clock is younger than the window) to now.
  const std::uint64_t cur = now_ns / config_.epoch_ns;
  const std::uint64_t lo = oldest_epoch(cur, config_.epochs);
  const double covered_s =
      static_cast<double>(now_ns - lo * config_.epoch_ns) / 1e9;
  return covered_s > 0.0
             ? static_cast<double>(total_in_window_at(now_ns)) / covered_s
             : 0.0;
}

std::int64_t WindowedRate::total_in_window_at(std::uint64_t now_ns) const {
  const std::uint64_t cur = now_ns / config_.epoch_ns;
  const std::uint64_t lo = oldest_epoch(cur, config_.epochs);
  std::int64_t n = 0;
  for (int i = 0; i < num_slots_; ++i) {
    const Slot& s = slots_[i];
    const std::uint64_t tag = s.tag.load(std::memory_order_acquire);
    if (tag == kNeverTag || tag == kClaimTag || tag < lo || tag > cur)
      continue;
    n += s.count.load(std::memory_order_relaxed);
  }
  return n;
}

}  // namespace spiketune::obs
