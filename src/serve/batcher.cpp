#include "serve/batcher.h"

#include <algorithm>
#include <chrono>
#include <cmath>

#include "core/error.h"
#include "obs/telemetry.h"

namespace spiketune::serve {

Batcher::Batcher(BatcherConfig config) : config_(config) {
  ST_REQUIRE(config_.max_batch > 0, "max_batch must be positive");
  ST_REQUIRE(config_.batch_timeout_us >= 0,
             "batch_timeout_us must be non-negative");
  ST_REQUIRE(config_.max_queue_depth > 0,
             "max_queue_depth must be positive");
}

namespace {

// Each new cost sample scales the weight of every older one by this, so
// the fit tracks roughly the last 50 runs and follows load and host drift.
constexpr double kCostDecay = 0.98;
// Weighted variance of the sampled row counts below which a and b cannot
// be told apart: with batches of one size only, any split of the cost into
// fixed and per-row parts fits equally well.
constexpr double kMinRowSpread = 0.01;

}  // namespace

void Batcher::CostFit::add(double rows, double ns_per_step) {
  w = w * kCostDecay + 1.0;
  wx = wx * kCostDecay + rows;
  wy = wy * kCostDecay + ns_per_step;
  wxx = wxx * kCostDecay + rows * rows;
  wxy = wxy * kCostDecay + rows * ns_per_step;
}

bool Batcher::CostFit::solve(double& a, double& b) const {
  if (w <= 0) return false;
  const double mean_x = wx / w;
  const double spread = wxx / w - mean_x * mean_x;
  if (!(spread >= kMinRowSpread)) return false;
  b = (wxy / w - mean_x * wy / w) / spread;
  a = wy / w - b * mean_x;
  return std::isfinite(a) && std::isfinite(b);
}

AdmitResult Batcher::submit(PendingRequest request) {
  bool wake_holders = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (draining_) return AdmitResult::kDraining;
    if (static_cast<std::int64_t>(queue_.size()) >= config_.max_queue_depth)
      return AdmitResult::kQueueFull;
    queue_.push_back(std::move(request));
    wake_holders = holding_ > 0;
  }
  cv_.notify_one();
  if (wake_holders) hold_cv_.notify_all();
  return AdmitResult::kAdmitted;
}

void Batcher::purge_expired_locked(std::uint64_t now_ns,
                                   std::vector<PendingRequest>& out) {
  for (auto it = queue_.begin(); it != queue_.end();) {
    if (it->deadline_ns != 0 && it->deadline_ns <= now_ns) {
      out.push_back(std::move(*it));
      it = queue_.erase(it);
    } else {
      ++it;
    }
  }
}

std::vector<PendingRequest> Batcher::next_batch(
    std::vector<PendingRequest>& expired) {
  std::unique_lock<std::mutex> lock(mu_);
  // A chunk is takeable only while no earlier chunk of its stream rides a
  // batch on another worker — state advances strictly in queue order, so
  // a blocked chunk waits for that batch's finish_stream, not merely for
  // the next batch.
  const auto takeable = [this](const PendingRequest& r) {
    return r.stream_id == 0 || inflight_streams_.count(r.stream_id) == 0;
  };
  const auto first_takeable = [&] {
    for (auto it = queue_.begin(); it != queue_.end(); ++it)
      if (takeable(*it)) return it;
    return queue_.end();
  };
  const auto has_work = [&] {
    return first_takeable() != queue_.end() || (draining_ && queue_.empty());
  };

  std::deque<PendingRequest>::iterator seed;
  for (;;) {
    if (!has_work()) {
      // Parked: this worker would take the next arrival at once, so a
      // batch another worker holds open stops paying for its wait.
      ++idle_workers_;
      if (holding_ > 0) hold_cv_.notify_all();
      cv_.wait(lock, has_work);
      --idle_workers_;
    }
    purge_expired_locked(obs::telemetry_now_ns(), expired);
    seed = first_takeable();
    if (seed != queue_.end()) break;
    if (!expired.empty() || (draining_ && queue_.empty())) {
      // Shed-only pass, or draining-and-dry (the worker-exit signal).
      // Chunks still blocked behind an in-flight stream stay queued for
      // the worker finish_stream() wakes — even mid-drain.
      if (draining_) cv_.notify_one();
      return {};
    }
    // Expired-free spurious wake (e.g. the purge emptied the queue): re-wait.
  }

  std::vector<PendingRequest> batch;
  batch.reserve(static_cast<std::size_t>(config_.max_batch));
  const std::uint32_t steps = seed->request.num_steps;
  std::uint64_t earliest_deadline = 0;  // 0 = no row has one
  // Claim a row's stream the moment the row leaves the queue — the lock
  // drops during a hold below, and another worker's sweep must already see
  // the stream as busy.
  const auto take = [&](std::deque<PendingRequest>::iterator it) {
    if (it->stream_id != 0) inflight_streams_.insert(it->stream_id);
    if (it->deadline_ns != 0 &&
        (earliest_deadline == 0 || it->deadline_ns < earliest_deadline))
      earliest_deadline = it->deadline_ns;
    batch.push_back(std::move(*it));
    return queue_.erase(it);
  };
  take(seed);
  const std::uint64_t open_ns = obs::telemetry_now_ns();

  // A batchmate must share the window length AND not step a busy stream
  // (which covers streams already aboard this very batch) AND not overtake
  // an earlier queued chunk of its own stream that this sweep left behind
  // (a different T, say) — per-stream FIFO holds across window lengths.
  const auto sweep = [&] {
    std::vector<std::uint64_t> passed;  // streams with a chunk left queued
    for (auto it = queue_.begin();
         it != queue_.end() &&
         static_cast<std::int64_t>(batch.size()) < config_.max_batch;) {
      const bool behind =
          it->stream_id != 0 &&
          std::find(passed.begin(), passed.end(), it->stream_id) !=
              passed.end();
      if (!behind && it->request.num_steps == steps && takeable(*it)) {
        it = take(it);
      } else {
        if (it->stream_id != 0) passed.push_back(it->stream_id);
        ++it;
      }
    }
  };

  // Whether holding can pay at all, and when the current hold must end
  // (telemetry ns).  The fit is read once: a run finishing mid-hold moves
  // it little.
  double a = 0.0, b = 0.0;
  const bool holds = config_.batch_timeout_us > 0 && cost_.solve(a, b) &&
                     a > 0.0;
  const auto hold_until = [&]() -> double {
    const double t = static_cast<double>(steps);
    double until = static_cast<double>(open_ns) +
                   std::min(static_cast<double>(config_.batch_timeout_us) *
                                1e3,
                            a * t);
    if (earliest_deadline != 0) {
      const double service =
          (a + static_cast<double>(batch.size()) * b) * t;
      until = std::min(until,
                       static_cast<double>(earliest_deadline) - service);
    }
    return until;
  };

  for (;;) {
    sweep();
    if (!holds || draining_ || idle_workers_ > 0 ||
        static_cast<std::int64_t>(batch.size()) >= config_.max_batch)
      break;
    const double wait_ns =
        hold_until() - static_cast<double>(obs::telemetry_now_ns());
    if (wait_ns <= 0.0) break;
    // Hold for late arrivals; an arrival, a parking worker, a finished
    // stream or a drain wakes the hold early to re-sweep and re-decide.
    ++holding_;
    hold_cv_.wait_for(lock, std::chrono::nanoseconds(
                                static_cast<std::int64_t>(wait_ns)));
    --holding_;
  }
  // Batchmates picked up during a hold may themselves have expired; shed
  // them here rather than running inference on them (their streams go
  // straight back — a shed chunk never touches state).
  const std::uint64_t now = obs::telemetry_now_ns();
  for (auto it = batch.begin(); it != batch.end();) {
    if (it->deadline_ns != 0 && it->deadline_ns <= now) {
      if (it->stream_id != 0) inflight_streams_.erase(it->stream_id);
      expired.push_back(std::move(*it));
      it = batch.erase(it);
    } else {
      ++it;
    }
  }
  // A sweep may have taken requests another blocked worker was woken for;
  // hand leftover work (or the drain signal) on before returning.
  if (!queue_.empty() || draining_) cv_.notify_one();
  return batch;
}

void Batcher::record_cost(std::int64_t rows, std::int64_t steps,
                          std::uint64_t ns) {
  if (rows <= 0 || steps <= 0) return;
  std::lock_guard<std::mutex> lock(mu_);
  cost_.add(static_cast<double>(rows),
            static_cast<double>(ns) / static_cast<double>(steps));
}

void Batcher::finish_stream(std::uint64_t stream_id) {
  if (stream_id == 0) return;
  bool wake_holders = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    inflight_streams_.erase(stream_id);
    wake_holders = holding_ > 0;
  }
  // notify_all: several workers may be parked and only some can use this
  // stream's next chunk; notify_one could wake the wrong one for good.
  cv_.notify_all();
  if (wake_holders) hold_cv_.notify_all();
}

void Batcher::drain() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    draining_ = true;
  }
  cv_.notify_all();
  hold_cv_.notify_all();
}

bool Batcher::draining() const {
  std::lock_guard<std::mutex> lock(mu_);
  return draining_;
}

std::size_t Batcher::depth() const {
  std::lock_guard<std::mutex> lock(mu_);
  return queue_.size();
}

}  // namespace spiketune::serve
