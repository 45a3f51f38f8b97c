// Deterministic fork-join parallelism for the hot kernels.
//
// A fixed-size, work-stealing-free thread pool plus a `parallel_for` helper
// with *static* range partitioning: every call splits [begin, end) into at
// most `num_threads()` contiguous slices (each a whole number of `grain`
// units, except possibly the last) and hands slice p to participant p.  No
// dynamic scheduling, no stealing — which slice runs where is a pure
// function of (range, grain, thread count), never of timing.
//
// Determinism contract (relied on by gemm/im2col/conv/LIF and asserted by
// tests/test_parallel.cpp):
//   * kernels give each slice a disjoint output range, so there are no
//     write-write races and no accumulation-order changes;
//   * cross-slice reductions are either integer sums (exact under any
//     combination order, e.g. LIF spike counts) or are combined in fixed
//     slice order;
//   * per-element floating-point accumulation order inside a kernel does
//     not depend on where slice boundaries fall.
// Under that contract results are bit-identical to the serial path for any
// thread count.
//
// The process-wide thread count defaults to 1 (fully serial), so existing
// single-threaded behaviour — including seed/reproducibility guarantees —
// is unchanged unless a driver opts in via `set_num_threads` (exposed as
// `--threads` on the bench/example binaries).
#pragma once

#include <condition_variable>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace spiketune {

/// Current process-wide participant count (1 = serial).
int num_threads();

/// Sets the process-wide participant count used by parallel_for.
/// `n` counts the calling thread, so n workers means n-1 pool threads.
/// Throws InvalidArgument unless 1 <= n <= max_num_threads().
void set_num_threads(int n);

/// Upper bound accepted by set_num_threads.
int max_num_threads();

/// Fixed-size fork-join pool.  The calling thread is participant 0 and
/// always executes the first slice itself; `resize(n)` keeps n-1 workers.
class ThreadPool {
 public:
  using RangeFn = std::function<void(std::int64_t, std::int64_t)>;

  /// The process-wide pool used by parallel_for.
  static ThreadPool& instance();

  /// True when called from inside a parallel region — a pool worker, or
  /// the calling thread while it executes its own slice.  Used to run
  /// nested parallel_for calls inline instead of deadlocking on the pool.
  static bool in_worker();

  /// Sets the participant count (>= 1); joins and respawns workers.
  /// Must not be called while a run() is in flight or from a worker.
  void resize(int threads);
  int size() const { return threads_; }

  /// Splits [begin, end) into contiguous grain-aligned slices and executes
  /// `fn(slice_begin, slice_end)` on the participants; returns when every
  /// slice is done.  Rethrows the first exception thrown by any slice.
  void run(std::int64_t begin, std::int64_t end, std::int64_t grain,
           const RangeFn& fn);

  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

 private:
  ThreadPool() = default;
  void worker_loop(int slot, std::uint64_t seen_epoch);
  void stop_workers();

  struct Slice {
    std::int64_t begin = 0;
    std::int64_t end = 0;
  };

  std::mutex run_mu_;  // serializes concurrent run()/resize() callers

  std::mutex mu_;
  std::condition_variable cv_start_;
  std::condition_variable cv_done_;
  std::vector<std::thread> workers_;
  int threads_ = 1;              // participants including the caller
  std::uint64_t epoch_ = 0;      // bumped once per run() to wake workers
  int active_workers_ = 0;       // workers participating in this epoch
  int pending_ = 0;              // workers still running this epoch
  const RangeFn* fn_ = nullptr;
  std::vector<Slice> slices_;    // slices_[p] for participant p
  std::exception_ptr error_;
  bool shutdown_ = false;
};

/// Minimum elements per slice for elementwise loops (LIF membranes, nonzero
/// counts, spike-count adds); below this the fork-join handshake costs more
/// than the arithmetic.
constexpr std::int64_t kElemGrain = 2048;

/// Runs `fn(slice_begin, slice_end)` over [begin, end), statically split
/// into at most num_threads() slices of at least `grain` indices each.
/// Runs inline when serial, when the range is a single slice, or when
/// called from inside a pool worker (no nested parallelism).
void parallel_for(std::int64_t begin, std::int64_t end, std::int64_t grain,
                  const ThreadPool::RangeFn& fn);

}  // namespace spiketune
