#include "obs/telemetry.h"

#include <atomic>
#include <chrono>

namespace spiketune::obs {

namespace {
std::atomic<unsigned> g_mask{0};

std::chrono::steady_clock::time_point epoch() {
  static const auto t0 = std::chrono::steady_clock::now();
  return t0;
}
}  // namespace

unsigned telemetry_mask() { return g_mask.load(std::memory_order_relaxed); }

void enable_telemetry(unsigned bits) {
  g_mask.fetch_or(bits, std::memory_order_relaxed);
}

void disable_telemetry(unsigned bits) {
  g_mask.fetch_and(~bits, std::memory_order_relaxed);
}

std::uint64_t telemetry_now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - epoch())
          .count());
}

}  // namespace spiketune::obs
