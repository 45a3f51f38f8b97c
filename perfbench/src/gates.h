// Correctness gates.  Each throws GateFailure on a mismatch; main() turns
// that into a non-zero exit with no timings printed, because a timing of a
// wrong result is worthless.
#pragma once

#include <cstddef>
#include <stdexcept>
#include <string>

#include "exp/experiment.h"
#include "hw/accelerator.h"
#include "serve/server.h"
#include "snn/spike_stats.h"

namespace perfbench {

class GateFailure : public std::runtime_error {
 public:
  explicit GateFailure(const std::string& what)
      : std::runtime_error("gate failed: " + what) {}
};

void gate(bool ok, const std::string& what);

/// Bitwise float equality: +0 vs -0 or two different NaN payloads differ.
void gate_bitwise(const float* a, const float* b, std::size_t n,
                  const std::string& what);
void gate_same_bits(double a, double b, const std::string& what);

/// Same layers (names, spiking flags) with identical nonzero and element
/// counts, and the same sample count.
void gate_records_equal(const spiketune::snn::SpikeRecord& a,
                        const spiketune::snn::SpikeRecord& b,
                        const std::string& what);

/// Every spiking layer fired at least once.
void gate_no_silent_layer(const spiketune::snn::SpikeRecord& record,
                          const std::string& what);

/// The simulated hardware outputs (analytic cycles, latency, throughput,
/// power, FPS/W, and the event simulation when present) are identical.
void gate_mapping_equal(const spiketune::hw::MappingReport& a,
                        const spiketune::hw::MappingReport& b,
                        const std::string& what);

/// Accuracy, loss, firing rate and the hardware mapping are identical.
void gate_experiment_equal(const spiketune::exp::ExperimentResult& a,
                           const spiketune::exp::ExperimentResult& b,
                           const std::string& what);

/// The drained server answered every admitted request exactly once
/// (admitted == served + dropped + shed + internal + orphan steps) and
/// evicted no stream.
void gate_accounting(const spiketune::serve::Server::Stats& stats);

}  // namespace perfbench
