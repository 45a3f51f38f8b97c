#include "gates.h"

#include <cstring>

namespace perfbench {

namespace sn = spiketune::snn;
namespace hw = spiketune::hw;

void gate(bool ok, const std::string& what) {
  if (!ok) throw GateFailure(what);
}

void gate_bitwise(const float* a, const float* b, std::size_t n,
                  const std::string& what) {
  gate(std::memcmp(a, b, n * sizeof(float)) == 0, what + ": values differ");
}

void gate_same_bits(double a, double b, const std::string& what) {
  gate(std::memcmp(&a, &b, sizeof(double)) == 0,
       what + ": " + std::to_string(a) + " != " + std::to_string(b));
}

void gate_records_equal(const sn::SpikeRecord& a, const sn::SpikeRecord& b,
                        const std::string& what) {
  gate(a.num_layers() == b.num_layers(), what + ": layer count differs");
  gate(a.total_samples() == b.total_samples(),
       what + ": sample count differs");
  for (std::size_t i = 0; i < a.num_layers(); ++i) {
    const sn::LayerActivity& x = a.layers()[i];
    const sn::LayerActivity& y = b.layers()[i];
    const std::string at = what + ": layer " + std::to_string(i);
    gate(x.layer_name == y.layer_name && x.spiking == y.spiking,
         at + " identity differs");
    gate(x.input_nonzeros == y.input_nonzeros &&
             x.input_elements == y.input_elements &&
             x.output_nonzeros == y.output_nonzeros &&
             x.output_elements == y.output_elements,
         at + " activity differs");
  }
}

void gate_no_silent_layer(const sn::SpikeRecord& record,
                          const std::string& what) {
  for (std::size_t i = 0; i < record.num_layers(); ++i) {
    const sn::LayerActivity& l = record.layers()[i];
    gate(!l.spiking || l.output_nonzeros > 0,
         what + ": spiking layer " + std::to_string(i) + " is silent");
  }
}

void gate_mapping_equal(const hw::MappingReport& a, const hw::MappingReport& b,
                        const std::string& what) {
  gate_same_bits(a.perf.stage_cycles, b.perf.stage_cycles,
                 what + " stage cycles");
  gate_same_bits(a.perf.cycles_per_inference, b.perf.cycles_per_inference,
                 what + " cycles per inference");
  gate_same_bits(a.perf.latency_s, b.perf.latency_s, what + " latency");
  gate_same_bits(a.perf.throughput_fps, b.perf.throughput_fps,
                 what + " throughput");
  gate_same_bits(a.perf.power.total(), b.perf.power.total(), what + " power");
  gate_same_bits(a.perf.fps_per_watt, b.perf.fps_per_watt,
                 what + " FPS/W");
  gate(a.allocation.pes_per_layer == b.allocation.pes_per_layer,
       what + " PE allocation differs");
  gate(a.event_sim.has_value() == b.event_sim.has_value(),
       what + " event simulation present on one side only");
  if (a.event_sim) {
    gate_same_bits(a.event_sim->total_cycles, b.event_sim->total_cycles,
                   what + " simulated cycles");
    gate_same_bits(a.event_sim->latency_s, b.event_sim->latency_s,
                   what + " simulated latency");
    gate_same_bits(a.event_sim->throughput_fps, b.event_sim->throughput_fps,
                   what + " simulated throughput");
  }
}

void gate_experiment_equal(const spiketune::exp::ExperimentResult& a,
                           const spiketune::exp::ExperimentResult& b,
                           const std::string& what) {
  gate_same_bits(a.accuracy, b.accuracy, what + " accuracy");
  gate_same_bits(a.loss, b.loss, what + " loss");
  gate_same_bits(a.firing_rate, b.firing_rate, what + " firing rate");
  gate_same_bits(a.final_train_accuracy, b.final_train_accuracy,
                 what + " train accuracy");
  gate_mapping_equal(a.mapping, b.mapping, what);
}

void gate_accounting(const spiketune::serve::Server::Stats& s) {
  const std::int64_t answered = s.served + s.dropped_responses +
                                s.deadline_shed + s.internal_errors +
                                s.stream_orphan_steps;
  gate(s.admitted == answered,
       "accounting identity: admitted " + std::to_string(s.admitted) +
           " != answered " + std::to_string(answered));
  gate(s.streams_evicted == 0,
       "streams evicted: " + std::to_string(s.streams_evicted));
}

}  // namespace perfbench
