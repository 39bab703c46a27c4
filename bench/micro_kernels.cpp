// google-benchmark micro kernels for the computational cores, including an
// ablation of the two fault-simulation optimizations (cone fast path and
// minimum-lane early exit are exercised together in FaultSimCone vs the
// plain full-evaluation FaultSimFull).

#include <benchmark/benchmark.h>

#include "fault/fault.h"
#include "fault/fault_sim.h"
#include "fault/fault_sim_width.h"
#include "fault/sim_width.h"
#include "harness/experiment.h"
#include "logic/minimize.h"
#include "logic/tautology.h"
#include "seq/uio.h"

namespace {

using namespace fstg;

const CircuitExperiment& dk16_experiment() {
  static const CircuitExperiment exp = run_circuit("dk16");
  return exp;
}
const CircuitExperiment& mark1_experiment() {
  static const CircuitExperiment exp = run_circuit("mark1");
  return exp;
}

void BM_UioDerivation(benchmark::State& state) {
  const StateTable& table = dk16_experiment().table;
  for (auto _ : state) {
    UioSet uios = derive_uio_sequences(table);
    benchmark::DoNotOptimize(uios.count());
  }
}
BENCHMARK(BM_UioDerivation);

void BM_TestGeneration(benchmark::State& state) {
  const CircuitExperiment& exp = dk16_experiment();
  for (auto _ : state) {
    GeneratorResult gen = generate_functional_tests(exp.table, {}, exp.gen.uios);
    benchmark::DoNotOptimize(gen.tests.size());
  }
}
BENCHMARK(BM_TestGeneration);

void BM_LogicSimFullEval(benchmark::State& state) {
  const Netlist& nl = mark1_experiment().synth.circuit.comb;
  LogicSim sim(nl);
  for (int i = 0; i < nl.num_inputs(); ++i)
    sim.set_input(i, 0x5555555555555555ull * static_cast<unsigned>(i + 1));
  for (auto _ : state) {
    sim.run();
    benchmark::DoNotOptimize(sim.output(0));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(nl.num_gates()) * 64);
}
BENCHMARK(BM_LogicSimFullEval);

void run_fault_sim(benchmark::State& state, bool use_cones) {
  const CircuitExperiment& exp = mark1_experiment();
  const ScanCircuit& circuit = exp.synth.circuit;
  const std::vector<FaultSpec> faults = enumerate_stuck_at(circuit.comb);
  const std::vector<std::vector<int>> cones =
      compute_fault_cones(circuit.comb, faults);
  const std::vector<ScanPattern> patterns = to_scan_patterns(
      exp.gen.tests.sorted_by_decreasing_length());
  ScanBatchSim sim(circuit);
  const std::vector<ScanPattern> batch(
      patterns.begin(),
      patterns.begin() + std::min<std::size_t>(64, patterns.size()));
  const GoodTrace good = sim.run_good(batch);
  for (auto _ : state) {
    std::size_t detected = 0;
    for (std::size_t f = 0; f < faults.size(); ++f)
      detected += sim.run_faulty(batch, good, faults[f],
                                 use_cones ? &cones[f] : nullptr) != 0;
    benchmark::DoNotOptimize(detected);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(faults.size()));
}

void BM_FaultSimFull(benchmark::State& state) { run_fault_sim(state, false); }
BENCHMARK(BM_FaultSimFull);

void BM_FaultSimCone(benchmark::State& state) { run_fault_sim(state, true); }
BENCHMARK(BM_FaultSimCone);

// Per-width lane-op kernels (fault/fault_sim_width.h): the three hot loops
// of the vectorized engine at every lane width the build supports. Widths
// the CPU lacks are clamped down by resolve_lane_bits, so we register only
// genuinely distinct widths; items processed = gate-evaluations * lanes,
// making the per-lane throughput comparable across widths.
void run_lane_kernel(benchmark::State& state,
                     std::uint64_t (*kernel)(int, const ScanCircuit&, int),
                     int lane_bits) {
  const ScanCircuit& circuit = mark1_experiment().synth.circuit;
  constexpr int kReps = 8;
  for (auto _ : state) {
    benchmark::DoNotOptimize(kernel(lane_bits, circuit, kReps));
  }
  state.SetItemsProcessed(state.iterations() * kReps *
                          static_cast<std::int64_t>(circuit.comb.num_gates()) *
                          lane_bits);
}

void BM_LaneEvalSweep(benchmark::State& state) {
  run_lane_kernel(state, detail::kernel_eval_sweep,
                  static_cast<int>(state.range(0)));
}
void BM_LaneXMerge(benchmark::State& state) {
  run_lane_kernel(state, detail::kernel_x_merge,
                  static_cast<int>(state.range(0)));
}
void BM_LaneConeOverlay(benchmark::State& state) {
  run_lane_kernel(state, detail::kernel_cone_overlay,
                  static_cast<int>(state.range(0)));
}

void register_lane_benches() {
  const int widest = max_supported_lane_bits();
  for (int bits : {64, 256, 512}) {
    if (bits > widest) break;
    benchmark::RegisterBenchmark("BM_LaneEvalSweep", BM_LaneEvalSweep)
        ->Arg(bits);
    benchmark::RegisterBenchmark("BM_LaneXMerge", BM_LaneXMerge)->Arg(bits);
    benchmark::RegisterBenchmark("BM_LaneConeOverlay", BM_LaneConeOverlay)
        ->Arg(bits);
  }
}
const bool lane_benches_registered = (register_lane_benches(), true);

void BM_TautologyCheck(benchmark::State& state) {
  // The OR of all function covers of dk16, a mixed non-trivial cover.
  const CircuitExperiment& exp = dk16_experiment();
  Cover all(exp.synth.covers.front().num_vars());
  for (const Cover& c : exp.synth.covers)
    for (const Cube& cube : c.cubes()) all.add(cube);
  for (auto _ : state) {
    benchmark::DoNotOptimize(is_tautology(all));
  }
}
BENCHMARK(BM_TautologyCheck);

// Two-level synthesis of one built-in: mark1 (20 functions of 8
// variables) and dvram (12 functions of 14 variables, the costliest
// synthesis among the built-ins).
void BM_Synthesis(benchmark::State& state, const char* circuit) {
  Kiss2Fsm fsm = load_benchmark(circuit);
  for (auto _ : state) {
    SynthesisResult r = synthesize_scan_circuit(fsm);
    benchmark::DoNotOptimize(r.circuit.comb.num_gates());
  }
}
BENCHMARK_CAPTURE(BM_Synthesis, mark1, "mark1");
BENCHMARK_CAPTURE(BM_Synthesis, dvram, "dvram");

}  // namespace

BENCHMARK_MAIN();
