// Determinism lane for the parallel, event-driven fault-simulation engine:
// bit-identical results across thread counts and evaluation modes, and
// well-formed partial results when a shared budget guard trips mid-region.
// Runs under the tsan preset (`ctest --preset determinism`).

#include "fault/fault_sim.h"

#include <gtest/gtest.h>

#include <bit>
#include <utility>

#include "base/parallel/thread_pool.h"
#include "base/rng.h"
#include "base/robust/budget.h"
#include "fault/bridging.h"
#include "fault/compaction.h"
#include "fault/fault.h"
#include "harness/experiment.h"
#include "netlist/reach.h"
#include "sim/scan_sim.h"

namespace fstg {
namespace {

/// Stuck-at + bridging fault list of one benchmark (the combination the
/// paper's Table 6 simulates; also large enough to cross the engine's
/// minimum-parallel-faults threshold).
std::vector<FaultSpec> all_faults(const ScanCircuit& circuit) {
  std::vector<FaultSpec> faults = enumerate_stuck_at(circuit.comb);
  const std::vector<FaultSpec> bridges = enumerate_bridging(circuit.comb);
  faults.insert(faults.end(), bridges.begin(), bridges.end());
  return faults;
}

void expect_same_result(const FaultSimResult& a, const FaultSimResult& b) {
  EXPECT_EQ(a.total_faults, b.total_faults);
  EXPECT_EQ(a.detected_faults, b.detected_faults);
  EXPECT_EQ(a.detected_by, b.detected_by);
  EXPECT_EQ(a.test_effective, b.test_effective);
  EXPECT_EQ(a.num_effective_tests(), b.num_effective_tests());
  EXPECT_EQ(a.complete, b.complete);
}

TEST(FaultSimParallel, BitIdenticalAcrossThreadCounts) {
  CircuitExperiment exp = run_circuit("bbara");
  const ScanCircuit& circuit = exp.synth.circuit;
  const std::vector<FaultSpec> faults = all_faults(circuit);
  ASSERT_GE(faults.size(), 64u);  // must actually exercise the parallel path

  FaultSimOptions serial;
  serial.threads = 0;
  const FaultSimResult baseline =
      simulate_faults(circuit, exp.gen.tests, faults, serial);

  for (int threads : {1, 2, 8}) {
    FaultSimOptions options;
    options.threads = threads;
    const FaultSimResult r =
        simulate_faults(circuit, exp.gen.tests, faults, options);
    SCOPED_TRACE("threads=" + std::to_string(threads));
    expect_same_result(r, baseline);
  }
}

TEST(FaultSimParallel, EventDrivenMatchesFullCone) {
  CircuitExperiment exp = run_circuit("dk17");
  const ScanCircuit& circuit = exp.synth.circuit;
  const std::vector<FaultSpec> faults = all_faults(circuit);

  FaultSimOptions event;
  event.threads = 2;
  event.event_driven = true;
  FaultSimOptions full;
  full.threads = 2;
  full.event_driven = false;
  expect_same_result(simulate_faults(circuit, exp.gen.tests, faults, event),
                     simulate_faults(circuit, exp.gen.tests, faults, full));
}

TEST(FaultSimParallel, SharedReachabilityMatchesInternal) {
  CircuitExperiment exp = run_circuit("dk17");
  const ScanCircuit& circuit = exp.synth.circuit;
  const std::vector<FaultSpec> faults = all_faults(circuit);

  const std::vector<BitVec> reach = forward_reachability(circuit.comb);
  FaultSimOptions shared;
  shared.threads = 2;
  shared.reachability = &reach;
  expect_same_result(simulate_faults(circuit, exp.gen.tests, faults, shared),
                     simulate_faults(circuit, exp.gen.tests, faults, {}));
}

TEST(FaultSimParallel, BudgetExhaustedParallelRunIsWellFormedPartial) {
  CircuitExperiment exp = run_circuit("bbara");
  const ScanCircuit& circuit = exp.synth.circuit;
  const std::vector<FaultSpec> faults = all_faults(circuit);

  // Trip the shared guard mid-region deterministically: injected exhaustion
  // fires once the workers' combined tick count passes a third of the fault
  // list, whichever worker gets there first.
  robust::clear_budget_injections();
  robust::inject_budget_exhaustion("fault_sim.batch", faults.size() / 3);
  robust::RunGuard guard(robust::Budget{}, "fault_sim.batch");
  robust::clear_budget_injections();
  FaultSimOptions options;
  options.threads = 8;
  const FaultSimResult r =
      simulate_faults_guarded(circuit, exp.gen.tests, faults, guard, options);

  EXPECT_FALSE(r.complete);
  EXPECT_TRUE(guard.exhausted());

  // Partial soundness: every recorded detection is real and carries its
  // exact first-detecting test (check against a serial unbudgeted run).
  FaultSimOptions serial;
  serial.threads = 0;
  const FaultSimResult full =
      simulate_faults(circuit, exp.gen.tests, faults, serial);
  ASSERT_EQ(r.detected_by.size(), full.detected_by.size());
  std::size_t recorded = 0;
  for (std::size_t f = 0; f < r.detected_by.size(); ++f) {
    if (r.detected_by[f] < 0) continue;  // skipped or genuinely undetected
    EXPECT_EQ(r.detected_by[f], full.detected_by[f]) << f;
    ++recorded;
  }
  EXPECT_EQ(r.detected_faults, recorded);
  // Effectiveness marks only on tests recorded as first detectors.
  std::vector<bool> expected(exp.gen.tests.size(), false);
  for (int t : r.detected_by)
    if (t >= 0) expected[static_cast<std::size_t>(t)] = true;
  EXPECT_EQ(r.test_effective, expected);
}

TEST(FaultSimParallel, SuiteParallelMatchesSerial) {
  const std::vector<std::string> names = {"lion", "dk27", "dk17", "bbara"};
  SuiteOptions serial;
  serial.gate_level = true;
  serial.threads = 0;
  SuiteOptions parallel = serial;
  parallel.threads = 4;

  const SuiteResult a = run_circuit_suite(names, serial);
  const SuiteResult b = run_circuit_suite(names, parallel);
  ASSERT_EQ(a.runs.size(), b.runs.size());
  EXPECT_EQ(a.failures(), 0u);
  EXPECT_EQ(b.failures(), 0u);
  for (std::size_t i = 0; i < a.runs.size(); ++i) {
    SCOPED_TRACE(names[i]);
    EXPECT_EQ(a.runs[i].name, b.runs[i].name);  // input order preserved
    EXPECT_EQ(a.runs[i].gate.sa.sim.detected_by,
              b.runs[i].gate.sa.sim.detected_by);
    EXPECT_EQ(a.runs[i].gate.br.sim.detected_by,
              b.runs[i].gate.br.sim.detected_by);
    EXPECT_EQ(a.runs[i].gate.sa.effective_tests.size(),
              b.runs[i].gate.sa.effective_tests.size());
    EXPECT_EQ(a.runs[i].exp.gen.tests.size(), b.runs[i].exp.gen.tests.size());
  }
}

TEST(FaultSimParallel, SuiteWorkersInheritInjections) {
  // Budget injections are thread-local; the parallel suite must carry the
  // coordinator's armed set into its pool workers, so an injected
  // fault-sim failure demotes circuits exactly as in the serial suite.
  robust::clear_budget_injections();
  robust::inject_budget_exhaustion("fault_sim.batch", 0);
  SuiteOptions options;
  options.gate_level = true;
  options.threads = 4;
  const SuiteResult result = run_circuit_suite({"lion", "dk27"}, options);
  robust::clear_budget_injections();

  ASSERT_EQ(result.runs.size(), 2u);
  for (const CircuitRun& run : result.runs) {
    SCOPED_TRACE(run.name);
    EXPECT_FALSE(run.status.is_ok());
    EXPECT_EQ(run.failed_stage, "gate-level");
    EXPECT_EQ(run.status.code(), robust::Code::kBudgetExhausted);
  }
}

void expect_same_index(const GoodTrace& a, const GoodTrace& b) {
  ASSERT_TRUE(a.exc_built);
  ASSERT_TRUE(b.exc_built);
  EXPECT_EQ(a.exc_words, b.exc_words);
  EXPECT_EQ(a.exc_any1, b.exc_any1);
  EXPECT_EQ(a.exc_any0, b.exc_any0);
  EXPECT_EQ(a.exc_obs1, b.exc_obs1);
  EXPECT_EQ(a.exc_obs0, b.exc_obs0);
  EXPECT_EQ(a.exc_pin_obs1, b.exc_pin_obs1);
  EXPECT_EQ(a.exc_pin_obs0, b.exc_pin_obs0);
  EXPECT_EQ(a.exc_pin_base, b.exc_pin_base);
  EXPECT_EQ(a.exc_x, b.exc_x);
}

TEST(FaultSimParallel, ExcitationIndexIdenticalAcrossThreads) {
  // The index sweep runs in 64-cycle blocks across the pool; every block
  // owns one word of each bitset, so the bitsets must not depend on the
  // thread count. 200 rows = three full blocks and a partial fourth, and
  // the second batch carries X inputs (X cycles take the exc_x path).
  CircuitExperiment exp = run_circuit("bbsse");
  const ScanCircuit& circuit = exp.synth.circuit;
  Rng rng(13);
  for (bool with_x : {false, true}) {
    SCOPED_TRACE(with_x ? "X-bearing batch" : "two-valued batch");
    std::vector<ScanPattern> batch(40);
    for (std::size_t l = 0; l < batch.size(); ++l) {
      ScanPattern& p = batch[l];
      p.init_state = static_cast<std::uint32_t>(
          rng.below(std::uint64_t{1} << circuit.num_sv));
      const std::size_t len = l == 0 ? 200 : rng.range(1, 199);
      for (std::size_t c = 0; c < len; ++c) {
        p.inputs.push_back(static_cast<std::uint32_t>(
            rng.below(std::uint64_t{1} << circuit.num_pi)));
        p.input_x.push_back(
            with_x && l % 7 == 3 && c % 50 == 10 ? 1u : 0u);
      }
    }
    ScanBatchSim sim(circuit);
    GoodTrace serial = sim.run_good(batch);
    GoodTrace parallel = sim.run_good(batch);
    ASSERT_EQ(serial.gate_values.size(), 200u);
    ASSERT_EQ(serial.has_x, with_x);
    sim.build_excitation_index(serial, 1);
    sim.build_excitation_index(parallel, 4);
    expect_same_index(serial, parallel);
    if (with_x) {
      std::size_t x_cycles = 0;
      for (std::uint64_t w : serial.exc_x) x_cycles += std::popcount(w);
      EXPECT_GT(x_cycles, 0u);
      EXPECT_LT(x_cycles, 200u);  // some clean cycles get per-gate bits
    }
  }
}

TEST(FaultSimParallel, CombinedPassEqualsSeparateSelections) {
  // run_gate_level simulates stuck-at and bridging in one pass and splits
  // the detections per list; each list must match its own
  // select_effective_tests run over the same (possibly pruned) faults.
  for (const char* name : {"lion", "bbsse", "keyb"}) {
    const CircuitExperiment exp = run_circuit(name);
    for (bool static_prune : {false, true}) {
      SCOPED_TRACE(std::string(name) +
                   (static_prune ? " static_prune" : " unpruned"));
      GateLevelOptions options;
      options.classify_redundancy = false;
      options.static_prune = static_prune;
      options.threads = 4;
      const GateLevelResult gate = run_gate_level(exp, options);
      FaultSimOptions sim_options;
      sim_options.threads = 4;
      const CompactionResult sa = select_effective_tests(
          exp.synth.circuit, exp.gen.tests, gate.sa_faults, sim_options);
      const CompactionResult br = select_effective_tests(
          exp.synth.circuit, exp.gen.tests, gate.br_faults, sim_options);
      for (const auto& [combined, separate] :
           {std::pair{&gate.sa, &sa}, std::pair{&gate.br, &br}}) {
        expect_same_result(combined->sim, separate->sim);
        ASSERT_EQ(combined->effective_tests.size(),
                  separate->effective_tests.size());
        for (std::size_t i = 0; i < separate->effective_tests.size(); ++i) {
          EXPECT_EQ(combined->effective_tests.tests[i].init_state,
                    separate->effective_tests.tests[i].init_state);
          EXPECT_EQ(combined->effective_tests.tests[i].inputs,
                    separate->effective_tests.tests[i].inputs);
        }
      }
    }
  }
}

}  // namespace
}  // namespace fstg
