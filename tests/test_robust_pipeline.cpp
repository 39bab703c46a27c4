// End-to-end robustness: synthetic budget exhaustion injected at every
// guard site in the parse -> synth -> ATPG -> fault-sim pipeline must
// produce a typed partial result or a structured error — never a hang, a
// crash, or a silently wrong "complete" answer. Also covers the paper-level
// degradation guarantee: a budget-exhausted UIO search falls back to
// scan-out tests, which keeps state-transition coverage at 100%.
#include <gtest/gtest.h>

#include <algorithm>

#include "atpg/coverage.h"
#include "atpg/generator.h"
#include "base/error.h"
#include "base/obs/metrics.h"
#include "base/robust/budget.h"
#include "fault/bridging.h"
#include "fault/fault.h"
#include "fault/fault_sim.h"
#include "fault/podem.h"
#include "harness/experiment.h"
#include "kiss/benchmarks.h"
#include "netlist/reach.h"
#include "seq/distinguishing.h"
#include "seq/transfer.h"
#include "seq/uio.h"

namespace fstg {
namespace {

using robust::Budget;
using robust::BudgetTrip;
using robust::RunGuard;
using robust::clear_budget_injections;
using robust::clear_guard_site_log;
using robust::guard_sites_seen;
using robust::inject_budget_exhaustion;

class RobustPipelineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    clear_budget_injections();
    clear_guard_site_log();
  }
  void TearDown() override { clear_budget_injections(); }

  static StateTable table(const std::string& name) {
    return expand_fsm(load_benchmark(name), FillPolicy::kError);
  }
};

// --- Injection at every guard site ---------------------------------------

TEST_F(RobustPipelineTest, UioSearchExhaustionYieldsTypedPartialSet) {
  StateTable t = table("dk27");
  // Let a few states finish, then cut the derivation short.
  inject_budget_exhaustion("uio.search", 20);
  UioSet set = derive_uio_sequences(t);
  EXPECT_FALSE(set.complete());
  EXPECT_EQ(set.trip, BudgetTrip::kInjected);
  EXPECT_GT(set.aborted_states(), 0);
  // Everything derived before the trip is still a verified UIO.
  for (int s = 0; s < t.num_states(); ++s) {
    const UioSequence& u = set.of(s);
    if (u.exists) {
      EXPECT_TRUE(verify_uio(t, s, u.inputs));
    }
    if (u.aborted) {
      EXPECT_FALSE(u.exists);
    }
  }
}

TEST_F(RobustPipelineTest, TransferExhaustionIsTypedNotANonExistenceProof) {
  StateTable t = table("lion");
  inject_budget_exhaustion("transfer.bfs");
  RunGuard guard(Budget{}, "transfer.bfs");
  TransferSearch r =
      find_transfer_guarded(t, 0, 4, [](int s) { return s == 2; }, guard);
  EXPECT_TRUE(r.budget_exhausted);
  EXPECT_FALSE(r.seq.has_value());
}

TEST_F(RobustPipelineTest, DistinguishingExhaustionIsTyped) {
  StateTable t = table("lion");
  inject_budget_exhaustion("distinguishing.bfs");
  RunGuard guard(Budget{}, "distinguishing.bfs");
  DistinguishingSearch r = distinguishing_sequence_guarded(t, 0, 1, guard);
  EXPECT_TRUE(r.budget_exhausted);
  EXPECT_FALSE(r.seq.has_value());
}

TEST_F(RobustPipelineTest, PodemExhaustionAbortsWithoutMisclassifying) {
  CircuitExperiment exp = run_circuit("lion");
  std::vector<FaultSpec> faults = enumerate_stuck_at(exp.synth.circuit.comb);
  ASSERT_FALSE(faults.empty());

  inject_budget_exhaustion("podem.run");
  PodemResult r = podem(exp.synth.circuit, faults.front());
  EXPECT_EQ(r.status, PodemResult::Status::kAborted);
  EXPECT_TRUE(r.budget_exhausted);  // never kRedundant from a cut search

  GateAtpgResult atpg = gate_level_atpg(exp.synth.circuit, faults);
  EXPECT_FALSE(atpg.complete);
  EXPECT_GT(atpg.unprocessed, 0u);
}

TEST_F(RobustPipelineTest, FaultSimExhaustionIsLowerBoundPartial) {
  CircuitExperiment exp = run_circuit("lion");
  std::vector<FaultSpec> faults = enumerate_stuck_at(exp.synth.circuit.comb);

  FaultSimResult full =
      simulate_faults(exp.synth.circuit, exp.gen.tests, faults);
  ASSERT_TRUE(full.complete);

  inject_budget_exhaustion("fault_sim.batch", 2);
  RunGuard guard(Budget{}, "fault_sim.batch");
  FaultSimResult part =
      simulate_faults_guarded(exp.synth.circuit, exp.gen.tests, faults, guard);
  EXPECT_FALSE(part.complete);
  EXPECT_LE(part.detected_faults, full.detected_faults);
  // Soundness direction: every recorded detection is real (agrees with the
  // complete run's first-detecting-test attribution).
  for (std::size_t f = 0; f < part.detected_by.size(); ++f) {
    if (part.detected_by[f] >= 0) {
      EXPECT_EQ(part.detected_by[f], full.detected_by[f]);
    }
  }

  // The unguarded wrapper refuses to return an incomplete result.
  inject_budget_exhaustion("fault_sim.batch", 2);
  EXPECT_THROW(simulate_faults(exp.synth.circuit, exp.gen.tests, faults),
               BudgetError);
}

TEST_F(RobustPipelineTest, BridgingExhaustionReturnsValidPrefix) {
  CircuitExperiment exp = run_circuit("lion");
  std::vector<FaultSpec> full = enumerate_bridging(exp.synth.circuit.comb);

  inject_budget_exhaustion("bridging.pairs", 50);
  RunGuard guard(Budget{}, "bridging.pairs");
  BridgingEnumeration part =
      enumerate_bridging_guarded(exp.synth.circuit.comb, guard);
  EXPECT_FALSE(part.complete);
  ASSERT_LE(part.faults.size(), full.size());
  for (std::size_t i = 0; i < part.faults.size(); ++i)
    EXPECT_EQ(describe_fault(exp.synth.circuit.comb, part.faults[i]),
              describe_fault(exp.synth.circuit.comb, full[i]));

  inject_budget_exhaustion("bridging.pairs", 50);
  EXPECT_THROW(enumerate_bridging(exp.synth.circuit.comb), BudgetError);
}

TEST_F(RobustPipelineTest, ReachabilityNeverReturnsAPartialMatrix) {
  CircuitExperiment exp = run_circuit("lion");
  inject_budget_exhaustion("reach.forward", 3);
  RunGuard guard(Budget{}, "reach.forward");
  robust::Result<std::vector<BitVec>> r =
      forward_reachability_guarded(exp.synth.circuit.comb, guard);
  ASSERT_FALSE(r.is_ok());  // partial reachability would corrupt bridging
  EXPECT_EQ(r.status().code(), robust::Code::kBudgetExhausted);

  inject_budget_exhaustion("reach.forward", 3);
  EXPECT_THROW(forward_reachability(exp.synth.circuit.comb), BudgetError);
}

// --- Paper-level degradation: scan-out fallback keeps coverage -----------

class ScanOutFallbackTest : public RobustPipelineTest,
                            public ::testing::WithParamInterface<const char*> {
};

TEST_P(ScanOutFallbackTest, BudgetExhaustedUioStillCoversAllTransitions) {
  StateTable t = table(GetParam());

  GeneratorResult normal = generate_functional_tests(t);
  ASSERT_FALSE(normal.degraded);

  // A one-expansion budget aborts every UIO search immediately: all states
  // are treated UIO-less, so every test ends in a scan-out.
  GeneratorOptions starved;
  starved.budget.max_expansions = 1;
  GeneratorResult r = generate_functional_tests(t, starved);
  EXPECT_TRUE(r.degraded);
  EXPECT_EQ(r.uio_aborted_states(), t.num_states());
  r.tests.validate(t);

  // Every state-transition is still tested by exactly one test...
  for (std::size_t id = 0; id < r.tested_by.size(); ++id)
    EXPECT_GE(r.tested_by[id], 0) << "transition " << id << " untested";

  // ...and state-transition fault coverage stays at 100% (the paper's
  // Theorem 1 argument: scan-out observes the destination state directly).
  StCoverageResult cov = simulate_st_faults(t, r.tests, enumerate_st_faults(t));
  EXPECT_EQ(cov.detected, cov.total);
  EXPECT_DOUBLE_EQ(cov.percent(), 100.0);

  // The price of degradation is test length, not coverage: no chaining
  // means at least as many scan operations as the normal run.
  EXPECT_GE(r.tests.size(), normal.tests.size());
  EXPECT_EQ(r.tests.length_one_count(), r.tests.size());
}

INSTANTIATE_TEST_SUITE_P(Circuits, ScanOutFallbackTest,
                         ::testing::Values("lion", "dk27"));

TEST_F(RobustPipelineTest, BudgetReachesTestChaining) {
  // bbsse's UIO derivation fits in 30000 expansions; its transfer searches
  // need nearly three times that. The budget applies to each stage on its
  // own, so UIO completes and chaining is cut short.
  const CircuitExperiment exp = run_circuit("bbsse");
  const StateTable& t = exp.table;
  ASSERT_FALSE(exp.gen.degraded);

  GeneratorOptions options;
  options.budget.max_expansions = 30'000;
  const GeneratorResult r = generate_functional_tests(t, options);
  EXPECT_TRUE(r.uios.complete());
  EXPECT_EQ(r.uios.count(), exp.gen.uios.count());
  EXPECT_TRUE(r.degraded);
  EXPECT_GT(r.transfer_aborted_searches, 0u);
  EXPECT_EQ(r.degradation().rfind("test chaining (", 0), 0u) << r.degradation();
  r.tests.validate(t);

  // Every state-transition is still tested, and state-transition fault
  // coverage stays at 100%: a test whose transfer search was cut short
  // ends in a scan-out.
  for (std::size_t id = 0; id < r.tested_by.size(); ++id)
    EXPECT_GE(r.tested_by[id], 0) << "transition " << id << " untested";
  const StCoverageResult cov =
      simulate_st_faults(t, r.tests, enumerate_st_faults(t));
  EXPECT_EQ(cov.detected, cov.total);
  EXPECT_GT(r.tests.size(), exp.gen.tests.size());
}

// --- Structured-error boundaries -----------------------------------------

TEST_F(RobustPipelineTest, TryGenerateTreatsUioExhaustionAsDegradedSuccess) {
  StateTable t = table("lion");
  inject_budget_exhaustion("uio.search");
  robust::Result<GeneratorResult> r = try_generate_functional_tests(t);
  ASSERT_TRUE(r.is_ok());  // scan-out fallback keeps the result valid
  EXPECT_TRUE(r.value().degraded);
}

TEST_F(RobustPipelineTest, SuiteRecordsFailuresAndContinues) {
  SuiteResult suite = run_circuit_suite({"no-such-circuit", "lion"});
  ASSERT_EQ(suite.runs.size(), 2u);
  EXPECT_EQ(suite.failures(), 1u);
  EXPECT_EQ(suite.successes(), 1u);

  const CircuitRun& bad = suite.runs[0];
  EXPECT_FALSE(bad.status.is_ok());
  EXPECT_EQ(bad.failed_stage, "load");
  // The context chain names both the stage and the circuit.
  const std::string text = bad.status.to_string();
  EXPECT_NE(text.find("no-such-circuit"), std::string::npos);

  const CircuitRun& good = suite.runs[1];
  EXPECT_TRUE(good.status.is_ok());
  EXPECT_GT(good.exp.gen.tests.size(), 0u);
}

TEST_F(RobustPipelineTest, SuiteDemotesGateLevelBudgetFailure) {
  inject_budget_exhaustion("fault_sim.batch");
  SuiteOptions options;
  options.gate_level = true;
  SuiteResult suite = run_circuit_suite({"lion"}, options);
  ASSERT_EQ(suite.runs.size(), 1u);
  EXPECT_EQ(suite.failures(), 1u);
  EXPECT_EQ(suite.runs[0].failed_stage, "gate-level");
  EXPECT_EQ(suite.runs[0].status.code(), robust::Code::kBudgetExhausted);
}

TEST_F(RobustPipelineTest, GateLevelGuardCoversBridgingBeyondStuckAtPass) {
  // A budget that a stuck-at-only simulation of the file's tests fits in
  // exactly (what `fstg sim` once checked before an unbudgeted gate-level
  // run) must not carry the whole evaluation: the caller's guard reaches
  // the bridging faults too, so the run stops with BudgetError.
  CircuitExperiment exp = run_circuit("bbsse");
  const std::vector<FaultSpec> sa = enumerate_stuck_at(exp.synth.circuit.comb);
  std::uint64_t stuck_at_cost = 0;
  {
    RunGuard probe(Budget{}, "fault_sim.batch");
    ASSERT_TRUE(simulate_faults_guarded(exp.synth.circuit, exp.gen.tests, sa,
                                        probe)
                    .complete);
    stuck_at_cost = probe.expansions();
  }
  Budget budget;
  budget.max_expansions = stuck_at_cost;
  RunGuard guard(budget, "fault_sim.batch");
  GateLevelOptions options;
  options.classify_redundancy = false;
  options.guard = &guard;
  EXPECT_THROW(run_gate_level(exp, options), BudgetError);
  EXPECT_EQ(guard.trip(), BudgetTrip::kExpansions);
}

TEST_F(RobustPipelineTest, RedundancyClassificationTicksTheGateLevelGuard) {
  // lion's tests miss bridging faults, so classification runs the
  // exhaustive scan. A budget that fits the fault simulation exactly must
  // trip inside classification, not let it run unbudgeted.
  CircuitExperiment exp = run_circuit("lion");
  GateLevelOptions options;
  options.classify_redundancy = false;
  std::uint64_t sim_cost = 0;
  {
    RunGuard probe(Budget{}, "fault_sim.batch");
    options.guard = &probe;
    const GateLevelResult gate = run_gate_level(exp, options);
    ASSERT_LT(gate.br.sim.detected_faults, gate.br.sim.total_faults);
    sim_cost = probe.expansions();
  }
  Budget budget;
  budget.max_expansions = sim_cost;
  RunGuard guard(budget, "fault_sim.batch");
  options.guard = &guard;
  options.classify_redundancy = true;
  EXPECT_THROW(run_gate_level(exp, options), BudgetError);
  EXPECT_EQ(guard.trip(), BudgetTrip::kExpansions);
  EXPECT_GT(guard.expansions(), sim_cost);
}

TEST_F(RobustPipelineTest, StaticPreFlightTicksTheGateLevelGuard) {
  // The static pre-flight ticks the caller's guard once per fault. A
  // budget the stuck-at list fits in exactly trips on the first bridging
  // fault, inside the analysis, before a single fault is simulated.
  CircuitExperiment exp = run_circuit("bbsse");
  const std::size_t stuck_at =
      enumerate_stuck_at(exp.synth.circuit.comb).size();
  Budget budget;
  budget.max_expansions = stuck_at;
  RunGuard guard(budget, "fault_sim.batch");
  GateLevelOptions options;
  options.static_prune = true;
  options.guard = &guard;
  const obs::MetricsSnapshot before = obs::snapshot_metrics();
  EXPECT_THROW(run_gate_level(exp, options), BudgetError);
  const obs::MetricsSnapshot after = obs::snapshot_metrics();
  EXPECT_EQ(guard.trip(), BudgetTrip::kExpansions);
  EXPECT_EQ(guard.expansions(), stuck_at + 1);
  EXPECT_EQ(after.counter_value("fault_sim.faults_simulated"),
            before.counter_value("fault_sim.faults_simulated"));
}

// --- Site discovery (what the fuzz harness replays against) ---------------

TEST_F(RobustPipelineTest, PipelineRunDiscoversAllGuardSites) {
  clear_guard_site_log();
  CircuitExperiment exp = run_circuit("lion");
  run_gate_level(exp, false);
  std::vector<FaultSpec> faults = enumerate_stuck_at(exp.synth.circuit.comb);
  podem(exp.synth.circuit, faults.front());
  distinguishing_sequence(exp.table, 0, 1);

  const std::vector<std::string>& seen = guard_sites_seen();
  for (const char* site :
       {"uio.search", "transfer.bfs", "distinguishing.bfs", "podem.run",
        "fault_sim.batch", "bridging.pairs", "reach.forward"}) {
    EXPECT_NE(std::find(seen.begin(), seen.end(), site), seen.end())
        << "guard site " << site << " never constructed";
  }
}

}  // namespace
}  // namespace fstg
