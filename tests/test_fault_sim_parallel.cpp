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
#include "difftest/workload.h"
#include "fault/bridging.h"
#include "fault/compaction.h"
#include "fault/fault.h"
#include "fault/fault_sim_width.h"
#include "fault/sim_width.h"
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

/// A random batch: lane 0 runs `long_len` vectors, every other lane
/// 0..short_max (zero-length tests included), or `long_len` too when
/// `short_max` is kUniform. With `with_x`, some lanes carry X inputs on
/// some cycles.
constexpr std::size_t kUniform = ~std::size_t{0};
std::vector<ScanPattern> random_batch(const ScanCircuit& circuit,
                                      std::size_t lanes, std::size_t long_len,
                                      std::size_t short_max, bool with_x,
                                      Rng& rng) {
  std::vector<ScanPattern> batch(lanes);
  for (std::size_t l = 0; l < lanes; ++l) {
    ScanPattern& p = batch[l];
    p.init_state = static_cast<std::uint32_t>(
        rng.below(std::uint64_t{1} << circuit.num_sv));
    const std::size_t len = l == 0 || short_max == kUniform
                                ? long_len
                                : rng.range(0, short_max);
    for (std::size_t c = 0; c < len; ++c) {
      p.inputs.push_back(static_cast<std::uint32_t>(
          rng.below(std::uint64_t{1} << circuit.num_pi)));
      p.input_x.push_back(with_x && l % 7 == 3 && c % 23 == 5 ? 1u : 0u);
    }
  }
  return batch;
}

/// The excitation index as GoodTraceT stores it, width-free.
struct IndexBits {
  std::vector<std::uint64_t> any1, any0, obs1, obs0, pin_obs1, pin_obs0, x;
};

/// Reference for build_excitation_index: the live-masked per-cycle sweep.
/// One backward FFR-sensitivity pass per (cycle, 64-lane word), with the
/// cycle's active lanes as every head's sensitivity and pin sensitivity
/// recomputed from scratch per pin. X cycles set only their exc_x bit.
IndexBits per_cycle_reference(const Netlist& nl,
                              const detail::ExcitationIndexProbe& p) {
  const std::size_t n = static_cast<std::size_t>(nl.num_gates());
  const std::size_t rows = p.gate_values.size();
  const std::size_t W = (rows + 63) / 64;
  const std::size_t lw = static_cast<std::size_t>(p.lane_words);
  std::vector<std::size_t> pin_base(n + 1, 0);
  std::vector<int> fanout_entries(n, 0);
  for (std::size_t g = 0; g < n; ++g) {
    const std::vector<int>& fan = nl.gate(static_cast<int>(g)).fanins;
    pin_base[g + 1] = pin_base[g] + fan.size();
    for (int f : fan) ++fanout_entries[static_cast<std::size_t>(f)];
  }
  std::vector<bool> is_head(n);
  for (std::size_t g = 0; g < n; ++g) is_head[g] = fanout_entries[g] != 1;
  for (int out : nl.outputs()) is_head[static_cast<std::size_t>(out)] = true;

  IndexBits r;
  for (auto* v : {&r.any1, &r.any0, &r.obs1, &r.obs0}) v->assign(n * W, 0);
  r.pin_obs1.assign(pin_base[n] * W, 0);
  r.pin_obs0.assign(pin_base[n] * W, 0);
  r.x.assign(W, 0);
  std::vector<std::uint64_t> S(n, 0);
  for (std::size_t c = 0; c < rows; ++c) {
    const std::size_t w = c / 64;
    const std::uint64_t bit = std::uint64_t{1} << (c % 64);
    if (p.cycle_x[c] != 0) {
      r.x[w] |= bit;
      continue;
    }
    for (std::size_t i = 0; i < lw; ++i) {
      const std::uint64_t act = p.active[c * lw + i];
      const auto val = [&](std::size_t g) {
        return p.gate_values[c][g * lw + i];
      };
      for (std::size_t g = n; g-- > 0;) {
        const Gate& gate = nl.gate(static_cast<int>(g));
        const std::uint64_t sg = is_head[g] ? act : S[g];
        const std::uint64_t v = val(g);
        if ((v & act) != 0) r.any1[g * W + w] |= bit;
        if ((~v & act) != 0) r.any0[g * W + w] |= bit;
        if ((v & sg) != 0) r.obs1[g * W + w] |= bit;
        if ((~v & sg) != 0) r.obs0[g * W + w] |= bit;
        for (std::size_t q = 0; q < gate.fanins.size(); ++q) {
          std::uint64_t reach = sg;
          for (std::size_t o = 0; o < gate.fanins.size(); ++o) {
            if (o == q) continue;
            const std::uint64_t other =
                val(static_cast<std::size_t>(gate.fanins[o]));
            if (gate.type == GateType::kAnd || gate.type == GateType::kNand)
              reach &= other;
            if (gate.type == GateType::kOr || gate.type == GateType::kNor)
              reach &= ~other;
          }
          const std::size_t f = static_cast<std::size_t>(gate.fanins[q]);
          const std::size_t e = pin_base[g] + q;
          if ((val(f) & reach) != 0) r.pin_obs1[e * W + w] |= bit;
          if ((~val(f) & reach) != 0) r.pin_obs0[e * W + w] |= bit;
          if (!is_head[f]) S[f] = reach;
        }
      }
    }
  }
  return r;
}

/// Build the batch's index at `bits` lanes on 1 and 4 threads and check
/// each against the per-cycle reference.
void expect_index_matches_reference(const ScanCircuit& circuit, int bits,
                                    const std::vector<ScanPattern>& batch,
                                    std::size_t rows) {
  for (int threads : {1, 4}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    const detail::ExcitationIndexProbe probe =
        detail::probe_excitation_index(bits, circuit, batch, threads);
    ASSERT_EQ(probe.lane_words, bits / 64);
    ASSERT_EQ(probe.gate_values.size(), rows);
    const IndexBits ref = per_cycle_reference(circuit.comb, probe);
    EXPECT_EQ(probe.any1, ref.any1);
    EXPECT_EQ(probe.any0, ref.any0);
    EXPECT_EQ(probe.obs1, ref.obs1);
    EXPECT_EQ(probe.obs0, ref.obs0);
    EXPECT_EQ(probe.pin_obs1, ref.pin_obs1);
    EXPECT_EQ(probe.pin_obs0, ref.pin_obs0);
    EXPECT_EQ(probe.x, ref.x);
    std::size_t obs_bits = 0;
    for (std::uint64_t word : probe.obs1) obs_bits += std::popcount(word);
    EXPECT_GT(obs_bits, 0u);  // the comparison is not vacuous
  }
}

TEST(ExcitationIndex, LaneMajorMatchesPerCycleReference) {
  // build_excitation_index sweeps each 64-cycle block lane-major (one word
  // of cycles per live lane, transposed or extracted) or cycle-major,
  // whichever takes fewer words; the reference sweeps cycle by cycle. Both
  // must give the same bits on random netlists and built-ins, ragged
  // (lane-major) and uniform (cycle-major) batches, with and without X, at
  // every supported lane width and thread count.
  std::vector<ScanCircuit> circuits;
  for (std::uint64_t seed : {3u, 11u})
    circuits.push_back(difftest::generate_workload(seed).circuit);
  circuits.push_back(run_circuit("bbsse").synth.circuit);
  circuits.push_back(run_circuit("dk16").synth.circuit);
  std::vector<int> widths = {64};
  if (max_supported_lane_bits() >= 256) widths.push_back(256);
  if (max_supported_lane_bits() >= 512) widths.push_back(512);
  struct Shape {
    const char* name;
    std::size_t rows;
    std::size_t short_max;
  };
  const Shape shapes[] = {{"ragged", 150, 90}, {"uniform", 70, kUniform}};
  Rng rng(29);
  for (const ScanCircuit& circuit : circuits) {
    for (int bits : widths) {
      for (const Shape& shape : shapes) {
        for (bool with_x : {false, true}) {
          SCOPED_TRACE(circuit.name + " lanes=" + std::to_string(bits) + " " +
                       shape.name + (with_x ? " X-bearing" : " two-valued"));
          const std::vector<ScanPattern> batch =
              random_batch(circuit, static_cast<std::size_t>(bits) - 5,
                           shape.rows, shape.short_max, with_x, rng);
          expect_index_matches_reference(circuit, bits, batch, shape.rows);
        }
      }
    }
  }
}

TEST(FaultSimParallel, CandidateJumpingPassesEndedDirtyLanes) {
  // One long test plus short ones. A fault that diverges a short lane's
  // state leaves that lane dirty after its test ends; run_faulty must keep
  // jumping between the long lane's candidate cycles rather than visit
  // every remaining cycle. Lane 0 evolves the same with or without the
  // short lanes, so the mixed batch may visit at most the cycles the long
  // test visits alone plus one per short-lane cycle, and its detection
  // word must equal the full-cone evaluation's.
  CircuitExperiment exp = run_circuit("bbsse");
  const ScanCircuit& circuit = exp.synth.circuit;
  std::vector<FaultSpec> faults = enumerate_stuck_at(circuit.comb);
  const std::vector<FaultSpec> bridges = enumerate_bridging(circuit.comb);
  faults.insert(faults.end(), bridges.begin(),
                bridges.begin() +
                    static_cast<std::ptrdiff_t>(
                        std::min<std::size_t>(bridges.size(), 200)));
  const std::vector<std::vector<int>> cones =
      compute_fault_cones(circuit.comb, faults);
  Rng rng(41);
  const std::vector<ScanPattern> batch =
      random_batch(circuit, 64, 1500, 40, false, rng);
  std::size_t short_cycles = 0;
  for (std::size_t l = 1; l < batch.size(); ++l)
    short_cycles += batch[l].inputs.size();
  const std::vector<ScanPattern> alone(batch.begin(), batch.begin() + 1);

  ScanBatchSim sim(circuit);
  GoodTrace good = sim.run_good(batch);
  GoodTrace good_alone = sim.run_good(alone);
  sim.build_excitation_index(good, 1);
  sim.build_excitation_index(good_alone, 1);
  const auto visited = [&sim] {
    return sim.stats().cycles_full + sim.stats().cycles_overlay;
  };
  std::size_t ended_dirty = 0;
  for (std::size_t f = 0; f < faults.size(); ++f) {
    SCOPED_TRACE("fault " + std::to_string(f));
    const std::uint64_t v0 = visited();
    const std::uint64_t d0 = sim.stats().dirty_activations;
    const Word det = sim.run_faulty(batch, good, faults[f], &cones[f]);
    const std::uint64_t mixed = visited() - v0;
    const std::uint64_t mixed_dirty = sim.stats().dirty_activations - d0;
    EXPECT_EQ(det, sim.run_faulty(batch, good, faults[f], &cones[f],
                                  FaultyEval::kFullCone));
    const std::uint64_t v1 = visited();
    const std::uint64_t d1 = sim.stats().dirty_activations;
    sim.run_faulty(alone, good_alone, faults[f], &cones[f]);
    const std::uint64_t solo = visited() - v1;
    const std::uint64_t solo_dirty = sim.stats().dirty_activations - d1;
    EXPECT_LE(mixed, solo + short_cycles);
    // A short lane diverged while lane 0 kept running undetected.
    if ((det & 1u) == 0 && mixed_dirty > solo_dirty) ++ended_dirty;
  }
  EXPECT_GT(ended_dirty, 0u);
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
