// Static implication engine lane (src/analysis): direct and indirect
// implications, constant proofs, static learning, joint two-literal
// closure, output dominators, fault verdicts, equivalence collapsing, and
// verdict-vs-exhaustive soundness on real benchmarks. Every untestability
// verdict asserted here is a *proof*, so each positive case is paired with
// a neighboring fault the analyzer must leave kUnknown.

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "analysis/implication.h"
#include "analysis/static_faults.h"
#include "fault/bridging.h"
#include "fault/fault.h"
#include "fault/redundancy.h"
#include "harness/experiment.h"
#include "kiss/benchmarks.h"
#include "netlist/cones.h"
#include "netlist/netlist.h"
#include "netlist/synth.h"

namespace fstg {
namespace {

using analysis::FaultVerdict;
using analysis::ImplicationEngine;
using analysis::Implications;
using analysis::StaticAnalyzer;

/// a, b inputs; XOR(a, a); XNOR(b, b); AND(a, NOT a): three gates whose
/// outputs are decided by structure alone, no Const gate in sight.
TEST(ImplicationEngine, ProvesStructuralConstants) {
  Netlist nl;
  const int a = nl.add_input("a");
  const int b = nl.add_input("b");
  const int xor_aa = nl.add_gate(GateType::kXor, {a, a});
  const int xnor_bb = nl.add_gate(GateType::kXnor, {b, b});
  const int not_a = nl.add_gate(GateType::kNot, {a});
  const int and_contra = nl.add_gate(GateType::kAnd, {a, not_a});
  nl.add_output(xor_aa);
  nl.add_output(xnor_bb);
  nl.add_output(and_contra);

  const ImplicationEngine eng(nl);
  EXPECT_EQ(eng.constant(xor_aa), 0);
  EXPECT_EQ(eng.constant(xnor_bb), 1);
  EXPECT_EQ(eng.constant(and_contra), 0);
  EXPECT_EQ(eng.constant(a), -1);
  EXPECT_EQ(eng.constant(not_a), -1);
  EXPECT_EQ(eng.num_constants(), 3u);
}

TEST(ImplicationEngine, FoldsConstGatesForward) {
  Netlist nl;
  const int a = nl.add_input("a");
  const int c1 = nl.add_gate(GateType::kConst1, {});
  const int and_ac = nl.add_gate(GateType::kAnd, {a, c1});  // == a
  const int or_ac = nl.add_gate(GateType::kOr, {a, c1});    // == 1
  nl.add_output(and_ac);
  nl.add_output(or_ac);

  const ImplicationEngine eng(nl);
  EXPECT_EQ(eng.constant(c1), 1);
  EXPECT_EQ(eng.constant(or_ac), 1);
  EXPECT_EQ(eng.constant(and_ac), -1);  // still tracks a
}

TEST(ImplicationEngine, DirectForwardAndBackwardImplications) {
  Netlist nl;
  const int a = nl.add_input("a");
  const int b = nl.add_input("b");
  const int g = nl.add_gate(GateType::kAnd, {a, b});
  nl.add_output(g);

  const ImplicationEngine eng(nl);
  // Backward justification: output 1 forces both fanins.
  EXPECT_TRUE(eng.implies(g, true, a, true));
  EXPECT_TRUE(eng.implies(g, true, b, true));
  // Forward: a controlling 0 forces the output.
  EXPECT_TRUE(eng.implies(a, false, g, false));
  // Contrapositive of the forward edge.
  EXPECT_TRUE(eng.implies(g, true, a, true));
  // Not implied: a = 1 alone decides nothing about the AND.
  EXPECT_FALSE(eng.implies(a, true, g, true));
  EXPECT_FALSE(eng.implies(a, true, g, false));
}

/// Reconvergent OR(AND(a,b), AND(a,c)): out = 1 implies a = 1 in every
/// satisfying assignment, but neither OR branch alone forces it — only the
/// learned contrapositive (a=0 → out=0, recorded as out=1 → a=1) sees it.
TEST(ImplicationEngine, LearnsIndirectImplicationAcrossReconvergence) {
  Netlist nl;
  const int a = nl.add_input("a");
  const int b = nl.add_input("b");
  const int c = nl.add_input("c");
  const int ab = nl.add_gate(GateType::kAnd, {a, b});
  const int ac = nl.add_gate(GateType::kAnd, {a, c});
  const int out = nl.add_gate(GateType::kOr, {ab, ac});
  nl.add_output(out);

  const ImplicationEngine eng(nl);
  EXPECT_TRUE(eng.learning_ran());
  EXPECT_TRUE(eng.implies(out, true, a, true));
  EXPECT_FALSE(eng.implies(out, true, b, true));  // b xor c path is open
  EXPECT_GT(eng.num_learned(), 0u);
}

TEST(ImplicationEngine, ConflictMeansConstantAtOppositeValue) {
  Netlist nl;
  const int a = nl.add_input("a");
  const int not_a = nl.add_gate(GateType::kNot, {a});
  const int g = nl.add_gate(GateType::kAnd, {a, not_a});
  nl.add_output(g);

  const ImplicationEngine eng(nl);
  const Implications on = eng.implications(g, true);
  EXPECT_TRUE(on.conflict);
  const Implications off = eng.implications(g, false);
  EXPECT_FALSE(off.conflict);
}

TEST(ImplicationEngine, JointClosureDetectsPairwiseConflict) {
  Netlist nl;
  const int a = nl.add_input("a");
  const int b = nl.add_input("b");
  const int not_a = nl.add_gate(GateType::kNot, {a});
  const int g = nl.add_gate(GateType::kAnd, {a, b});
  nl.add_output(not_a);
  nl.add_output(g);

  const ImplicationEngine eng(nl);
  // Individually satisfiable, jointly impossible: g = 1 forces a = 1.
  EXPECT_FALSE(eng.implications(g, true).conflict);
  EXPECT_FALSE(eng.implications(not_a, true).conflict);
  const Implications joint = eng.implications(g, true, not_a, true);
  EXPECT_TRUE(joint.conflict);
  // A compatible pair: the closure carries both assumptions' consequences.
  const Implications ok = eng.implications(g, true, not_a, false);
  ASSERT_FALSE(ok.conflict);
  EXPECT_EQ(ok.value_of(a), 1);
  EXPECT_EQ(ok.value_of(b), 1);
}

TEST(OutputDominators, ChainAndDiamondAndDeadGate) {
  Netlist nl;
  const int a = nl.add_input("a");
  const int b = nl.add_input("b");
  const int n1 = nl.add_gate(GateType::kNot, {a});
  const int n2 = nl.add_gate(GateType::kAnd, {n1, b});
  const int n3 = nl.add_gate(GateType::kNot, {n2});
  const int dead = nl.add_gate(GateType::kNot, {b});  // feeds no output
  nl.add_output(n3);

  const std::vector<int> dom = output_dominators(nl);
  // Single-path chain: each gate's dominator is its sole fanout.
  EXPECT_EQ(dom[static_cast<std::size_t>(n1)], n2);
  EXPECT_EQ(dom[static_cast<std::size_t>(n2)], n3);
  // A gate driving a primary output dominates up to the virtual sink.
  EXPECT_EQ(dom[static_cast<std::size_t>(n3)], kDominatorSink);
  EXPECT_EQ(dom[static_cast<std::size_t>(dead)], kDominatorDead);

  // Diamond: the reconvergence gate dominates the stem.
  Netlist d;
  const int x = d.add_input("x");
  const int p = d.add_gate(GateType::kNot, {x});
  const int q = d.add_gate(GateType::kBuf, {x});
  const int m = d.add_gate(GateType::kAnd, {p, q});
  d.add_output(m);
  const std::vector<int> dd = output_dominators(d);
  EXPECT_EQ(dd[static_cast<std::size_t>(x)], m);
}

/// The hand-built case from tests/difftest_corpus: stuck-at-0 on a
/// constant-0 net is unexcitable, its companions stay unknown.
TEST(StaticAnalyzer, UnexcitableOnConstantNet) {
  Netlist nl;
  const int a = nl.add_input("a");
  const int s = nl.add_input("s0");
  const int not_a = nl.add_gate(GateType::kNot, {a});
  const int konst = nl.add_gate(GateType::kAnd, {a, not_a});
  const int out = nl.add_gate(GateType::kOr, {s, konst});
  nl.add_output(out);

  const StaticAnalyzer an(nl);
  EXPECT_EQ(an.classify(FaultSpec::stuck_gate(konst, false)),
            FaultVerdict::kUnexcitable);
  EXPECT_EQ(an.classify(FaultSpec::stuck_gate(konst, true)),
            FaultVerdict::kUnknown);
  EXPECT_EQ(an.classify(FaultSpec::stuck_gate(out, true)),
            FaultVerdict::kUnknown);
}

/// Dominator side-input blocking: exciting SG(and_as, 0) forces a = 1,
/// which holds the dominator's other input NOT a at the AND's controlling
/// 0 — no propagation path survives.
TEST(StaticAnalyzer, UnpropagatableThroughBlockedDominator) {
  Netlist nl;
  const int a = nl.add_input("a");
  const int s = nl.add_input("s0");
  const int not_a = nl.add_gate(GateType::kNot, {a});
  const int and_as = nl.add_gate(GateType::kAnd, {a, s});
  const int blocked = nl.add_gate(GateType::kAnd, {and_as, not_a});
  const int pass = nl.add_gate(GateType::kBuf, {s});
  nl.add_output(blocked);
  nl.add_output(pass);

  const StaticAnalyzer an(nl);
  EXPECT_EQ(an.classify(FaultSpec::stuck_gate(and_as, false)),
            FaultVerdict::kUnpropagatable);
  // Exciting s-a-1 (and_as = 0) implies nothing about NOT a: unknown.
  EXPECT_EQ(an.classify(FaultSpec::stuck_gate(and_as, true)),
            FaultVerdict::kUnknown);
  // The bridge dies at `blocked` in both directions (each line's flip is
  // gated by the other line's controlling 0 on the side input).
  EXPECT_EQ(an.classify(FaultSpec::bridge_and(and_as, not_a)),
            FaultVerdict::kUnpropagatable);
}

TEST(StaticAnalyzer, UnobservableGateIsUnpropagatable) {
  Netlist nl;
  const int a = nl.add_input("a");
  const int dead = nl.add_gate(GateType::kNot, {a});
  const int out = nl.add_gate(GateType::kBuf, {a});
  nl.add_output(out);

  const StaticAnalyzer an(nl);
  EXPECT_FALSE(an.observable(dead));
  EXPECT_TRUE(an.observable(out));
  EXPECT_EQ(an.classify(FaultSpec::stuck_gate(dead, true)),
            FaultVerdict::kUnpropagatable);
}

/// Single-fanout chain BUF/NOT collapsing: every stem fault on the chain
/// lands in one class with the chain head's faults, polarity-corrected
/// through the inverter.
TEST(StaticAnalyzer, EquivalenceCollapsesSingleFanoutChains) {
  Netlist nl;
  const int a = nl.add_input("a");
  const int b = nl.add_input("b");
  const int g = nl.add_gate(GateType::kAnd, {a, b});
  const int buf = nl.add_gate(GateType::kBuf, {g});
  const int inv = nl.add_gate(GateType::kNot, {buf});
  nl.add_output(inv);

  const StaticAnalyzer an(nl);
  const std::vector<FaultSpec> faults = {
      FaultSpec::stuck_gate(g, false),    // 0
      FaultSpec::stuck_gate(buf, false),  // 1: same class as 0
      FaultSpec::stuck_gate(inv, true),   // 2: inverted polarity, same class
      FaultSpec::stuck_gate(g, true),     // 3: the opposite class
  };
  const analysis::FaultAnalysis fa = an.analyze(faults);
  EXPECT_EQ(fa.equiv_rep[1], 0u);
  EXPECT_EQ(fa.equiv_rep[2], 0u);
  EXPECT_EQ(fa.equiv_rep[3], 3u);
  EXPECT_EQ(fa.equiv_merged, 2u);
  EXPECT_EQ(fa.equiv_classes, 2u);
}

TEST(StaticAnalyzer, AnalyzeCountsMatchVerdicts) {
  Netlist nl;
  const int a = nl.add_input("a");
  const int not_a = nl.add_gate(GateType::kNot, {a});
  const int konst = nl.add_gate(GateType::kAnd, {a, not_a});
  const int dead = nl.add_gate(GateType::kNot, {a});  // no output path
  const int out = nl.add_gate(GateType::kOr, {a, konst});
  nl.add_output(out);

  const StaticAnalyzer an(nl);
  const std::vector<FaultSpec> faults = {
      FaultSpec::stuck_gate(konst, false),  // unexcitable
      FaultSpec::stuck_gate(dead, true),    // unpropagatable
      FaultSpec::stuck_gate(out, false),    // unknown
  };
  const analysis::FaultAnalysis fa = an.analyze(faults);
  EXPECT_EQ(fa.unexcitable, 1u);
  EXPECT_EQ(fa.unpropagatable, 1u);
  EXPECT_EQ(fa.untestable(), 2u);
  EXPECT_EQ(fa.verdict[2], FaultVerdict::kUnknown);
}

/// Soundness on real synthesized circuits: no fault the analyzer proves
/// untestable may be exhaustively detectable, checked over the full
/// collapsed stuck-at + bridging universes of a few small benchmarks. lion
/// carries a statically provable redundant bridge, so the positive side
/// (the engine proves a nonzero count somewhere) is pinned too.
TEST(StaticAnalyzer, VerdictsSoundVersusExhaustiveEngine) {
  std::size_t proven_total = 0;
  for (const char* name : {"lion", "dk15", "mc"}) {
    const CircuitExperiment exp = run_circuit(name);
    const ScanCircuit& circuit = exp.synth.circuit;
    std::vector<FaultSpec> faults = enumerate_stuck_at(circuit.comb);
    const std::vector<FaultSpec> bridges = enumerate_bridging(circuit.comb);
    faults.insert(faults.end(), bridges.begin(), bridges.end());

    const StaticAnalyzer an(circuit.comb);
    const analysis::FaultAnalysis fa = an.analyze(faults);
    proven_total += fa.untestable();

    const RedundancyResult exhaustive = classify_faults_from(
        circuit, faults, std::vector<int>(faults.size(), -1));
    for (std::size_t f = 0; f < faults.size(); ++f) {
      if (fa.verdict[f] == FaultVerdict::kUnknown) continue;
      EXPECT_EQ(exhaustive.status[f], FaultStatus::kUndetectable)
          << name << ": " << describe_fault(circuit.comb, faults[f])
          << " statically " << analysis::fault_verdict_name(fa.verdict[f])
          << " but exhaustively detectable";
    }
  }
  EXPECT_GT(proven_total, 0u);
}

/// analyze() shares closures across consecutive faults on one line and
/// builds each bridge's joint closures by extending g1's closure; classify()
/// computes every closure afresh. Both must give every fault the same
/// verdict. The first 4096 bridging faults keep whole runs sharing a first
/// line. Learned-edge and constant counts are pinned: the order in which
/// the engine's queue deduces gates must not change what learning derives.
TEST(StaticAnalyzer, BatchedVerdictsEqualSingleFaultVerdicts) {
  struct Pinned {
    const char* name;
    std::size_t learned;
    std::size_t constants;
  };
  for (const Pinned& pin : {Pinned{"bbsse", 29715, 1},
                            Pinned{"keyb", 29448, 1},
                            Pinned{"dvram", 197687, 1},
                            Pinned{"rie", 156520, 2}}) {
    const SynthesisResult synth =
        synthesize_scan_circuit(load_benchmark(pin.name));
    const Netlist& nl = synth.circuit.comb;
    std::vector<FaultSpec> faults = enumerate_stuck_at(nl);
    const std::vector<FaultSpec> bridges = enumerate_bridging(nl);
    faults.insert(faults.end(), bridges.begin(),
                  bridges.begin() + static_cast<std::ptrdiff_t>(
                                        std::min<std::size_t>(
                                            bridges.size(), 4096)));

    const StaticAnalyzer an(nl);
    EXPECT_EQ(an.engine().num_learned(), pin.learned) << pin.name;
    EXPECT_EQ(an.engine().num_constants(), pin.constants) << pin.name;
    const analysis::FaultAnalysis fa = an.analyze(faults);
    ASSERT_TRUE(fa.complete);
    std::size_t mismatches = 0;
    for (std::size_t f = 0; f < faults.size(); ++f) {
      const FaultVerdict single = an.classify(faults[f]);
      if (fa.verdict[f] == single) continue;
      if (++mismatches <= 5)
        ADD_FAILURE() << pin.name << ": "
                      << describe_fault(nl, faults[f]) << " batched "
                      << analysis::fault_verdict_name(fa.verdict[f])
                      << " but alone "
                      << analysis::fault_verdict_name(single);
    }
    EXPECT_EQ(mismatches, 0u) << pin.name;
  }
}

/// extend() of a single-literal closure is the two-literal closure.
TEST(ImplicationEngine, ExtendEqualsJointClosure) {
  const SynthesisResult synth = synthesize_scan_circuit(load_benchmark("mc"));
  const Netlist& nl = synth.circuit.comb;
  const ImplicationEngine eng(nl);
  for (int g1 = 0; g1 < nl.num_gates(); ++g1) {
    for (int v1 = 0; v1 < 2; ++v1) {
      const Implications one = eng.implications(g1, v1 == 1);
      for (int g2 = 0; g2 < nl.num_gates(); ++g2) {
        const Implications joint = eng.implications(g1, v1 == 1, g2, v1 == 0);
        const Implications ext = eng.extend(one, g2, v1 == 0);
        ASSERT_EQ(ext.conflict, joint.conflict) << g1 << "," << g2;
        ASSERT_EQ(ext.value, joint.value) << g1 << "," << g2;
      }
    }
  }
}

TEST(StaticAnalyzer, VerdictNamesAreStable) {
  EXPECT_STREQ(analysis::fault_verdict_name(FaultVerdict::kUnknown),
               "unknown");
  EXPECT_STREQ(analysis::fault_verdict_name(FaultVerdict::kUnexcitable),
               "unexcitable");
  EXPECT_STREQ(analysis::fault_verdict_name(FaultVerdict::kUnpropagatable),
               "unpropagatable");
}

}  // namespace
}  // namespace fstg
