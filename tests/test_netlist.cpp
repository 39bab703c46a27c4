#include "netlist/netlist.h"

#include <gtest/gtest.h>

#include "base/error.h"
#include "base/rng.h"
#include "kiss/benchmarks.h"
#include "netlist/synth.h"
#include "netlist/verify.h"

namespace fstg {
namespace {

// Builds a tiny full adder: sum = a ^ b ^ cin, carry = ab + cin(a ^ b).
struct FullAdder {
  Netlist nl;
  int a, b, cin, sum, carry;

  FullAdder() {
    a = nl.add_input("a");
    b = nl.add_input("b");
    cin = nl.add_input("cin");
    int ab = nl.add_gate(GateType::kXor, {a, b});
    sum = nl.add_gate(GateType::kXor, {ab, cin}, "sum");
    int and1 = nl.add_gate(GateType::kAnd, {a, b});
    int and2 = nl.add_gate(GateType::kAnd, {ab, cin});
    carry = nl.add_gate(GateType::kOr, {and1, and2}, "carry");
    nl.add_output(sum);
    nl.add_output(carry);
  }
};

TEST(Netlist, BuilderBasics) {
  FullAdder fa;
  EXPECT_EQ(fa.nl.num_gates(), 8);
  EXPECT_EQ(fa.nl.num_inputs(), 3);
  EXPECT_EQ(fa.nl.num_outputs(), 2);
  EXPECT_EQ(fa.nl.gate(fa.sum).name, "sum");
}

TEST(Netlist, EnforcesTopologicalOrder) {
  Netlist nl;
  int a = nl.add_input("a");
  EXPECT_THROW(nl.add_gate(GateType::kNot, {5}), Error);    // unknown id
  EXPECT_THROW(nl.add_gate(GateType::kNot, {a, a}), Error);  // arity
  EXPECT_THROW(nl.add_gate(GateType::kAnd, {}), Error);      // arity
  EXPECT_THROW(nl.add_gate(GateType::kConst0, {a}), Error);  // arity
  EXPECT_THROW(nl.add_output(99), Error);
}

TEST(Netlist, FullAdderTruthTable) {
  FullAdder fa;
  for (std::uint64_t in = 0; in < 8; ++in) {
    const int a = in & 1, b = (in >> 1) & 1, c = (in >> 2) & 1;
    const std::uint64_t out = fa.nl.evaluate_outputs(in);
    EXPECT_EQ(out & 1, static_cast<std::uint64_t>((a + b + c) & 1)) << in;
    EXPECT_EQ((out >> 1) & 1, static_cast<std::uint64_t>((a + b + c) >> 1))
        << in;
  }
}

TEST(Netlist, AllGateTypesEvaluate) {
  Netlist nl;
  int a = nl.add_input("a");
  int b = nl.add_input("b");
  int c0 = nl.add_gate(GateType::kConst0, {});
  int c1 = nl.add_gate(GateType::kConst1, {});
  int buf = nl.add_gate(GateType::kBuf, {a});
  int inv = nl.add_gate(GateType::kNot, {a});
  int and2 = nl.add_gate(GateType::kAnd, {a, b});
  int or2 = nl.add_gate(GateType::kOr, {a, b});
  int nand2 = nl.add_gate(GateType::kNand, {a, b});
  int nor2 = nl.add_gate(GateType::kNor, {a, b});
  int xor2 = nl.add_gate(GateType::kXor, {a, b});
  // Lane l carries a = bit 0 of l, b = bit 1 of l.
  std::vector<std::uint64_t> words;
  nl.evaluate(std::vector<std::uint64_t>{0b1010, 0b1100}, words);
  for (std::uint64_t in = 0; in < 4; ++in) {
    const bool va = in & 1, vb = in & 2;
    std::vector<bool> v;
    for (std::uint64_t w : words) v.push_back((w >> in) & 1u);
    EXPECT_FALSE(v[static_cast<std::size_t>(c0)]);
    EXPECT_TRUE(v[static_cast<std::size_t>(c1)]);
    EXPECT_EQ(v[static_cast<std::size_t>(buf)], va);
    EXPECT_EQ(v[static_cast<std::size_t>(inv)], !va);
    EXPECT_EQ(v[static_cast<std::size_t>(and2)], va && vb);
    EXPECT_EQ(v[static_cast<std::size_t>(or2)], va || vb);
    EXPECT_EQ(v[static_cast<std::size_t>(nand2)], !(va && vb));
    EXPECT_EQ(v[static_cast<std::size_t>(nor2)], !(va || vb));
    EXPECT_EQ(v[static_cast<std::size_t>(xor2)], va != vb);
  }
}

TEST(Netlist, FanoutsAndLevels) {
  FullAdder fa;
  std::vector<std::vector<int>> fo = fa.nl.fanouts();
  // a feeds the first XOR and the first AND.
  EXPECT_EQ(fo[static_cast<std::size_t>(fa.a)].size(), 2u);
  std::vector<int> levels = fa.nl.levels();
  EXPECT_EQ(levels[static_cast<std::size_t>(fa.a)], 0);
  EXPECT_EQ(levels[static_cast<std::size_t>(fa.carry)], 3);
  EXPECT_EQ(fa.nl.depth(), 3);
}

TEST(Netlist, TypeHistogram) {
  FullAdder fa;
  std::vector<int> h = fa.nl.type_histogram();
  EXPECT_EQ(h[static_cast<std::size_t>(GateType::kInput)], 3);
  EXPECT_EQ(h[static_cast<std::size_t>(GateType::kXor)], 2);
  EXPECT_EQ(h[static_cast<std::size_t>(GateType::kAnd)], 2);
  EXPECT_EQ(h[static_cast<std::size_t>(GateType::kOr)], 1);
}

TEST(ScanCircuit, StepSplitsInputsAndOutputs) {
  // 1 PI, 1 SV, 1 PO: po = x & y, next state = x | y.
  ScanCircuit c;
  int x = c.comb.add_input("x");
  int y = c.comb.add_input("y");
  c.comb.add_output(c.comb.add_gate(GateType::kAnd, {x, y}));
  c.comb.add_output(c.comb.add_gate(GateType::kOr, {x, y}));
  c.num_pi = 1;
  c.num_po = 1;
  c.num_sv = 1;
  std::uint32_t po = 9, ns = 9;
  c.step(/*state=*/1, /*pi=*/0, po, ns);
  EXPECT_EQ(po, 0u);
  EXPECT_EQ(ns, 1u);
  c.step(1, 1, po, ns);
  EXPECT_EQ(po, 1u);
  EXPECT_EQ(ns, 1u);
  c.step(0, 0, po, ns);
  EXPECT_EQ(po, 0u);
  EXPECT_EQ(ns, 0u);
}

/// One pattern, one bool per gate: the scalar reference the word
/// evaluator is checked against.
std::vector<bool> scalar_evaluate(const Netlist& nl, std::uint64_t bits) {
  std::vector<bool> v(static_cast<std::size_t>(nl.num_gates()));
  int next_input = 0;
  for (int id = 0; id < nl.num_gates(); ++id) {
    const Gate& g = nl.gate(id);
    bool and_all = true, or_any = false, parity = false;
    for (int f : g.fanins) {
      const bool x = v[static_cast<std::size_t>(f)];
      and_all = and_all && x;
      or_any = or_any || x;
      parity = parity != x;
    }
    bool out = false;
    switch (g.type) {
      case GateType::kInput: out = (bits >> next_input++) & 1u; break;
      case GateType::kConst0: out = false; break;
      case GateType::kConst1: out = true; break;
      case GateType::kBuf: out = and_all; break;
      case GateType::kNot: out = !and_all; break;
      case GateType::kAnd: out = and_all; break;
      case GateType::kNand: out = !and_all; break;
      case GateType::kOr: out = or_any; break;
      case GateType::kNor: out = !or_any; break;
      case GateType::kXor: out = parity; break;
      case GateType::kXnor: out = !parity; break;
    }
    v[static_cast<std::size_t>(id)] = out;
  }
  return v;
}

/// A random netlist over every gate type, with n-ary XOR/XNOR, repeated
/// fanins (XOR(a, a, b)) and constants feeding logic.
Netlist random_netlist(Rng& rng, int num_inputs, int num_gates) {
  Netlist nl;
  for (int i = 0; i < num_inputs; ++i) nl.add_input("i" + std::to_string(i));
  static constexpr GateType kTypes[] = {
      GateType::kConst0, GateType::kConst1, GateType::kBuf,  GateType::kNot,
      GateType::kAnd,    GateType::kOr,     GateType::kNand, GateType::kNor,
      GateType::kXor,    GateType::kXnor};
  for (int k = 0; k < num_gates; ++k) {
    const GateType type = kTypes[rng.below(std::size(kTypes))];
    std::size_t arity = 0;
    if (type == GateType::kBuf || type == GateType::kNot)
      arity = 1;
    else if (type == GateType::kXor || type == GateType::kXnor)
      arity = rng.range(2, 5);
    else if (type != GateType::kConst0 && type != GateType::kConst1)
      arity = rng.range(1, 4);
    std::vector<int> fanins;
    for (std::size_t f = 0; f < arity; ++f)
      fanins.push_back(f > 0 && rng.chance(1, 4)
                           ? fanins[rng.below(fanins.size())]
                           : static_cast<int>(rng.below(nl.num_gates())));
    nl.add_gate(type, std::move(fanins));
  }
  for (int g = nl.num_gates() - 1; g >= num_inputs && g >= nl.num_gates() - 8;
       --g)
    nl.add_output(g);
  return nl;
}

TEST(Netlist, WordEvaluatorMatchesScalarReference) {
  Rng rng(20);
  for (int trial = 0; trial < 60; ++trial) {
    const int num_inputs = static_cast<int>(rng.range(1, 10));
    const Netlist nl =
        random_netlist(rng, num_inputs, static_cast<int>(rng.range(1, 60)));
    std::vector<std::uint64_t> in(static_cast<std::size_t>(num_inputs));
    for (std::uint64_t& w : in) w = rng.next();
    std::vector<std::uint64_t> words;
    nl.evaluate(in, words);
    ASSERT_EQ(words.size(), static_cast<std::size_t>(nl.num_gates()));
    for (int lane = 0; lane < 64; ++lane) {
      std::uint64_t bits = 0;
      for (int i = 0; i < num_inputs; ++i)
        bits |= ((in[static_cast<std::size_t>(i)] >> lane) & 1u) << i;
      const std::vector<bool> ref = scalar_evaluate(nl, bits);
      std::uint64_t ref_out = 0;
      for (int k = 0; k < nl.num_outputs(); ++k)
        ref_out |= std::uint64_t{
                       ref[static_cast<std::size_t>(nl.outputs()[k])]} << k;
      for (int g = 0; g < nl.num_gates(); ++g)
        ASSERT_EQ((words[static_cast<std::size_t>(g)] >> lane) & 1u,
                  ref[static_cast<std::size_t>(g)] ? 1u : 0u)
            << "trial " << trial << " gate " << g << " ("
            << gate_type_name(nl.gate(g).type) << ") lane " << lane;
      ASSERT_EQ(nl.evaluate_outputs(bits), ref_out)
          << "trial " << trial << " lane " << lane;
    }
  }
}

TEST(ReadBack, MatchesScalarTableOnBuiltInCircuits) {
  // Every built-in circuit with at most 2^12 minterms; lion has 16 (one
  // partial pass), so lane masking is covered as well as full passes.
  int checked = 0;
  for (const std::string& name : benchmark_names()) {
    const SynthesisResult r = synthesize_scan_circuit(load_benchmark(name));
    const ScanCircuit& c = r.circuit;
    if (c.comb_inputs() > 12) continue;
    const StateTable table = read_back_table(c);
    ASSERT_EQ(table.num_states(), 1 << c.num_sv);
    for (std::uint64_t m = 0; m < (std::uint64_t{1} << c.comb_inputs()); ++m) {
      const std::vector<bool> v = scalar_evaluate(c.comb, m);
      std::uint64_t out = 0;
      for (int k = 0; k < c.comb.num_outputs(); ++k)
        out |= std::uint64_t{v[static_cast<std::size_t>(c.comb.outputs()[k])]}
               << k;
      const int code = static_cast<int>(m >> c.num_pi);
      const auto ic = static_cast<std::uint32_t>(m & ((1u << c.num_pi) - 1));
      ASSERT_EQ(table.next(code, ic), static_cast<int>(out >> c.num_po))
          << name << " minterm " << m;
      ASSERT_EQ(table.output(code, ic), out & ((1u << c.num_po) - 1))
          << name << " minterm " << m;
    }
    ++checked;
  }
  EXPECT_GE(checked, 20);
}

TEST(GateTypeName, CoversAll) {
  EXPECT_STREQ(gate_type_name(GateType::kAnd), "AND");
  EXPECT_STREQ(gate_type_name(GateType::kInput), "INPUT");
  EXPECT_STREQ(gate_type_name(GateType::kXor), "XOR");
}

}  // namespace
}  // namespace fstg
