#include "netlist/synth.h"

#include <gtest/gtest.h>

#include "base/error.h"
#include "fsm/state_table.h"
#include "kiss/benchmarks.h"
#include "kiss/kiss2_parser.h"
#include "netlist/verify.h"

namespace fstg {
namespace {

TEST(Synth, LionMatchesItsStateTable) {
  Kiss2Fsm lion = load_benchmark("lion");
  SynthesisResult r = synthesize_scan_circuit(lion);
  EXPECT_EQ(r.circuit.num_pi, 2);
  EXPECT_EQ(r.circuit.num_po, 1);
  EXPECT_EQ(r.circuit.num_sv, 2);
  EXPECT_TRUE(circuit_matches_fsm(r.circuit, lion, r.encoding));
  // lion is completely specified with all codes used: the read-back table
  // must equal the direct expansion.
  StateTable direct = expand_fsm(lion, FillPolicy::kError);
  StateTable read_back = read_back_table(r.circuit, &lion, &r.encoding);
  EXPECT_TRUE(direct == read_back);
}

TEST(Synth, EveryLightBenchmarkMatchesItsFsm) {
  for (const BenchmarkSpec& spec : benchmark_specs()) {
    if (spec.weight > 0) continue;
    SCOPED_TRACE(spec.name);
    Kiss2Fsm fsm = load_benchmark(spec.name);
    SynthesisResult r = synthesize_scan_circuit(fsm);
    std::string msg;
    EXPECT_TRUE(circuit_matches_fsm(r.circuit, fsm, r.encoding, &msg)) << msg;
    EXPECT_EQ(r.circuit.num_sv, spec.sv);
  }
}

TEST(Synth, PartialSpecificationUsesDontCares) {
  // One state, one of two input combos specified. The minimizer may fill
  // the gap however it likes, but the specified entry must hold.
  Kiss2Fsm fsm = parse_kiss2(".i 1\n.o 1\n0 a a 1\n");
  SynthesisResult r = synthesize_scan_circuit(fsm);
  EXPECT_TRUE(circuit_matches_fsm(r.circuit, fsm, r.encoding));
}

TEST(Synth, UnusedCodesAreFreeButUsedCodesExact) {
  // 3 states -> 2 state bits, code 3 unused. The read-back table must have
  // 4 states and agree with the FSM on codes 0..2.
  Kiss2Fsm fsm = parse_kiss2(
      ".i 1\n.o 1\n0 a b 0\n1 a c 1\n- b c 1\n0 c a 0\n1 c c 1\n");
  SynthesisResult r = synthesize_scan_circuit(fsm);
  StateTable table = read_back_table(r.circuit, &fsm, &r.encoding);
  EXPECT_EQ(table.num_states(), 4);
  EXPECT_EQ(table.next(0, 0), 1);
  EXPECT_EQ(table.next(0, 1), 2);
  EXPECT_EQ(table.output(0, 1), 1u);
  EXPECT_EQ(table.next(1, 0), 2);
  EXPECT_EQ(table.next(2, 1), 2);
  EXPECT_EQ(table.state_names[3], "c3");  // unused code gets a code name
}

TEST(Synth, SharesCubesAcrossFunctions) {
  // Both outputs are the same function; the AND cube gates must be shared
  // (gate count well below two independent copies).
  Kiss2Fsm fsm = parse_kiss2(".i 2\n.o 2\n11 a a 11\n0- a a 00\n10 a a 00\n");
  SynthesisResult r = synthesize_scan_circuit(fsm);
  // Output functions z0 and z1 should resolve to the same gate id.
  ASSERT_EQ(r.circuit.comb.num_outputs(), 3);  // z0, z1, Y0
  EXPECT_EQ(r.circuit.comb.outputs()[0], r.circuit.comb.outputs()[1]);
}

TEST(Synth, RejectsNondeterministicMachines) {
  Kiss2Fsm fsm = parse_kiss2(".i 1\n.o 1\n- a a 0\n0 a b 0\n- b b 0\n");
  EXPECT_THROW(synthesize_scan_circuit(fsm), Error);
}

TEST(Verify, DetectsBehaviouralMismatch) {
  Kiss2Fsm lion = load_benchmark("lion");
  SynthesisResult r = synthesize_scan_circuit(lion);
  // Wrong encoding (swap two states' codes) must trip the checker.
  Encoding wrong = r.encoding;
  std::swap(wrong.code_of_state[0], wrong.code_of_state[1]);
  std::string msg;
  EXPECT_FALSE(circuit_matches_fsm(r.circuit, lion, wrong, &msg));
  // The first mismatch in row order, pinned verbatim; checking the
  // read-back table directly reports the same one.
  EXPECT_EQ(msg, "state st0 input 0: output bit 0 is 1, expected 0");
  std::string from_table;
  EXPECT_FALSE(table_matches_fsm(read_back_table(r.circuit), lion, wrong,
                                 &from_table));
  EXPECT_EQ(from_table, msg);
}

TEST(Synth, CoversAreWithinSpec) {
  // Every minimized cover must be consistent with its on/dc semantics:
  // spot-check by re-simulating the netlist against the covers.
  Kiss2Fsm fsm = load_benchmark("beecount");
  SynthesisResult r = synthesize_scan_circuit(fsm);
  ASSERT_EQ(r.covers.size(),
            static_cast<std::size_t>(r.circuit.comb.num_outputs()));
  const int nv = r.circuit.num_pi + r.circuit.num_sv;
  for (std::size_t f = 0; f < r.covers.size(); ++f) {
    for (std::uint32_t m = 0; m < (1u << nv); ++m) {
      const bool cover_val = r.covers[f].eval(m);
      const std::uint64_t out = r.circuit.comb.evaluate_outputs(m);
      EXPECT_EQ((out >> f) & 1u, cover_val ? 1u : 0u)
          << "function " << f << " minterm " << m;
    }
  }
}

}  // namespace
}  // namespace fstg
