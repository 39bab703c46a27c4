#include "netlist/synth.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "base/error.h"
#include "fsm/state_table.h"
#include "kiss/benchmarks.h"
#include "kiss/kiss2_parser.h"
#include "netlist/verify.h"

namespace fstg {
namespace {

// FNV-1a over every function's cover (Cube::to_string, cube by cube in
// order, covers in function order) followed by the netlist's gate count.
std::uint64_t synthesis_digest(const SynthesisResult& r) {
  std::uint64_t h = 14695981039346656037ull;
  auto mix = [&h](const std::string& s) {
    for (unsigned char ch : s) {
      h ^= ch;
      h *= 1099511628211ull;
    }
  };
  for (const Cover& cover : r.covers) {
    for (const Cube& cube : cover.cubes()) mix(cube.to_string() + "\n");
    mix("|");
  }
  mix(std::to_string(r.circuit.comb.num_gates()));
  return h;
}

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

TEST(Synth, CoversIdenticalOnBuiltIns) {
  // Digests of every built-in circuit's covers and gate count, two-level
  // and multi-level, as the tautology-based EXPAND produced them (the
  // reference kept in test_logic_minimize.cpp). A minimizer change that
  // alters any cube, or the order of the cubes, shows up here before it
  // reaches a test file.
  struct Pinned {
    const char* name;
    std::uint64_t two_level;
    std::uint64_t multilevel;
  };
  const std::vector<Pinned> pinned = {
      {"bbara", 0xfd11daa13078f622ull, 0xfd22d7a13087643cull},
      {"bbsse", 0x98998259e082aacbull, 0x987e7259e06bc7e3ull},
      {"bbtas", 0x86bdac0c90a4eb98ull, 0x86bda40c90a4de00ull},
      {"beecount", 0x562e043d9dc0f46bull, 0x5637fc3d9dc93b58ull},
      {"cse", 0xf0f36b8ea4689bf2ull, 0xfa068a8ea9aa9a52ull},
      {"dk14", 0x2fe86fa20d597284ull, 0x300a6fa20d7658eaull},
      {"dk15", 0xf707f21f0ad44569ull, 0xf71f741f0ae80130ull},
      {"dk16", 0x644a0effd48d930cull, 0x5b22f8ffcf3afaedull},
      {"dk17", 0xbe832cfdec3e6ee4ull, 0xbe8a18fdec446b96ull},
      {"dk27", 0x644212171603cedaull, 0x644204171603b710ull},
      {"dk512", 0xc33e594e094e4ef7ull, 0xc344da4e095395d8ull},
      {"dvram", 0x0a096dcccad6b148ull, 0xa3136bcc90cce210ull},
      {"ex2", 0xbc3da3a40bf806c9ull, 0xbc4e9fa40c067330ull},
      {"ex3", 0x90d76f7d2be8128dull, 0x90ddd67d2bed2d40ull},
      {"ex4", 0x2922ef5d4e37fd13ull, 0x325b265d53994078ull},
      {"ex5", 0x626018821bfbc861ull, 0x626396821bfed452ull},
      {"ex6", 0xd05118559cbcde6full, 0x71d956792e160ad3ull},
      {"ex7", 0xe283c4d2599c6686ull, 0xe28dd9d259a4debaull},
      {"fetch", 0x864dd91ed07c6881ull, 0x9fadd61edeaf5cc4ull},
      {"keyb", 0x8d7b1bf07a574b01ull, 0xa6cd9bf0887ee081ull},
      {"lion", 0xcc3cf59c11c862a3ull, 0xcc3cf59c11c862a3ull},
      {"lion9", 0xb6686c2ed849ae9dull, 0xb664e62ed8469514ull},
      {"log", 0x1e752f0249b50a8dull, 0x172d020245f91ac4ull},
      {"mark1", 0xc45326c6bd06c741ull, 0xbb57fbc6b7d9465eull},
      {"mc", 0x2fceccfc81e4d50aull, 0x2fcbbdfc81e285b6ull},
      {"nucpwr", 0x103b0752d44bf849ull, 0x329d3d52e7b2a3e7ull},
      {"opus", 0xfe8b6f5b88055456ull, 0xf564425b82b29522ull},
      {"rie", 0xdf5cbef411d0f3dfull, 0xe6b8ebf4159d8cb2ull},
      {"shiftreg", 0x2c92a35c9fbf89b3ull, 0x2c92a35c9fbf89b3ull},
      {"tav", 0x9974640f37abcca1ull, 0x9974660f37abd007ull},
      {"train11", 0x73eb8374bec5323cull, 0x73f58c74becd960cull},
  };
  ASSERT_EQ(pinned.size(), benchmark_specs().size());
  SynthesisOptions multilevel;
  multilevel.multilevel = true;
  for (std::size_t i = 0; i < pinned.size(); ++i) {
    const std::string& name = benchmark_specs()[i].name;
    SCOPED_TRACE(name);
    ASSERT_EQ(name, pinned[i].name);
    const Kiss2Fsm fsm = load_benchmark(name);
    EXPECT_EQ(synthesis_digest(synthesize_scan_circuit(fsm, SynthesisOptions{})),
              pinned[i].two_level);
    EXPECT_EQ(synthesis_digest(synthesize_scan_circuit(fsm, multilevel)),
              pinned[i].multilevel);
  }
}

}  // namespace
}  // namespace fstg
