// Determinism lane for the static fault analyzer's read-only sharing
// contract: one StaticAnalyzer serves concurrent analyze() calls (the
// serve daemon's workers share compiled circuits), and every caller gets
// the serial verdicts. Runs under the tsan preset (`ctest --preset
// determinism`).

#include <gtest/gtest.h>

#include <algorithm>
#include <thread>
#include <vector>

#include "analysis/static_faults.h"
#include "fault/bridging.h"
#include "fault/fault.h"
#include "kiss/benchmarks.h"
#include "netlist/synth.h"

namespace fstg {
namespace {

TEST(StaticAnalyzerShared, ConcurrentAnalyzeMatchesSerial) {
  const SynthesisResult synth =
      synthesize_scan_circuit(load_benchmark("bbsse"));
  const Netlist& nl = synth.circuit.comb;
  std::vector<FaultSpec> faults = enumerate_stuck_at(nl);
  const std::vector<FaultSpec> bridges = enumerate_bridging(nl);
  faults.insert(faults.end(), bridges.begin(),
                bridges.begin() + static_cast<std::ptrdiff_t>(
                                      std::min<std::size_t>(bridges.size(),
                                                            2048)));

  const analysis::StaticAnalyzer an(nl);
  const analysis::FaultAnalysis serial = an.analyze(faults);
  ASSERT_GT(serial.untestable(), 0u);

  constexpr int kThreads = 4;
  std::vector<analysis::FaultAnalysis> results(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&, t] { results[static_cast<std::size_t>(t)] =
                                      an.analyze(faults); });
  for (std::thread& th : threads) th.join();

  for (const analysis::FaultAnalysis& r : results) {
    EXPECT_EQ(r.verdict, serial.verdict);
    EXPECT_EQ(r.equiv_rep, serial.equiv_rep);
    EXPECT_EQ(r.unexcitable, serial.unexcitable);
    EXPECT_EQ(r.unpropagatable, serial.unpropagatable);
  }
}

}  // namespace
}  // namespace fstg
