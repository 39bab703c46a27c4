// Timing-free performance guard for the static fault analyzer: each
// closure it computes is counted in analysis.propagations, so the count is
// exact on any machine. analyze() computes each line's two single-literal
// closures once (a stuck-at fault needs the closure of its stem or pin
// driver; a bridge, that of its first line g1) and each bridged pair's two
// joint closures once, shared by the pair's AND and OR faults.
#include <gtest/gtest.h>

#include <set>
#include <utility>
#include <vector>

#include "analysis/static_faults.h"
#include "base/obs/metrics.h"
#include "fault/bridging.h"
#include "fault/fault.h"
#include "kiss/benchmarks.h"
#include "netlist/synth.h"

namespace fstg {
namespace {

std::uint64_t propagations_of(const analysis::StaticAnalyzer& an,
                              const std::vector<FaultSpec>& faults) {
  const obs::MetricsSnapshot before = obs::snapshot_metrics();
  const analysis::FaultAnalysis fa = an.analyze(faults);
  const obs::MetricsSnapshot after = obs::snapshot_metrics();
  EXPECT_TRUE(fa.complete);
  return after.counter_value("analysis.propagations") -
         before.counter_value("analysis.propagations");
}

TEST(StaticAnalysisWork, BridgePropagationsBoundedByDistinctLinesAndPairs) {
  const SynthesisResult synth =
      synthesize_scan_circuit(load_benchmark("bbsse"));
  const Netlist& nl = synth.circuit.comb;
  const std::vector<FaultSpec> bridges = enumerate_bridging(nl);
  std::set<int> first_lines;
  std::set<std::pair<int, int>> pairs;
  for (const FaultSpec& f : bridges) {
    first_lines.insert(f.gate);
    pairs.insert({f.gate, f.gate2_or_pin});
  }
  const analysis::StaticAnalyzer an(nl);
  const std::uint64_t propagations = propagations_of(an, bridges);

  ASSERT_GT(propagations, 0u);
  EXPECT_LE(propagations, 2 * first_lines.size() + 2 * pairs.size());
  // Under a third of the four closures per fault a from-scratch
  // classification of each fault may run.
  EXPECT_LT(3 * propagations, 4 * bridges.size());
}

TEST(StaticAnalysisWork, StuckAtPropagationsBoundedByDistinctLines) {
  const SynthesisResult synth =
      synthesize_scan_circuit(load_benchmark("bbsse"));
  const Netlist& nl = synth.circuit.comb;
  const std::vector<FaultSpec> faults = enumerate_stuck_at(nl);
  // The line whose closure a fault needs: the stem, or the pin's driver.
  std::set<int> lines;
  for (const FaultSpec& f : faults)
    lines.insert(f.kind == FaultSpec::Kind::kStuckPin
                     ? nl.gate(f.gate).fanins[static_cast<std::size_t>(
                           f.gate2_or_pin)]
                     : f.gate);
  const analysis::StaticAnalyzer an(nl);
  const std::uint64_t propagations = propagations_of(an, faults);

  ASSERT_GT(propagations, 0u);
  EXPECT_LE(propagations, 2 * lines.size());
  EXPECT_LT(propagations, faults.size());
}

}  // namespace
}  // namespace fstg
