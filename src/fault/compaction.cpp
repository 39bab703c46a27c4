#include "fault/compaction.h"

#include <utility>

namespace fstg {

namespace {

/// The paper's effective-test rule, in one place: a test is effective iff
/// it is the first detector of at least one fault. Rebuilds
/// `sim.test_effective` and `sim.detected_faults` from `sim.detected_by`
/// (indices into `ordered_tests`) and collects the effective tests.
CompactionResult compaction_from_detections(TestSet ordered_tests,
                                            FaultSimResult sim) {
  sim.test_effective.assign(ordered_tests.tests.size(), false);
  sim.detected_faults = 0;
  for (int t : sim.detected_by) {
    if (t < 0) continue;
    sim.test_effective[static_cast<std::size_t>(t)] = true;
    ++sim.detected_faults;
  }
  CompactionResult result;
  for (std::size_t i = 0; i < ordered_tests.tests.size(); ++i)
    if (sim.test_effective[i])
      result.effective_tests.tests.push_back(ordered_tests.tests[i]);
  result.ordered_tests = std::move(ordered_tests);
  result.sim = std::move(sim);
  return result;
}

}  // namespace

CompactionResult select_effective_tests(const ScanCircuit& circuit,
                                        const TestSet& tests,
                                        const std::vector<FaultSpec>& faults,
                                        const FaultSimOptions& sim_options) {
  TestSet ordered = tests.sorted_by_decreasing_length();
  FaultSimResult sim = simulate_faults(circuit, ordered, faults, sim_options);
  return compaction_from_detections(std::move(ordered), std::move(sim));
}

std::vector<CompactionResult> select_effective_tests_guarded(
    const ScanCircuit& circuit, const TestSet& tests,
    const std::vector<const std::vector<FaultSpec>*>& lists,
    robust::RunGuard& guard, const FaultSimOptions& sim_options) {
  const TestSet ordered = tests.sorted_by_decreasing_length();
  std::vector<FaultSpec> all;
  for (const std::vector<FaultSpec>* list : lists)
    all.insert(all.end(), list->begin(), list->end());
  const FaultSimResult sim =
      simulate_faults_guarded(circuit, ordered, all, guard, sim_options);

  std::vector<CompactionResult> results;
  results.reserve(lists.size());
  auto first = sim.detected_by.begin();
  for (const std::vector<FaultSpec>* list : lists) {
    const auto last = first + static_cast<std::ptrdiff_t>(list->size());
    FaultSimResult part;
    part.total_faults = list->size();
    part.detected_by.assign(first, last);
    part.complete = sim.complete;
    first = last;
    results.push_back(compaction_from_detections(ordered, std::move(part)));
  }
  return results;
}

}  // namespace fstg
