#include "fault/redundancy.h"

#include <algorithm>

#include "analysis/static_faults.h"
#include "base/error.h"
#include "base/obs/metrics.h"

namespace fstg {

RedundancyResult classify_faults(const ScanCircuit& circuit,
                                 const TestSet& tests,
                                 const std::vector<FaultSpec>& faults) {
  const FaultSimResult by_tests = simulate_faults(circuit, tests, faults);
  return classify_faults_from(circuit, faults, by_tests.detected_by);
}

RedundancyResult classify_faults_from(const ScanCircuit& circuit,
                                      const std::vector<FaultSpec>& faults,
                                      const std::vector<int>& detected_by,
                                      const std::vector<BitVec>* reach,
                                      const analysis::StaticAnalyzer* statics) {
  return classify_faults_from(circuit, faults, detected_by, reach, statics,
                              nullptr);
}

RedundancyResult classify_faults_from(const ScanCircuit& circuit,
                                      const std::vector<FaultSpec>& faults,
                                      const std::vector<int>& detected_by,
                                      const std::vector<BitVec>* reach,
                                      const analysis::StaticAnalyzer* statics,
                                      robust::RunGuard* guard) {
  require(detected_by.size() == faults.size(),
          "classify_faults_from: result/fault list size mismatch");

  RedundancyResult result;
  result.status.assign(faults.size(), FaultStatus::kUndetectable);

  std::vector<std::size_t> missed;
  for (std::size_t f = 0; f < faults.size(); ++f) {
    if (detected_by[f] >= 0) {
      result.status[f] = FaultStatus::kDetected;
      ++result.detected;
    } else {
      missed.push_back(f);
    }
  }
  // Misses the static implication engine proves untestable skip the
  // exhaustive scan entirely (their status default is already
  // kUndetectable).
  std::size_t static_undetectable = 0;
  if (statics != nullptr && !missed.empty()) {
    static const obs::Counter c_consults =
        obs::counter("analysis.static_consults");
    static const obs::Counter c_hits =
        obs::counter("analysis.static_undetectable");
    std::vector<std::size_t> remaining;
    remaining.reserve(missed.size());
    for (std::size_t f : missed) {
      if (statics->classify(faults[f]) != analysis::FaultVerdict::kUnknown)
        ++static_undetectable;
      else
        remaining.push_back(f);
    }
    c_consults.add(missed.size());
    c_hits.add(static_undetectable);
    missed = std::move(remaining);
  }
  result.undetectable = static_undetectable;
  if (missed.empty()) return result;
  require(circuit.num_pi + circuit.num_sv <= 22,
          "classify_faults: exhaustive check limited to 22 input+state bits");

  // Exhaustive length-one scan tests: every state code x input combination.
  // Undetectable faults scan the entire space, so the cone fast path
  // matters here even more than in the test-set pass.
  std::vector<FaultSpec> missed_faults;
  missed_faults.reserve(missed.size());
  for (std::size_t f : missed) missed_faults.push_back(faults[f]);
  std::vector<std::vector<int>> cones =
      reach ? compute_fault_cones(circuit.comb, missed_faults, *reach)
            : compute_fault_cones(circuit.comb, missed_faults);

  ScanBatchSim sim(circuit);
  const std::uint32_t num_codes = 1u << circuit.num_sv;
  const std::uint32_t nic = 1u << circuit.num_pi;
  std::vector<ScanPattern> all;
  all.reserve(static_cast<std::size_t>(num_codes) * nic);
  for (std::uint32_t code = 0; code < num_codes; ++code)
    for (std::uint32_t ic = 0; ic < nic; ++ic)
      all.push_back(ScanPattern{code, {ic}, {}});

  for (std::size_t base = 0; base < all.size() && !missed.empty();
       base += kWordBits) {
    const std::size_t count = std::min<std::size_t>(kWordBits, all.size() - base);
    const std::span<const ScanPattern> batch(all.data() + base, count);
    const GoodTrace good = sim.run_good(batch);
    std::vector<std::size_t> still_missed;
    std::vector<std::size_t> still_missed_local;
    still_missed.reserve(missed.size());
    for (std::size_t i = 0; i < missed.size(); ++i) {
      if (guard != nullptr && !guard->tick(count))
        throw BudgetError(guard->status().message());
      const std::size_t f = missed[i];
      if (sim.run_faulty(batch, good, missed_faults[i], &cones[i]) != 0) {
        result.status[f] = FaultStatus::kMissedDetectable;
        ++result.missed_detectable;
      } else {
        still_missed.push_back(f);
        still_missed_local.push_back(i);
      }
    }
    // Compact the parallel fault/cone arrays alongside `missed`.
    std::vector<FaultSpec> next_faults;
    std::vector<std::vector<int>> next_cones;
    next_faults.reserve(still_missed_local.size());
    next_cones.reserve(still_missed_local.size());
    for (std::size_t i : still_missed_local) {
      next_faults.push_back(missed_faults[i]);
      next_cones.push_back(std::move(cones[i]));
    }
    missed = std::move(still_missed);
    missed_faults = std::move(next_faults);
    cones = std::move(next_cones);
  }
  result.undetectable = static_undetectable + missed.size();
  return result;
}

}  // namespace fstg
