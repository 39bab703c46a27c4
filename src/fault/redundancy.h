#pragma once

#include "fault/fault_sim.h"

namespace fstg::analysis {
class StaticAnalyzer;
}  // namespace fstg::analysis

namespace fstg {

/// Status of one fault after the paper's two-stage verification.
enum class FaultStatus : std::uint8_t {
  kDetected,           ///< detected by the given functional tests
  kMissedDetectable,   ///< missed by the tests but detected by the
                       ///< exhaustive combinational test set
  kUndetectable,       ///< not detected even exhaustively: combinationally
                       ///< redundant under full scan
};

struct RedundancyResult {
  std::vector<FaultStatus> status;
  std::size_t detected = 0;
  std::size_t missed_detectable = 0;
  std::size_t undetectable = 0;

  /// Coverage of *detectable* faults, the paper's headline claim.
  double detectable_coverage_percent() const {
    const std::size_t detectable = detected + missed_detectable;
    return detectable == 0 ? 100.0
                           : 100.0 * static_cast<double>(detected) /
                                 static_cast<double>(detectable);
  }
};

/// Classify every fault: first against the given tests, then (for misses)
/// against the exhaustive set of length-one scan tests over all 2^sv state
/// codes and 2^pi input combinations — the paper's own method for proving
/// leftover faults undetectable. Requires sv + pi <= 22.
RedundancyResult classify_faults(const ScanCircuit& circuit,
                                 const TestSet& tests,
                                 const std::vector<FaultSpec>& faults);

/// Variant reusing an existing simulation of the same fault list (e.g. the
/// one produced by select_effective_tests), so the test-set pass is not
/// repeated: only the misses are re-simulated exhaustively. `reach` may
/// hold a precomputed forward_reachability(circuit.comb) matrix to reuse
/// across fault sets (null = compute internally).
///
/// `statics` (optional) consults the fault-independent implication engine
/// first: misses it proves untestable are classified kUndetectable without
/// any exhaustive enumeration (counted under analysis.static_undetectable).
/// The sv + pi <= 22 limit then only applies when some miss still needs
/// the exhaustive scan — statically resolved circuits classify at any
/// size instead of erroring out.
RedundancyResult classify_faults_from(
    const ScanCircuit& circuit, const std::vector<FaultSpec>& faults,
    const std::vector<int>& detected_by,
    const std::vector<BitVec>* reach = nullptr,
    const analysis::StaticAnalyzer* statics = nullptr);

/// Budgeted variant: `guard` (null = unbudgeted) is ticked once per
/// (exhaustive batch, remaining miss) pair, weighted by the batch width,
/// like the fault simulation's own guard. A classification cut short
/// proves nothing, so exhaustion throws BudgetError.
RedundancyResult classify_faults_from(
    const ScanCircuit& circuit, const std::vector<FaultSpec>& faults,
    const std::vector<int>& detected_by, const std::vector<BitVec>* reach,
    const analysis::StaticAnalyzer* statics, robust::RunGuard* guard);

}  // namespace fstg
