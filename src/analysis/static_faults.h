#pragma once

#include <cstdint>
#include <vector>

#include "analysis/implication.h"
#include "base/bitvec.h"
#include "sim/logic_sim.h"

namespace fstg::robust {
class RunGuard;
}  // namespace fstg::robust

namespace fstg::analysis {

/// Fault-independent static verdict for one fault. Both untestable
/// verdicts are *proofs*: a fault so classified is combinationally
/// redundant under full scan (the difftest static-redundancy mode
/// cross-checks every verdict against the exhaustive engine).
enum class FaultVerdict : std::uint8_t {
  kUnknown,         ///< static analysis proves nothing; simulate it
  kUnexcitable,     ///< the faulty line is statically stuck at the fault
                    ///< value already (constant or conflicting excitation)
  kUnpropagatable,  ///< every output path is statically blocked: the gate
                    ///< is unobservable, or an implied side-input value
                    ///< holds a dominator at its controlling value
};

const char* fault_verdict_name(FaultVerdict verdict);

struct AnalyzerOptions {
  ImplicationEngine::Options engine;
};

/// Outcome of analyzing one fault list.
struct FaultAnalysis {
  std::vector<FaultVerdict> verdict;  ///< one per input fault
  /// equiv_rep[i] = smallest fault index provably equivalent to fault i
  /// (equiv_rep[i] == i for class representatives and faults the rules do
  /// not cover). Equivalence includes the gate-local pin→stem collapses
  /// plus transitive single-fanout chain rules across gates.
  std::vector<std::size_t> equiv_rep;
  std::size_t unexcitable = 0;
  std::size_t unpropagatable = 0;
  std::size_t equiv_classes = 0;  ///< distinct classes over the list
  std::size_t equiv_merged = 0;   ///< faults with equiv_rep != self
  /// False when the guard passed to analyze() tripped first: the faults
  /// not yet reached keep kUnknown and no equivalence classes are formed.
  bool complete = true;

  std::size_t untestable() const { return unexcitable + unpropagatable; }
};

/// Reusable static fault analyzer for one netlist: implication engine +
/// output-dominator chain + (optional, borrowed) forward reachability.
/// Immutable after construction; safe to share read-only across threads.
/// `classify`/`analyze` never throw, and give every fault the same verdict:
/// both run one verdict function, analyze() with closures shared across
/// the list.
class StaticAnalyzer {
 public:
  /// `reach` may borrow a precomputed forward_reachability(nl) matrix
  /// (must outlive the analyzer); nullptr computes one internally.
  explicit StaticAnalyzer(const Netlist& nl,
                          const AnalyzerOptions& options = {},
                          const std::vector<BitVec>* reach = nullptr);

  const ImplicationEngine& engine() const { return engine_; }
  /// output_dominators(nl) chain (netlist/cones.h sentinels).
  const std::vector<int>& dominators() const { return dom_; }
  /// Does any primary output observe this gate?
  bool observable(int gate) const;

  FaultVerdict classify(const FaultSpec& fault) const;
  /// Verdicts and equivalence classes for a whole list. Faults that need
  /// one line's closures (a gate's stem faults and the pin faults it
  /// drives, the bridges sharing a first line, a bridge's AND/OR pair) are
  /// visited together and share them. `guard`, if given, is ticked once
  /// per fault; when it trips, `complete` is false.
  FaultAnalysis analyze(const std::vector<FaultSpec>& faults,
                        robust::RunGuard* guard = nullptr) const;

 private:
  bool reaches(int from, int to) const {
    return (*reach_)[static_cast<std::size_t>(from)].test(
        static_cast<std::size_t>(to));
  }
  /// Walk the dominator chain above `from`, testing whether the closure in
  /// `imp` (fault-free implications of the excitation condition) holds a
  /// controlling value on a side input outside the fault cone of `from`.
  bool propagation_blocked(int from, const Implications& imp) const;

  /// Closures of the line(s) the current fault is on, kept for the next.
  class Closures;
  FaultVerdict verdict(const FaultSpec& fault, Closures& closures) const;
  FaultVerdict classify_stem(int gate, bool value, Closures& closures) const;
  FaultVerdict classify_pin(int gate, int pin, bool value,
                            Closures& closures) const;
  FaultVerdict classify_bridge(int g1, int g2, bool or_type,
                               Closures& closures) const;

  const Netlist* nl_;
  ImplicationEngine engine_;
  std::vector<int> dom_;
  std::vector<BitVec> reach_own_;
  const std::vector<BitVec>* reach_;
};

/// Eagerly register every analysis.* counter so metrics scrapes list a
/// stable catalog even before the first analysis runs (same contract as
/// the serve/cache.hot registration).
void register_analysis_counters();

}  // namespace fstg::analysis
