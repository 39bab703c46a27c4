#include "lint/analysis_lint.h"

#include <string>
#include <vector>

#include "analysis/static_faults.h"
#include "fault/fault.h"

namespace fstg::lint {

namespace {

std::string gate_label(const Netlist& nl, int g) {
  const std::string& name = nl.gate(g).name;
  return name.empty() ? "#" + std::to_string(g) : name;
}

/// Resolve one fault-list entry against the circuit, mirroring the strict
/// resolution in fault_io.cpp but silently skipping malformed entries —
/// lint_fault_list already diagnoses those (fault-unknown-net,
/// fault-bad-pin), and this pass only speaks about injectable faults.
FaultSpec resolve_entry(const FaultEntry& entry, const Netlist& nl,
                        const NetIndex& index) {
  const int g = index.resolve(entry.net);
  if (g < 0) return FaultSpec::none();
  switch (entry.kind) {
    case FaultEntry::Kind::kStuck:
      return FaultSpec::stuck_gate(g, entry.value);
    case FaultEntry::Kind::kPin:
      if (entry.pin < 0 ||
          static_cast<std::size_t>(entry.pin) >= nl.gate(g).fanins.size())
        return FaultSpec::none();
      return FaultSpec::stuck_pin(g, entry.pin, entry.value);
    case FaultEntry::Kind::kBridge: {
      const int g2 = index.resolve(entry.net2);
      if (g2 < 0 || g == g2) return FaultSpec::none();
      return entry.value ? FaultSpec::bridge_or(g, g2)
                         : FaultSpec::bridge_and(g, g2);
    }
  }
  return FaultSpec::none();
}

}  // namespace

void lint_static_analysis(const ScanCircuit& circuit,
                          const FaultListFile* faults, robust::RunGuard& guard,
                          LintReport& report) {
  const Netlist& nl = circuit.comb;
  if (!guard.tick()) {
    report.truncated = true;
    return;
  }
  const analysis::StaticAnalyzer analyzer(nl);
  const analysis::ImplicationEngine& engine = analyzer.engine();

  for (int g = 0; g < nl.num_gates(); ++g) {
    if (!guard.tick()) {
      report.truncated = true;
      return;
    }
    const GateType type = nl.gate(g).type;
    if (type == GateType::kConst0 || type == GateType::kConst1) continue;
    const signed char constant = engine.constant(g);
    if (constant >= 0) {
      report.add("net-constant",
                 "gate " + gate_label(nl, g) + " is statically stuck at " +
                     std::to_string(static_cast<int>(constant)),
                 "fold the constant through or remove the dead logic; every "
                 "fault needing the other value here is untestable",
                 {report.source, 0});
      continue;
    }
    if (type == GateType::kInput) continue;
    if (analyzer.observable(g) &&
        analyzer.classify(FaultSpec::stuck_gate(g, false)) ==
            analysis::FaultVerdict::kUnpropagatable &&
        analyzer.classify(FaultSpec::stuck_gate(g, true)) ==
            analysis::FaultVerdict::kUnpropagatable) {
      report.add("net-blocked-cone",
                 "gate " + gate_label(nl, g) +
                     " reaches an output structurally, but implied "
                     "side-input values block every dominator on the way",
                 "the cone is untestable logic; restructure or remove it",
                 {report.source, 0});
    }
  }

  if (faults == nullptr) return;
  // One batched analysis over the injectable entries, so entries on the
  // same line share its closures; `lines[i]` is the source line of the
  // i-th analyzed fault.
  const NetIndex index(nl);
  std::vector<FaultSpec> specs;
  std::vector<int> lines;
  for (const FaultEntry& entry : faults->entries) {
    const FaultSpec spec = resolve_entry(entry, nl, index);
    if (spec.kind == FaultSpec::Kind::kNone) continue;
    if (spec.kind == FaultSpec::Kind::kStuckGate) {
      const GateType type = nl.gate(spec.gate).type;
      // fault-on-const already covers literal constant lines.
      if (type == GateType::kConst0 || type == GateType::kConst1) continue;
    }
    specs.push_back(spec);
    lines.push_back(entry.line);
  }
  // A tripped guard leaves the faults the analysis did not reach kUnknown,
  // so they get no finding.
  const analysis::FaultAnalysis fa = analyzer.analyze(specs, &guard);
  if (!fa.complete) report.truncated = true;
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const analysis::FaultVerdict verdict = fa.verdict[i];
    if (verdict == analysis::FaultVerdict::kUnknown) continue;
    report.add("fault-static-redundant",
               describe_fault(nl, specs[i]) + " is statically " +
                   analysis::fault_verdict_name(verdict) +
                   "; no test can detect it",
               "drop it from the list, or count it as proven redundant",
               {report.source, lines[i]});
  }
}

}  // namespace fstg::lint
