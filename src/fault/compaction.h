#pragma once

#include <vector>

#include "base/robust/budget.h"
#include "fault/fault_sim.h"

namespace fstg {

/// Result of the paper's effective-test selection: simulate the functional
/// tests longest-first and keep only tests that detect new faults.
struct CompactionResult {
  /// The simulation order (tests sorted by decreasing length).
  TestSet ordered_tests;
  /// Only the effective tests, in simulation order (Table 6 `tsts`).
  TestSet effective_tests;
  /// The underlying fault simulation (against `ordered_tests`).
  FaultSimResult sim;

  std::size_t effective_total_length() const {
    return effective_tests.total_length();
  }
};

/// Order tests by decreasing length, fault-simulate with dropping, keep the
/// effective ones. The premise (paper, Section 2): longer tests detect more
/// faults, so simulating them first discards many short tests — every
/// discarded test saves a scan operation regardless of its length.
/// `sim_options` tunes the underlying engine (thread count, precomputed
/// reachability); effective-test selection is bit-identical for any value.
CompactionResult select_effective_tests(const ScanCircuit& circuit,
                                        const TestSet& tests,
                                        const std::vector<FaultSpec>& faults,
                                        const FaultSimOptions& sim_options = {});

/// select_effective_tests over several fault lists at once, under one
/// budget: a single fault simulation of the lists' concatenation, so the
/// good-machine trace and excitation index of every test batch are built
/// once for all of them. Entry i equals
/// select_effective_tests(circuit, tests, *lists[i], sim_options): a
/// fault's first detecting test does not depend on which other faults are
/// simulated beside it. If `guard` trips, every entry has
/// `sim.complete == false` and its detections are a lower bound.
std::vector<CompactionResult> select_effective_tests_guarded(
    const ScanCircuit& circuit, const TestSet& tests,
    const std::vector<const std::vector<FaultSpec>*>& lists,
    robust::RunGuard& guard, const FaultSimOptions& sim_options = {});

}  // namespace fstg
