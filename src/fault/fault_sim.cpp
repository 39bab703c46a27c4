#include "fault/fault_sim.h"

#include <algorithm>
#include <bit>
#include <memory>
#include <span>

#include "base/error.h"
#include "base/obs/metrics.h"
#include "base/obs/telemetry.h"
#include "base/parallel/thread_pool.h"
#include "fault/fault_sim_width.h"
#include "fault/sim_width.h"
#include "netlist/cones.h"
#include "netlist/reach.h"

namespace fstg {

/// Output cone of each fault (sorted gate ids needing re-evaluation in the
/// single-fault-propagation fast path). Stuck faults include their own
/// gate; bridges exclude the two forced gates.
std::vector<std::vector<int>> compute_fault_cones(
    const Netlist& nl, const std::vector<FaultSpec>& faults) {
  return compute_fault_cones(nl, faults, forward_reachability(nl));
}

std::vector<std::vector<int>> compute_fault_cones(
    const Netlist& nl, const std::vector<FaultSpec>& faults,
    const std::vector<BitVec>& reach) {
  require(reach.size() == static_cast<std::size_t>(nl.num_gates()),
          "compute_fault_cones: reachability matrix size mismatch");
  std::vector<std::vector<int>> cones(faults.size());
  for (std::size_t f = 0; f < faults.size(); ++f) {
    const FaultSpec& fault = faults[f];
    std::vector<int>& cone = cones[f];
    switch (fault.kind) {
      case FaultSpec::Kind::kNone:
        break;
      case FaultSpec::Kind::kStuckGate:
      case FaultSpec::Kind::kStuckPin: {
        cone.push_back(fault.gate);
        const BitVec& r = reach[static_cast<std::size_t>(fault.gate)];
        for (std::size_t g = r.find_first(); g != BitVec::npos;
             g = r.find_first(g + 1))
          if (static_cast<int>(g) != fault.gate)
            cone.push_back(static_cast<int>(g));
        std::sort(cone.begin(), cone.end());
        break;
      }
      case FaultSpec::Kind::kBridge: {
        BitVec u = reach[static_cast<std::size_t>(fault.gate)];
        u |= reach[static_cast<std::size_t>(fault.gate2_or_pin)];
        u.reset(static_cast<std::size_t>(fault.gate));
        u.reset(static_cast<std::size_t>(fault.gate2_or_pin));
        for (std::size_t g = u.find_first(); g != BitVec::npos;
             g = u.find_first(g + 1))
          cone.push_back(static_cast<int>(g));
        break;
      }
    }
  }
  return cones;
}

std::size_t FaultSimResult::num_effective_tests() const {
  std::size_t n = 0;
  for (bool e : test_effective) n += e ? 1 : 0;
  return n;
}

std::vector<ScanPattern> to_scan_patterns(const TestSet& tests) {
  std::vector<ScanPattern> patterns;
  patterns.reserve(tests.tests.size());
  for (const auto& t : tests.tests) {
    ScanPattern p;
    p.init_state = static_cast<std::uint32_t>(t.init_state);
    p.inputs = t.inputs;
    p.input_x = t.input_x;
    patterns.push_back(std::move(p));
  }
  return patterns;
}

FaultSimResult simulate_faults(const ScanCircuit& circuit,
                               const TestSet& tests,
                               const std::vector<FaultSpec>& faults,
                               const FaultSimOptions& options) {
  robust::RunGuard guard(robust::Budget{}, "fault_sim.batch");
  FaultSimResult result =
      simulate_faults_guarded(circuit, tests, faults, guard, options);
  if (!result.complete) throw BudgetError(guard.status().message());
  return result;
}

namespace {

/// Fold the engines' thread-confined tallies into the global registry: one
/// registry write per counter per run, so the hot loops carry only plain
/// increments.
void flush_sim_stats(const LogicSimStats& logic, const ScanSimStats& scan) {
  static const obs::Counter c_pushes = obs::counter("sim.event_pushes");
  static const obs::Counter c_pops = obs::counter("sim.event_pops");
  static const obs::Counter c_calls = obs::counter("sim.overlay_calls");
  static const obs::Counter c_unexcited = obs::counter("sim.overlay_unexcited");
  static const obs::Counter c_changed = obs::counter("sim.overlay_gates_changed");
  static const obs::Counter c_skipped = obs::counter("scan.cycles_skipped");
  static const obs::Counter c_overlay = obs::counter("scan.cycles_overlay");
  static const obs::Counter c_full = obs::counter("scan.cycles_full");
  static const obs::Counter c_dirty_on = obs::counter("scan.dirty_activations");
  static const obs::Counter c_dirty_off = obs::counter("scan.dirty_clears");
  c_pushes.add(logic.event_pushes);
  c_pops.add(logic.event_pops);
  c_calls.add(logic.overlay_calls);
  c_unexcited.add(logic.overlay_unexcited);
  c_changed.add(logic.gates_changed);
  c_skipped.add(scan.cycles_skipped);
  c_overlay.add(scan.cycles_overlay);
  c_full.add(scan.cycles_full);
  c_dirty_on.add(scan.dirty_activations);
  c_dirty_off.add(scan.dirty_clears);
}

/// Representative gate of a fault for cone assignment (the site whose FFR
/// the fault lives in). kNone faults have no site; use gate 0 arbitrarily.
int fault_site(const FaultSpec& f) {
  switch (f.kind) {
    case FaultSpec::Kind::kNone:
      return 0;
    case FaultSpec::Kind::kStuckGate:
    case FaultSpec::Kind::kStuckPin:
      return f.gate;
    case FaultSpec::Kind::kBridge:
      return std::min(f.gate, f.gate2_or_pin);
  }
  return 0;
}

}  // namespace

FaultSimResult simulate_faults_guarded(const ScanCircuit& circuit,
                                       const TestSet& tests,
                                       const std::vector<FaultSpec>& faults,
                                       robust::RunGuard& guard,
                                       const FaultSimOptions& options) {
  FaultSimResult result;
  result.total_faults = faults.size();
  result.detected_by.assign(faults.size(), -1);
  result.test_effective.assign(tests.tests.size(), false);

  static const obs::Counter c_runs = obs::counter("fault_sim.runs");
  static const obs::Counter c_batches_expected =
      obs::counter("fault_sim.batches_expected");
  static const obs::Gauge g_lane_bits = obs::gauge("fault_sim.lane_bits");
  c_runs.inc();
  obs::StageScope run_scope("fault_sim.run",
                            std::to_string(faults.size()) + " faults / " +
                                std::to_string(tests.tests.size()) + " tests");

  const std::vector<ScanPattern> all_patterns = to_scan_patterns(tests);
  const std::vector<std::vector<int>> cones =
      options.reachability
          ? compute_fault_cones(circuit.comb, faults, *options.reachability)
          : compute_fault_cones(circuit.comb, faults);
  const FaultyEval mode = options.event_driven ? FaultyEval::kEventDriven
                                               : FaultyEval::kFullCone;
  const int threads = parallel::resolve_threads(options.threads);
  // Auto width is mode-dependent: the event-driven path is fastest at 64
  // lanes (skip granularity and candidate density both degrade with width
  // — see docs/PERFORMANCE.md), while the levelized full-cone path
  // vectorizes well and takes the widest supported width. An explicit
  // lane_bits (option, --lane-bits, or set_default_lane_bits) wins; results
  // are bit-identical at every width either way.
  const int auto_bits =
      options.event_driven && default_lane_bits_is_auto() ? 64 : 0;
  const int lane_bits = resolve_lane_bits(
      options.lane_bits > 0 ? options.lane_bits : auto_bits);
  g_lane_bits.set(lane_bits);
  // Scheduled batch count for the live-telemetry progress pair: the engine
  // bumps fault_sim.batches as it goes, this is the denominator. Both are
  // monotone counters, so a telemetry reader can never see progress move
  // backwards; early exits (all faults dead, budget tripped) simply leave
  // done < expected.
  c_batches_expected.add(
      (all_patterns.size() + static_cast<std::size_t>(lane_bits) - 1) /
      static_cast<std::size_t>(lane_bits));

  // Cone-sorted fault schedule: group faults whose sites share a
  // fanout-free cone so consecutive faults re-touch the same overlay
  // working set, and use the output-cone gate count as the per-fault work
  // estimate for chunk sizing. The schedule is a permutation of the
  // simulation order only — per-fault results are position-independent, so
  // this cannot change any detection.
  const ConePartition part = fanout_free_cones(circuit.comb);
  std::vector<int> fault_cone(faults.size(), 0);
  std::vector<std::size_t> weight(faults.size(), 0);
  for (std::size_t f = 0; f < faults.size(); ++f) {
    const int site = fault_site(faults[f]);
    if (site >= 0 && site < circuit.comb.num_gates())
      fault_cone[f] = part.cone_id[static_cast<std::size_t>(site)];
    weight[f] = cones[f].size();
  }
  std::vector<std::size_t> schedule(faults.size());
  for (std::size_t f = 0; f < faults.size(); ++f) schedule[f] = f;
  std::stable_sort(schedule.begin(), schedule.end(),
                   [&fault_cone](std::size_t a, std::size_t b) {
                     return fault_cone[a] < fault_cone[b];
                   });

  LogicSimStats logic_stats;
  ScanSimStats scan_stats;
  detail::FaultSimEngineContext ctx{circuit,
                                    std::span<const ScanPattern>(all_patterns),
                                    faults,
                                    cones,
                                    schedule,
                                    fault_cone,
                                    weight,
                                    mode,
                                    threads,
                                    guard,
                                    result,
                                    logic_stats,
                                    scan_stats};
  switch (lane_bits) {
    case 512:
      detail::run_engine_w512(ctx);
      break;
    case 256:
      detail::run_engine_w256(ctx);
      break;
    default:
      detail::run_engine_w64(ctx);
      break;
  }
  flush_sim_stats(logic_stats, scan_stats);
  return result;
}

namespace detail {

std::uint64_t kernel_eval_sweep(int lane_bits, const ScanCircuit& circuit,
                                int reps) {
  switch (resolve_lane_bits(lane_bits)) {
    case 512:
      return kernel_eval_sweep_w512(circuit, reps);
    case 256:
      return kernel_eval_sweep_w256(circuit, reps);
    default:
      return kernel_eval_sweep_w64(circuit, reps);
  }
}

std::uint64_t kernel_x_merge(int lane_bits, const ScanCircuit& circuit,
                             int reps) {
  switch (resolve_lane_bits(lane_bits)) {
    case 512:
      return kernel_x_merge_w512(circuit, reps);
    case 256:
      return kernel_x_merge_w256(circuit, reps);
    default:
      return kernel_x_merge_w64(circuit, reps);
  }
}

std::uint64_t kernel_cone_overlay(int lane_bits, const ScanCircuit& circuit,
                                  int reps) {
  switch (resolve_lane_bits(lane_bits)) {
    case 512:
      return kernel_cone_overlay_w512(circuit, reps);
    case 256:
      return kernel_cone_overlay_w256(circuit, reps);
    default:
      return kernel_cone_overlay_w64(circuit, reps);
  }
}

ExcitationIndexProbe probe_excitation_index(
    int lane_bits, const ScanCircuit& circuit,
    std::span<const ScanPattern> batch, int threads) {
  switch (resolve_lane_bits(lane_bits)) {
    case 512:
      return probe_excitation_index_w512(circuit, batch, threads);
    case 256:
      return probe_excitation_index_w256(circuit, batch, threads);
    default:
      return probe_excitation_index_w64(circuit, batch, threads);
  }
}

}  // namespace detail

}  // namespace fstg
