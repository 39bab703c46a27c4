#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "base/robust/budget.h"
#include "fault/fault_sim.h"
#include "netlist/netlist.h"
#include "sim/scan_sim.h"

namespace fstg::detail {

/// Everything one width engine needs to run the batched fault-simulation
/// loop. The dispatcher in fault_sim.cpp fills this once (patterns, cones,
/// cone-sorted schedule, work estimates) and calls the engine matching the
/// resolved lane width; the engines differ only in the lane type they
/// instantiate the simulator templates with (and the ISA flags their TU is
/// compiled under — see pattern_vec.h for the discipline).
struct FaultSimEngineContext {
  const ScanCircuit& circuit;
  std::span<const ScanPattern> patterns;
  const std::vector<FaultSpec>& faults;
  const std::vector<std::vector<int>>& cones;
  /// Fault indices in simulation schedule order: sorted by the FFR cone of
  /// the fault site, so consecutive faults re-touch the same overlay
  /// working set (cache-warm) — fault order in the *result* is unaffected.
  const std::vector<std::size_t>& schedule;
  /// FFR cone id of each fault's site (chunk boundaries snap to these).
  const std::vector<int>& fault_cone;
  /// Per-fault work estimate (output-cone gate count) for chunk sizing.
  const std::vector<std::size_t>& weight;
  FaultyEval mode;
  int threads;
  robust::RunGuard& guard;
  FaultSimResult& result;
  /// Out: simulator tallies accumulated over all worker slots; the
  /// dispatcher flushes them into the obs registry once per run.
  LogicSimStats& logic_stats;
  ScanSimStats& scan_stats;
};

/// Engine entry points, one per lane width. run_engine_w256/w512 are
/// defined in TUs compiled with AVX2/AVX-512 flags when the toolchain
/// supports them, else they fall back to the portable 64-bit engine (the
/// dispatcher never calls them in that case — resolve_lane_bits() already
/// clamped — but the symbol stays well-defined).
void run_engine_w64(FaultSimEngineContext& ctx);
void run_engine_w256(FaultSimEngineContext& ctx);
void run_engine_w512(FaultSimEngineContext& ctx);

/// Micro-kernel hooks for bench/micro_kernels.cpp: run `reps` iterations of
/// one hot kernel at the given width on a small synthetic workload over
/// `circuit`, returning a checksum (so the work cannot be optimized away).
/// `lane_bits` is resolved like FaultSimOptions::lane_bits.
std::uint64_t kernel_eval_sweep(int lane_bits, const ScanCircuit& circuit,
                                int reps);
std::uint64_t kernel_x_merge(int lane_bits, const ScanCircuit& circuit,
                             int reps);
std::uint64_t kernel_cone_overlay(int lane_bits, const ScanCircuit& circuit,
                                  int reps);

/// Test hook for the excitation index: one batch's good trace and index,
/// built at a given lane width, with the lane vectors flattened to 64-lane
/// words (`lane_words` per vector, lowest lanes first) so a width-free
/// reference can be checked against them. The index fields mirror
/// GoodTraceT's exc_* members.
struct ExcitationIndexProbe {
  int lane_words = 0;
  /// [cycle][gate * lane_words + i]: word i of the gate's fault-free value.
  std::vector<std::vector<std::uint64_t>> gate_values;
  /// [cycle * lane_words + i]: word i of the cycle's active-lane mask.
  std::vector<std::uint64_t> active;
  /// [cycle]: 1 iff the cycle carries X (its gate bits stay clear).
  std::vector<std::uint8_t> cycle_x;
  std::size_t words = 0;
  std::vector<std::uint64_t> any1, any0, obs1, obs0, pin_obs1, pin_obs0, x;
  std::vector<std::uint32_t> pin_base;
};

/// Run the batch (at most `lane_bits` patterns) fault-free and build its
/// excitation index over `threads` pool slots. `lane_bits` is resolved like
/// FaultSimOptions::lane_bits.
ExcitationIndexProbe probe_excitation_index(
    int lane_bits, const ScanCircuit& circuit,
    std::span<const ScanPattern> batch, int threads);

/// Per-width kernel implementations (same contract), defined alongside the
/// engines.
std::uint64_t kernel_eval_sweep_w64(const ScanCircuit& c, int reps);
std::uint64_t kernel_eval_sweep_w256(const ScanCircuit& c, int reps);
std::uint64_t kernel_eval_sweep_w512(const ScanCircuit& c, int reps);
std::uint64_t kernel_x_merge_w64(const ScanCircuit& c, int reps);
std::uint64_t kernel_x_merge_w256(const ScanCircuit& c, int reps);
std::uint64_t kernel_x_merge_w512(const ScanCircuit& c, int reps);
std::uint64_t kernel_cone_overlay_w64(const ScanCircuit& c, int reps);
std::uint64_t kernel_cone_overlay_w256(const ScanCircuit& c, int reps);
std::uint64_t kernel_cone_overlay_w512(const ScanCircuit& c, int reps);

ExcitationIndexProbe probe_excitation_index_w64(
    const ScanCircuit& c, std::span<const ScanPattern> batch, int threads);
ExcitationIndexProbe probe_excitation_index_w256(
    const ScanCircuit& c, std::span<const ScanPattern> batch, int threads);
ExcitationIndexProbe probe_excitation_index_w512(
    const ScanCircuit& c, std::span<const ScanPattern> batch, int threads);

}  // namespace fstg::detail
