// Portable 64-lane fault-simulation engine: baseline ISA, always built.
// Also the graceful-degradation target the wider engines alias when their
// ISA flags are unavailable at build time.

#include "fault/fault_sim_engine.h"
#include "fault/fault_sim_width.h"

namespace fstg::detail {

void run_engine_w64(FaultSimEngineContext& ctx) { run_engine<Word>(ctx); }

std::uint64_t kernel_eval_sweep_w64(const ScanCircuit& c, int reps) {
  return kernel_eval_sweep_impl<Word>(c, reps);
}
std::uint64_t kernel_x_merge_w64(const ScanCircuit& c, int reps) {
  return kernel_x_merge_impl<Word>(c, reps);
}
std::uint64_t kernel_cone_overlay_w64(const ScanCircuit& c, int reps) {
  return kernel_cone_overlay_impl<Word>(c, reps);
}
ExcitationIndexProbe probe_excitation_index_w64(
    const ScanCircuit& c, std::span<const ScanPattern> batch, int threads) {
  return probe_excitation_index_impl<Word>(c, batch, threads);
}

}  // namespace fstg::detail
