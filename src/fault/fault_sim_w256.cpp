// 256-lane (AVX2) fault-simulation engine. This TU is compiled with -mavx2
// when the toolchain supports it (FSTG_HAVE_LANES_256): PatternVec<4>'s
// per-component loops auto-vectorize into 256-bit ops. Without the flag the
// entry points alias the portable engine; the dispatcher never selects 256
// in that case (resolve_lane_bits clamps), the alias just keeps the symbols
// well-defined.

#include "fault/fault_sim_width.h"

#if defined(FSTG_HAVE_LANES_256)

#include "fault/fault_sim_engine.h"

namespace fstg::detail {

namespace {
using V256 = PatternVec<4>;
}

void run_engine_w256(FaultSimEngineContext& ctx) { run_engine<V256>(ctx); }

std::uint64_t kernel_eval_sweep_w256(const ScanCircuit& c, int reps) {
  return kernel_eval_sweep_impl<V256>(c, reps);
}
std::uint64_t kernel_x_merge_w256(const ScanCircuit& c, int reps) {
  return kernel_x_merge_impl<V256>(c, reps);
}
std::uint64_t kernel_cone_overlay_w256(const ScanCircuit& c, int reps) {
  return kernel_cone_overlay_impl<V256>(c, reps);
}
ExcitationIndexProbe probe_excitation_index_w256(
    const ScanCircuit& c, std::span<const ScanPattern> batch, int threads) {
  return probe_excitation_index_impl<V256>(c, batch, threads);
}

}  // namespace fstg::detail

#else  // !FSTG_HAVE_LANES_256

namespace fstg::detail {

void run_engine_w256(FaultSimEngineContext& ctx) { run_engine_w64(ctx); }

std::uint64_t kernel_eval_sweep_w256(const ScanCircuit& c, int reps) {
  return kernel_eval_sweep_w64(c, reps);
}
std::uint64_t kernel_x_merge_w256(const ScanCircuit& c, int reps) {
  return kernel_x_merge_w64(c, reps);
}
std::uint64_t kernel_cone_overlay_w256(const ScanCircuit& c, int reps) {
  return kernel_cone_overlay_w64(c, reps);
}
ExcitationIndexProbe probe_excitation_index_w256(
    const ScanCircuit& c, std::span<const ScanPattern> batch, int threads) {
  return probe_excitation_index_w64(c, batch, threads);
}

}  // namespace fstg::detail

#endif
