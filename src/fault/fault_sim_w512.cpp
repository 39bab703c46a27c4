// 512-lane (AVX-512) fault-simulation engine. This TU is compiled with
// -mavx512f -mavx512bw -mavx512dq -mavx512vl when the toolchain supports
// them (FSTG_HAVE_LANES_512): PatternVec<8>'s per-component loops
// auto-vectorize into 512-bit ops. Without the flags the entry points alias
// the portable engine (never selected at runtime — resolve_lane_bits
// clamps).

#include "fault/fault_sim_width.h"

#if defined(FSTG_HAVE_LANES_512)

#include "fault/fault_sim_engine.h"

namespace fstg::detail {

namespace {
using V512 = PatternVec<8>;
}

void run_engine_w512(FaultSimEngineContext& ctx) { run_engine<V512>(ctx); }

std::uint64_t kernel_eval_sweep_w512(const ScanCircuit& c, int reps) {
  return kernel_eval_sweep_impl<V512>(c, reps);
}
std::uint64_t kernel_x_merge_w512(const ScanCircuit& c, int reps) {
  return kernel_x_merge_impl<V512>(c, reps);
}
std::uint64_t kernel_cone_overlay_w512(const ScanCircuit& c, int reps) {
  return kernel_cone_overlay_impl<V512>(c, reps);
}
ExcitationIndexProbe probe_excitation_index_w512(
    const ScanCircuit& c, std::span<const ScanPattern> batch, int threads) {
  return probe_excitation_index_impl<V512>(c, batch, threads);
}

}  // namespace fstg::detail

#else  // !FSTG_HAVE_LANES_512

namespace fstg::detail {

void run_engine_w512(FaultSimEngineContext& ctx) { run_engine_w64(ctx); }

std::uint64_t kernel_eval_sweep_w512(const ScanCircuit& c, int reps) {
  return kernel_eval_sweep_w64(c, reps);
}
std::uint64_t kernel_x_merge_w512(const ScanCircuit& c, int reps) {
  return kernel_x_merge_w64(c, reps);
}
std::uint64_t kernel_cone_overlay_w512(const ScanCircuit& c, int reps) {
  return kernel_cone_overlay_w64(c, reps);
}
ExcitationIndexProbe probe_excitation_index_w512(
    const ScanCircuit& c, std::span<const ScanPattern> batch, int threads) {
  return probe_excitation_index_w64(c, batch, threads);
}

}  // namespace fstg::detail

#endif
