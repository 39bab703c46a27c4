#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <span>
#include <vector>

#include "base/error.h"
#include "base/parallel/thread_pool.h"
#include "netlist/netlist.h"
#include "sim/logic_sim.h"

namespace fstg {

/// One full-scan functional test as applied to hardware: scan in
/// `init_state`, apply `inputs` one per clock (observing the primary
/// outputs each clock), scan out the final state.
///
/// `input_x`, when non-empty, is a per-cycle X mask over the primary-input
/// bits (same length as `inputs`): a set bit marks that input as unknown
/// that cycle. The scanned-in state is always fully defined (the scan chain
/// loads definite values), but X inputs can drive state bits to X in later
/// cycles.
struct ScanPattern {
  std::uint32_t init_state = 0;
  std::vector<std::uint32_t> inputs;
  std::vector<std::uint32_t> input_x;

  bool has_x() const {
    for (std::uint32_t m : input_x)
      if (m != 0) return true;
    return false;
  }
};

/// Width-independent tallies of the lazy dirty-lane machinery in
/// run_faulty, plain increments like LogicSimStats (instances are
/// thread-confined); flushed by the fault-simulation engine (counters
/// scan.*).
struct ScanSimStats {
  std::uint64_t cycles_skipped = 0;     ///< unexcited cycles skipped whole
  std::uint64_t cycles_overlay = 0;     ///< cycles evaluated event-driven
  std::uint64_t cycles_full = 0;        ///< full-cone or diverged cycles
  std::uint64_t dirty_activations = 0;  ///< lanes turning dirty
  std::uint64_t dirty_clears = 0;       ///< dirty lanes reconverging

  ScanSimStats& operator+=(const ScanSimStats& o) {
    cycles_skipped += o.cycles_skipped;
    cycles_overlay += o.cycles_overlay;
    cycles_full += o.cycles_full;
    dirty_activations += o.dirty_activations;
    dirty_clears += o.dirty_clears;
    return *this;
  }
};

/// Fault-free reference of a batch of up to LaneOps<V>::kBits scan patterns
/// (one lane per pattern). `po[c][k]` holds the lane values of primary
/// output k at cycle c; `active[c]` masks lanes whose pattern is at least
/// c+1 vectors long; `final_state[l]` is lane l's scanned-out state.
///
/// --- Bit-packed X plane ---------------------------------------------------
///
/// When any pattern in the batch carries X bits, `has_x` is set — but the
/// per-cycle X planes are stored only for the cycles that actually carry X:
/// `cycle_x[c]` is the per-cycle "any-X" summary, and for cycles where it is
/// zero the `po_x[c]` / `gate_x[c]` / `state_x_at[c]` vectors stay empty
/// (meaning: all-defined). Since most batches are fully defined and even
/// X-bearing batches usually go X-free after a few cycles, the common case
/// touches only the value plane. When `has_x` is false none of the *_x
/// structures are populated at all and the simulation is exactly the
/// two-valued one.
template <class V>
struct GoodTraceT {
  using Lanes = LaneOps<V>;

  std::vector<std::vector<V>> po;
  std::vector<V> active;
  std::vector<std::uint32_t> final_state;
  int num_lanes = 0;
  /// Fault-free value of every gate at every cycle ([cycle][gate]), and the
  /// fault-free per-lane state entering each cycle ([cycle][lane]). These
  /// power the single-fault-propagation fast path: while the faulty
  /// machine's state still equals the fault-free state, only the fault's
  /// output cone needs re-evaluation.
  std::vector<std::vector<V>> gate_values;
  std::vector<std::vector<std::uint32_t>> state_at;

  bool has_x = false;
  /// Per-cycle any-X summary (sized like `active` iff has_x): nonzero means
  /// cycle c was evaluated three-valued and its *_x vectors are populated.
  std::vector<std::uint8_t> cycle_x;
  std::vector<std::vector<V>> po_x;
  std::vector<std::vector<V>> gate_x;
  std::vector<std::vector<std::uint32_t>> state_x_at;
  std::vector<std::uint32_t> final_state_x;

  /// --- Excitation/observability index (event-driven fast path) ------------
  ///
  /// Per-gate bitsets over cycles, bit c of word c/64, built once per batch
  /// by ScanBatchSimT::build_excitation_index — only for event-driven runs,
  /// so the full-cone baseline (serial_seed) pays nothing — and shared
  /// read-only by all workers. run_faulty jumps straight between candidate
  /// cycles instead of testing excitation cycle by cycle.
  ///
  /// Every bit speaks of *live* lanes only: lanes whose test is still
  /// running at cycle c (`active[c]`). run_good keeps evaluating a finished
  /// lane on its stale final state, but such a lane can neither detect nor
  /// change state, so its values never make a cycle a candidate.
  ///
  /// The excitation half: `exc_any1[g]` is set where any live lane of gate
  /// g's fault-free value at cycle c is 1, `exc_any0[g]` where any live
  /// lane is 0.
  ///
  /// The observability half folds in fanout-free-region propagation. For
  /// each gate the builder computes S_g(c): the per-lane sensitivity of g's
  /// FFR head to g at cycle c (the live lanes when g is itself a head).
  /// `exc_obs1[g]` is set where any live lane has value 1 AND is
  /// head-sensitive (`exc_obs0` for value 0). A stuck-at-0 at g changes
  /// its head's output exactly at obs1 cycles (stuck-at-1 at obs0) —
  /// excited-but-dies-inside-the-FFR cycles, the large majority of excited
  /// cycles, never become candidates. Pin faults get the same exactness per
  /// fanin *entry* (`exc_pin_obs1[e]`: some live lane has the pin's driver
  /// at 1, the pin locally sensitive — every other fanin of the gate
  /// non-controlling — and the gate head-sensitive; `exc_pin_obs0` dually;
  /// `exc_pin_base[g]` maps gate g's pin p to entry exc_pin_base[g]+p).
  /// Bridges derive conservative supersets from the per-gate bits. Cycles
  /// that carry X are candidates for every fault (`exc_x`).
  std::vector<std::uint64_t> exc_any1;
  std::vector<std::uint64_t> exc_any0;
  std::vector<std::uint64_t> exc_obs1;
  std::vector<std::uint64_t> exc_obs0;
  std::vector<std::uint64_t> exc_pin_obs1;
  std::vector<std::uint64_t> exc_pin_obs0;
  std::vector<std::uint32_t> exc_pin_base;
  std::vector<std::uint64_t> exc_x;
  std::size_t exc_words = 0;
  bool exc_built = false;

  /// True iff cycle `c` carries any X (its X vectors are stored).
  bool cycle_has_x(std::size_t c) const { return has_x && cycle_x[c] != 0; }
  /// Fault-free gate X plane of cycle c, or nullptr when fully defined.
  const V* gate_x_of(std::size_t c) const {
    return cycle_has_x(c) ? gate_x[c].data() : nullptr;
  }
  /// X mask of the state entering cycle c for lane l (0 for clean cycles).
  std::uint32_t state_x_at_of(std::size_t c, std::size_t l) const {
    return cycle_has_x(c) ? state_x_at[c][l] : 0u;
  }
};

/// How run_faulty evaluates cycles whose faulty state still matches the
/// fault-free state (the dominant case).
enum class FaultyEval : std::uint8_t {
  /// Event-driven overlay: no copying of good values; only gates whose
  /// fanins changed are re-evaluated; unexcited cycles are skipped whole.
  kEventDriven,
  /// Legacy full-cone path: copy the good gate values into the simulator
  /// and re-evaluate the entire cone. Kept as the benchmark baseline (the
  /// "serial seed" configuration in fstg_bench) and as a cross-check.
  kFullCone,
};

/// Applies batches of scan patterns to a full-scan circuit, fault-free or
/// with one injected fault. Each lane tracks its own (possibly faulty)
/// state feedback, exactly as the physical scan test would.
///
/// Detection is three-valued exact: a lane detects only where the faulty
/// and fault-free responses are *both defined* and differ (an X on either
/// side can never be claimed as a detection), while state-divergence
/// tracking uses any-difference including X-ness, so a fault that turns a
/// defined state bit into X is followed correctly even before (or without
/// ever) becoming observable.
///
/// Instances are not thread-safe (mutable simulator state); the parallel
/// fault-simulation engine keeps one simulator per worker slot and shares
/// only the immutable good trace.
template <class V>
class ScanBatchSimT {
 public:
  using Lanes = LaneOps<V>;
  using Stats = ScanSimStats;

  explicit ScanBatchSimT(const ScanCircuit& circuit)
      : circuit_(&circuit), sim_(circuit.comb) {}

  /// Batch size must be 1..LaneOps<V>::kBits. The span is only read for the
  /// duration of the call (a window over the full pattern list is fine — no
  /// copy).
  GoodTraceT<V> run_good(std::span<const ScanPattern> batch);

  /// Simulate the batch with `fault` injected; lane l of the result is set
  /// iff lane l's pattern detects the fault (PO mismatch at any active
  /// cycle, or scanned-out state mismatch). Attribution-exact early exits:
  /// once a lane detects, only lower lanes (earlier tests) are tracked.
  /// If `cone` is given (the fault site's transitive fanout, ascending),
  /// cycles where the faulty state still matches the fault-free state are
  /// evaluated per `mode` (event-driven by default).
  V run_faulty(std::span<const ScanPattern> batch, const GoodTraceT<V>& good,
               const FaultSpec& fault, const std::vector<int>* cone = nullptr,
               FaultyEval mode = FaultyEval::kEventDriven);

  /// Build the excitation/observability index on `good`: per 64-cycle
  /// block, backward sensitivity sweeps over either the trace's per-cycle
  /// lane words or, when fewer, one word per live lane packing that lane's
  /// cycles of the block, so the cost follows the summed test lengths
  /// rather than the longest test times the batch width.
  /// The engine calls this once per batch for event-driven runs; the index
  /// is then shared read-only by every worker's run_faulty. The blocks run
  /// over up to `threads` pool slots (parallel::parallel_for semantics);
  /// each block writes only its own word of every bitset, so the index is
  /// bit-identical for any thread count.
  void build_excitation_index(GoodTraceT<V>& good, int threads = 1) const;

  const ScanCircuit& circuit() const { return *circuit_; }

  const ScanSimStats& stats() const { return stats_; }
  const LogicSimStats& sim_stats() const { return sim_.stats(); }

 private:
  /// Load per-lane inputs/state (values and X masks) into the simulator for
  /// cycle `c`.
  void load_cycle(std::span<const ScanPattern> batch,
                  const std::vector<std::uint32_t>& state,
                  const std::vector<std::uint32_t>& state_x, std::size_t c);
  /// Extract per-lane next states (and their X masks) from the simulator.
  void extract_next_state(std::vector<std::uint32_t>& state,
                          std::vector<std::uint32_t>& state_x, const V& active);

  /// Materialize the excitation-candidate bitset for `fault` from the good
  /// trace's index into scratch_cand_; returns nullptr when the index is
  /// not built (run_faulty then tests excitation cycle by cycle).
  const std::uint64_t* candidate_bits(const GoodTraceT<V>& good,
                                      const FaultSpec& fault);
  /// Index of the first set bit >= `from` in a bitset of `nwords` words
  /// (64*nwords if none). Member function, not a free inline, for the same
  /// per-width symbol discipline as LogicSimT's heap helpers.
  static std::size_t next_set_bit(const std::uint64_t* words,
                                  std::size_t nwords, std::size_t from) {
    std::size_t w = from >> 6;
    if (w >= nwords) return nwords << 6;
    std::uint64_t cur = words[w] & (~std::uint64_t{0} << (from & 63));
    while (cur == 0) {
      if (++w >= nwords) return nwords << 6;
      cur = words[w];
    }
    return (w << 6) + static_cast<std::size_t>(std::countr_zero(cur));
  }

  /// Transpose the 64x64 bit matrix a[row] bit col in place: afterwards
  /// bit j of a[i] is the old bit i of a[j]. Six rounds of block swaps
  /// (32x32 blocks, then 16x16, ... 1x1), each branch-free over all 64
  /// words with a compile-time shift. Member functions, not free inlines,
  /// for the per-width symbol discipline (see next_set_bit).
  template <int J>
  static void transpose_round(std::uint64_t* a, std::uint64_t mask) {
    for (int base = 0; base < 64; base += 2 * J) {
      for (int k = base; k < base + J; ++k) {
        const std::uint64_t t = ((a[k] >> J) ^ a[k + J]) & mask;
        a[k] ^= t << J;
        a[k + J] ^= t;
      }
    }
  }
  static void transpose64(std::uint64_t* a) {
    transpose_round<32>(a, 0x00000000FFFFFFFFull);
    transpose_round<16>(a, 0x0000FFFF0000FFFFull);
    transpose_round<8>(a, 0x00FF00FF00FF00FFull);
    transpose_round<4>(a, 0x0F0F0F0F0F0F0F0Full);
    transpose_round<2>(a, 0x3333333333333333ull);
    transpose_round<1>(a, 0x5555555555555555ull);
  }

  const ScanCircuit* circuit_;
  LogicSimT<V> sim_;
  Stats stats_;
  // Per-fault scratch (member state so the hot fault loop never allocates).
  std::vector<std::uint32_t> scratch_state_;
  std::vector<std::uint32_t> scratch_state_x_;
  std::vector<std::uint64_t> scratch_cand_;
  std::vector<V> scratch_in_;    // load_cycle: per-input lane words
  std::vector<V> scratch_in_x_;  // load_cycle: per-input X lane words
  std::vector<int> scratch_po_cone_;
  std::vector<int> scratch_sv_cone_;
};

// ---------------------------------------------------------------------------
// Member definitions (template: included by every width's translation unit;
// explicitly instantiated for Word in scan_sim.cpp).
// ---------------------------------------------------------------------------

template <class V>
void ScanBatchSimT<V>::load_cycle(std::span<const ScanPattern> batch,
                                  const std::vector<std::uint32_t>& state,
                                  const std::vector<std::uint32_t>& state_x,
                                  std::size_t c) {
  // Scatter each lane's set bits into the per-input lane words: the cost
  // follows the set bits of the lanes still running, not 64 lanes times
  // every input (most lanes of a long batch have finished their test).
  const int num_pi = circuit_->num_pi;
  const int num_sv = circuit_->num_sv;
  const std::size_t num_in = static_cast<std::size_t>(num_pi + num_sv);
  const auto low_bits = [](int n) {
    return n >= 32 ? ~std::uint32_t{0} : (std::uint32_t{1} << n) - 1u;
  };
  const std::uint32_t pi_mask = low_bits(num_pi);
  const std::uint32_t sv_mask = low_bits(num_sv);
  scratch_in_.assign(num_in, Lanes::zero());
  scratch_in_x_.assign(num_in, Lanes::zero());
  const auto scatter = [](std::vector<V>& words, std::size_t offset,
                          std::uint32_t bits, int lane) {
    for (; bits != 0; bits &= bits - 1)
      Lanes::set(
          words[offset + static_cast<std::size_t>(std::countr_zero(bits))],
          lane);
  };
  for (std::size_t l = 0; l < batch.size(); ++l) {
    const int lane = static_cast<int>(l);
    const ScanPattern& p = batch[l];
    if (c < p.inputs.size()) {
      scatter(scratch_in_, 0, p.inputs[c] & pi_mask, lane);
      if (c < p.input_x.size())
        scatter(scratch_in_x_, 0, p.input_x[c] & pi_mask, lane);
    }
    scatter(scratch_in_, static_cast<std::size_t>(num_pi), state[l] & sv_mask,
            lane);
    scatter(scratch_in_x_, static_cast<std::size_t>(num_pi),
            state_x[l] & sv_mask, lane);
  }
  sim_.clear_input_x();
  for (std::size_t i = 0; i < num_in; ++i) {
    sim_.set_input(static_cast<int>(i), scratch_in_[i]);
    if (Lanes::any(scratch_in_x_[i]))
      sim_.set_input_x(static_cast<int>(i), scratch_in_x_[i]);
  }
}

template <class V>
void ScanBatchSimT<V>::extract_next_state(std::vector<std::uint32_t>& state,
                                          std::vector<std::uint32_t>& state_x,
                                          const V& active) {
  const int num_po = circuit_->num_po;
  const int num_sv = circuit_->num_sv;
  for (std::size_t l = 0; l < state.size(); ++l) {
    if (!Lanes::test(active, static_cast<int>(l))) continue;
    std::uint32_t ns = 0;
    std::uint32_t nsx = 0;
    for (int k = 0; k < num_sv; ++k) {
      if (Lanes::test(sim_.output(num_po + k), static_cast<int>(l)))
        ns |= 1u << k;
      if (Lanes::test(sim_.output_x(num_po + k), static_cast<int>(l)))
        nsx |= 1u << k;
    }
    state[l] = ns;
    state_x[l] = nsx;
  }
}

template <class V>
GoodTraceT<V> ScanBatchSimT<V>::run_good(std::span<const ScanPattern> batch) {
  require(!batch.empty() && static_cast<int>(batch.size()) <= Lanes::kBits,
          "batch size exceeds lane width");
  GoodTraceT<V> trace;
  trace.num_lanes = static_cast<int>(batch.size());
  for (const auto& p : batch) trace.has_x = trace.has_x || p.has_x();

  std::size_t max_len = 0;
  for (const auto& p : batch) max_len = std::max(max_len, p.inputs.size());

  std::vector<std::uint32_t> state(batch.size());
  std::vector<std::uint32_t> state_x(batch.size(), 0);
  for (std::size_t l = 0; l < batch.size(); ++l)
    state[l] = batch[l].init_state;

  for (std::size_t c = 0; c < max_len; ++c) {
    V active = Lanes::zero();
    for (std::size_t l = 0; l < batch.size(); ++l)
      if (c < batch[l].inputs.size()) Lanes::set(active, static_cast<int>(l));

    trace.state_at.push_back(state);
    load_cycle(batch, state, state_x, c);
    sim_.run();
    // Bit-packed X plane: the per-cycle summary decides whether this
    // cycle's X vectors are stored at all. sim_.last_run_had_x() is exact —
    // the state X mask entering the cycle feeds set_input_x, so a clean
    // flag really means every signal this cycle is defined.
    const bool cx = trace.has_x && sim_.last_run_had_x();
    if (trace.has_x) {
      trace.cycle_x.push_back(cx ? 1 : 0);
      trace.state_x_at.push_back(cx ? state_x
                                    : std::vector<std::uint32_t>{});
      trace.gate_x.push_back(cx ? sim_.xvals() : std::vector<V>{});
    }
    trace.gate_values.push_back(sim_.values());

    std::vector<V> po(static_cast<std::size_t>(circuit_->num_po));
    for (int k = 0; k < circuit_->num_po; ++k)
      po[static_cast<std::size_t>(k)] = sim_.output(k);
    trace.po.push_back(std::move(po));
    if (trace.has_x) {
      std::vector<V> pox;
      if (cx) {
        pox.resize(static_cast<std::size_t>(circuit_->num_po));
        for (int k = 0; k < circuit_->num_po; ++k)
          pox[static_cast<std::size_t>(k)] = sim_.output_x(k);
      }
      trace.po_x.push_back(std::move(pox));
    }
    trace.active.push_back(active);
    extract_next_state(state, state_x, active);
  }
  trace.final_state = std::move(state);
  if (trace.has_x) trace.final_state_x = std::move(state_x);
  return trace;
}

template <class V>
void ScanBatchSimT<V>::build_excitation_index(GoodTraceT<V>& good,
                                              int threads) const {
  const Netlist& nl = circuit_->comb;
  const std::size_t n = static_cast<std::size_t>(nl.num_gates());
  const std::size_t rows = good.gate_values.size();
  const std::size_t W = (rows + 63) / 64;
  good.exc_words = W;
  good.exc_any1.assign(n * W, 0);
  good.exc_any0.assign(n * W, 0);
  good.exc_obs1.assign(n * W, 0);
  good.exc_obs0.assign(n * W, 0);
  good.exc_pin_base.assign(n + 1, 0);
  for (std::size_t g = 0; g < n; ++g)
    good.exc_pin_base[g + 1] =
        good.exc_pin_base[g] +
        static_cast<std::uint32_t>(nl.gate(static_cast<int>(g)).fanins.size());
  good.exc_pin_obs1.assign(good.exc_pin_base[n] * W, 0);
  good.exc_pin_obs0.assign(good.exc_pin_base[n] * W, 0);
  good.exc_x.assign(W, 0);

  // FFR structure (same head rule as netlist/cones.cpp): a gate is a head
  // iff it drives a circuit output or has other than exactly one fanout
  // *entry* — counting entries, not distinct gates, so a gate feeding two
  // pins of the same fanout is a head too and the single-path sensitivity
  // composition below never applies to it.
  std::vector<std::uint8_t> is_head(n, 0);
  {
    std::vector<int> fanout_entries(n, 0);
    for (std::size_t g = 0; g < n; ++g)
      for (int f : nl.gate(static_cast<int>(g)).fanins)
        ++fanout_entries[static_cast<std::size_t>(f)];
    for (std::size_t g = 0; g < n; ++g)
      if (fanout_entries[g] != 1) is_head[g] = 1;
    for (int out : nl.outputs()) is_head[static_cast<std::size_t>(out)] = 1;
  }

  // Flatten the netlist into CSR form once per build — the sweep below runs
  // rows * gates times and must not chase per-gate heap vectors.
  std::size_t max_fanins = 0;
  std::vector<GateType> types(n);
  std::vector<int> fanin_ids(good.exc_pin_base[n]);
  for (std::size_t g = 0; g < n; ++g) {
    const Gate& gate = nl.gate(static_cast<int>(g));
    types[g] = gate.type;
    max_fanins = std::max(max_fanins, gate.fanins.size());
    std::copy(gate.fanins.begin(), gate.fanins.end(),
              fanin_ids.begin() + good.exc_pin_base[g]);
  }
  // The sweep is block-parallel: block w covers cycles [64w, 64w + 64) and
  // owns word w of every bitset. Blocks collect their words in local arrays
  // and write them back once, so blocks never touch a shared word and the
  // index is bit-identical for any thread count.
  //
  // Within a block, the backward sensitivity sweep runs over 64-bit words
  // of (lane, cycle) bits. Every sweep operation is bitwise, so the layout
  // does not change the per-(lane, cycle) S/obs/pin bits; it only decides
  // how a result word folds onto the block's cycles. Two layouts, whichever
  // needs fewer words:
  //  - cycle-major: one word per cycle and lane word, bit l = lane l (the
  //    trace's own layout); a nonzero result sets its cycle's bit;
  //  - lane-major: one word per live lane (a lane whose test is running
  //    somewhere in the block), bit j = the lane's value at cycle 64w + j;
  //    results OR straight into the block's words. The words come from one
  //    64x64 bit transpose per gate and lane word, or from extracting the
  //    lane's bits row by row when the lane word has one or two live
  //    lanes.
  // Lane-major wins where few lanes run long — the tail of a ragged batch,
  // where one chained test outlives 63 short ones — so the cost follows
  // the summed test lengths rather than the longest test times the batch
  // width. A block of short or equally long tests stays cycle-major.
  //
  // Only live cycles count: a lane's head sensitivity is its active-cycle
  // mask (minus X cycles, which are candidates for every fault anyway), so
  // a lane whose test has ended — run_good keeps evaluating it on its
  // stale final state — sets no bit. A dead lane can neither detect nor
  // change state, so run_faulty may ignore it.
  const std::size_t pins = good.exc_pin_base[n];
  constexpr int kLaneWords = Lanes::kWords;
  // Up to this many live lanes in a lane word, extracting each lane's bits
  // beats one full transpose per gate.
  constexpr std::size_t kExtractLanes = 2;
  const auto sweep = [&](int /*slot*/, std::size_t wlo, std::size_t whi) {
    // S[g] = sensitivity of g's FFR head to g in the swept word: an
    // interior gate's unique fanout has a higher id (the netlist is
    // topological), so the descending sweep writes S[g] before g is
    // visited. Heads never read their slot.
    std::vector<std::uint64_t> S(n);
    std::vector<std::uint64_t> prefix(max_fanins + 1);
    std::vector<std::uint64_t> suffix(max_fanins + 1);
    std::vector<std::uint64_t> any1(n), any0(n), obs1(n), obs0(n);
    std::vector<std::uint64_t> pin_obs1(pins), pin_obs0(pins);
    // Live lanes of the block, by lane word: bit within the word and the
    // lane's live, X-free cycles.
    std::vector<int> live_bit;
    std::vector<std::uint64_t> live_mask;
    std::array<std::size_t, kLaneWords + 1> live_begin{};
    std::vector<std::uint64_t> tile;  // tile[k * n + g]: word k of gate g
    std::array<const V*, 64> rowp{};
    std::array<std::uint64_t, 64> m{};

    // One backward sweep over the words row[0..n) whose live (lane, cycle)
    // bits are `live_bits`; put(bits, index, word) ORs a result word into
    // the block's bitset, folded as the layout needs.
    const auto sweep_word = [&](const std::uint64_t* row,
                                std::uint64_t live_bits, auto&& put) {
      for (std::size_t gi = n; gi-- > 0;) {
        const std::uint64_t Sg = is_head[gi] ? live_bits : S[gi];
        const std::uint64_t v = row[gi];
        put(any1, gi, v & live_bits);
        put(any0, gi, ~v & live_bits);
        const std::size_t begin = good.exc_pin_base[gi];
        const std::size_t nf = good.exc_pin_base[gi + 1] - begin;
        const int* fan = fanin_ids.data() + begin;
        if (Sg == 0) {
          // Blocked everywhere: this gate never reaches its head, so its
          // obs and pin bits stay clear and so does every fanin's
          // sensitivity.
          for (std::size_t p = 0; p < nf; ++p) {
            const std::size_t f = static_cast<std::size_t>(fan[p]);
            if (!is_head[f]) S[f] = 0;
          }
          continue;
        }
        put(obs1, gi, v & Sg);
        put(obs0, gi, ~v & Sg);
        // Per-pin work (two-valued; X cycles are never live):
        //  - pin observability bits: a stuck pin deviates the gate where
        //    its driver disagrees with the stuck value AND the pin is
        //    locally sensitive (every other fanin non-controlling); the
        //    deviation changes the head where the gate is head-sensitive.
        //  - head sensitivity pushed down to interior fanins:
        //    S_fanin = S_g AND the pin's local sensitivity.
        const auto emit = [&](std::size_t p, std::uint64_t reach) {
          const std::uint64_t vd = row[fan[p]];
          put(pin_obs1, begin + p, vd & reach);
          put(pin_obs0, begin + p, ~vd & reach);
          const std::size_t f = static_cast<std::size_t>(fan[p]);
          if (!is_head[f]) S[f] = reach;
        };
        switch (types[gi]) {
          case GateType::kBuf:
          case GateType::kNot:
          case GateType::kXor:
          case GateType::kXnor:
            // A toggle on any input always toggles the output.
            for (std::size_t p = 0; p < nf; ++p) emit(p, Sg);
            break;
          case GateType::kAnd:
          case GateType::kNand: {
            // Pin p is sensitive where every *other* fanin is 1.
            prefix[0] = Sg;
            for (std::size_t p = 0; p < nf; ++p)
              prefix[p + 1] = prefix[p] & row[fan[p]];
            suffix[nf] = ~std::uint64_t{0};
            for (std::size_t p = nf; p-- > 0;)
              suffix[p] = suffix[p + 1] & row[fan[p]];
            for (std::size_t p = 0; p < nf; ++p)
              emit(p, prefix[p] & suffix[p + 1]);
            break;
          }
          case GateType::kOr:
          case GateType::kNor: {
            // Pin p is sensitive where every *other* fanin is 0.
            prefix[0] = 0;
            for (std::size_t p = 0; p < nf; ++p)
              prefix[p + 1] = prefix[p] | row[fan[p]];
            suffix[nf] = 0;
            for (std::size_t p = nf; p-- > 0;)
              suffix[p] = suffix[p + 1] | row[fan[p]];
            for (std::size_t p = 0; p < nf; ++p)
              emit(p, Sg & ~(prefix[p] | suffix[p + 1]));
            break;
          }
          default:
            break;  // inputs/constants have no fanins
        }
      }
    };

    for (std::size_t w = wlo; w < whi; ++w) {
      for (auto* v : {&any1, &any0, &obs1, &obs0, &pin_obs1, &pin_obs0})
        std::fill(v->begin(), v->end(), 0);
      const std::size_t c0 = w * 64;
      const std::size_t nc = std::min<std::size_t>(64, rows - c0);
      std::uint64_t x_word = 0;
      for (std::size_t j = 0; j < nc; ++j) {
        rowp[j] = good.gate_values[c0 + j].data();
        if (good.cycle_has_x(c0 + j)) x_word |= std::uint64_t{1} << j;
      }
      // Live lanes: lanes active in some X-free cycle of the block.
      std::size_t live = 0;
      std::size_t live_words = 0;
      for (int i = 0; i < kLaneWords; ++i) {
        std::uint64_t lanes = 0;
        for (std::size_t j = 0; j < nc; ++j)
          if (((x_word >> j) & 1u) == 0)
            lanes |= Lanes::word(good.active[c0 + j], i);
        live += static_cast<std::size_t>(std::popcount(lanes));
        live_words += lanes != 0 ? 1 : 0;
      }

      if (nc * live_words <= live) {
        // Cycle-major: sweep the trace's lane words cycle by cycle.
        tile.resize(n);
        for (std::size_t j = 0; j < nc; ++j) {
          if ((x_word >> j) & 1u) continue;
          const std::uint64_t bit = std::uint64_t{1} << j;
          const auto put_cycle = [bit](std::vector<std::uint64_t>& bits,
                                       std::size_t e, std::uint64_t x) {
            if (x != 0) bits[e] |= bit;  // most results are zero
          };
          for (int i = 0; i < kLaneWords; ++i) {
            const std::uint64_t act = Lanes::word(good.active[c0 + j], i);
            if (act == 0) continue;
            for (std::size_t g = 0; g < n; ++g)
              tile[g] = Lanes::word(rowp[j][g], i);
            sweep_word(tile.data(), act, put_cycle);
          }
        }
      } else {
        // Lane-major: one word per live lane. Each lane's live cycles are
        // its column of the block's active words.
        live_bit.clear();
        live_mask.clear();
        for (int i = 0; i < kLaneWords; ++i) {
          live_begin[static_cast<std::size_t>(i)] = live_bit.size();
          for (std::size_t j = 0; j < 64; ++j)
            m[j] = j < nc ? Lanes::word(good.active[c0 + j], i) : 0;
          transpose64(m.data());
          for (int b = 0; b < 64; ++b) {
            const std::uint64_t mask =
                m[static_cast<std::size_t>(b)] & ~x_word;
            if (mask == 0) continue;
            live_bit.push_back(b);
            live_mask.push_back(mask);
          }
        }
        live_begin[kLaneWords] = live_bit.size();
        tile.assign(live * n, 0);
        for (int i = 0; i < kLaneWords; ++i) {
          const std::size_t kb = live_begin[static_cast<std::size_t>(i)];
          const std::size_t ke = live_begin[static_cast<std::size_t>(i) + 1];
          if (ke - kb <= kExtractLanes) {
            for (std::size_t k = kb; k < ke; ++k) {
              std::uint64_t* out = tile.data() + k * n;
              for (std::size_t j = 0; j < nc; ++j) {
                const V* r = rowp[j];
                for (std::size_t g = 0; g < n; ++g)
                  out[g] |= ((Lanes::word(r[g], i) >> live_bit[k]) & 1u) << j;
              }
            }
            continue;
          }
          for (std::size_t g = 0; g < n; ++g) {
            for (std::size_t j = 0; j < 64; ++j)
              m[j] = j < nc ? Lanes::word(rowp[j][g], i) : 0;
            transpose64(m.data());
            for (std::size_t k = kb; k < ke; ++k)
              tile[k * n + g] = m[static_cast<std::size_t>(live_bit[k])];
          }
        }
        const auto put_or = [](std::vector<std::uint64_t>& bits,
                               std::size_t e, std::uint64_t x) {
          bits[e] |= x;
        };
        for (std::size_t k = 0; k < live; ++k)
          sweep_word(tile.data() + k * n, live_mask[k], put_or);
      }
      for (std::size_t g = 0; g < n; ++g) {
        good.exc_any1[g * W + w] = any1[g];
        good.exc_any0[g * W + w] = any0[g];
        good.exc_obs1[g * W + w] = obs1[g];
        good.exc_obs0[g * W + w] = obs0[g];
      }
      for (std::size_t e = 0; e < pins; ++e) {
        good.exc_pin_obs1[e * W + w] = pin_obs1[e];
        good.exc_pin_obs0[e * W + w] = pin_obs0[e];
      }
      good.exc_x[w] = x_word;
    }
  };
  parallel::parallel_for(W, /*grain=*/1, threads, sweep);
  good.exc_built = true;
}

template <class V>
const std::uint64_t* ScanBatchSimT<V>::candidate_bits(
    const GoodTraceT<V>& good, const FaultSpec& fault) {
  if (!good.exc_built) return nullptr;
  const std::size_t W = good.exc_words;
  scratch_cand_.assign(W, 0);
  const auto any1 = [&](int g) {
    return good.exc_any1.data() + static_cast<std::size_t>(g) * W;
  };
  const auto any0 = [&](int g) {
    return good.exc_any0.data() + static_cast<std::size_t>(g) * W;
  };
  const auto obs1 = [&](int g) {
    return good.exc_obs1.data() + static_cast<std::size_t>(g) * W;
  };
  const auto obs0 = [&](int g) {
    return good.exc_obs0.data() + static_cast<std::size_t>(g) * W;
  };
  switch (fault.kind) {
    case FaultSpec::Kind::kNone:
      return scratch_cand_.data();  // never excited: all-zero bitset
    case FaultSpec::Kind::kStuckGate: {
      // Exact (for X-free cycles): s-a-v deviates in the lanes where the
      // site's fault-free value differs from v, and changes its FFR head's
      // output iff one of those lanes is head-sensitive. Cycles whose
      // deviation dies inside the FFR never become candidates.
      const std::uint64_t* sel =
          fault.value ? obs0(fault.gate) : obs1(fault.gate);
      for (std::size_t w = 0; w < W; ++w)
        scratch_cand_[w] = sel[w] | good.exc_x[w];
      return scratch_cand_.data();
    }
    case FaultSpec::Kind::kStuckPin: {
      // Exact (for X-free cycles): the pin deviates the gate where its
      // driver differs from v while the pin is locally sensitive, and the
      // deviation reaches the FFR head where the gate is head-sensitive on
      // such a lane — precisely the per-entry pin observability bits.
      const std::size_t entry =
          static_cast<std::size_t>(good.exc_pin_base[fault.gate]) +
          static_cast<std::size_t>(fault.gate2_or_pin);
      const std::uint64_t* sel =
          (fault.value ? good.exc_pin_obs0.data() : good.exc_pin_obs1.data()) +
          entry * W;
      for (std::size_t w = 0; w < W; ++w)
        scratch_cand_[w] = sel[w] | good.exc_x[w];
      return scratch_cand_.data();
    }
    case FaultSpec::Kind::kBridge: {
      // Superset: an AND-type bridge (value=false) deviates a line only
      // where it is 1 while the other line has a 0-lane, and a *single*
      // deviating line only matters where it is head-sensitive; OR-type
      // dually. When both lines can deviate in the same cycle their
      // downstream effects may interact nonlinearly (two FFR paths
      // reconverging), so head sensitivity proves nothing — any such cycle
      // stays a candidate. Per-lane coincidence is re-checked on visit.
      const int a = fault.gate;
      const int b = fault.gate2_or_pin;
      const std::uint64_t* sa = fault.value ? obs0(a) : obs1(a);
      const std::uint64_t* sb = fault.value ? obs0(b) : obs1(b);
      const std::uint64_t* da = fault.value ? any0(a) : any1(a);
      const std::uint64_t* db = fault.value ? any0(b) : any1(b);
      const std::uint64_t* oa = fault.value ? any1(a) : any0(a);
      const std::uint64_t* ob = fault.value ? any1(b) : any0(b);
      for (std::size_t w = 0; w < W; ++w) {
        const std::uint64_t dev_a = da[w] & ob[w];  // line a can deviate
        const std::uint64_t dev_b = db[w] & oa[w];  // line b can deviate
        scratch_cand_[w] = (sa[w] & ob[w]) | (sb[w] & oa[w]) |
                           (dev_a & dev_b) | good.exc_x[w];
      }
      return scratch_cand_.data();
    }
  }
  return nullptr;
}

template <class V>
V ScanBatchSimT<V>::run_faulty(std::span<const ScanPattern> batch,
                               const GoodTraceT<V>& good,
                               const FaultSpec& fault,
                               const std::vector<int>* cone, FaultyEval mode) {
  require(static_cast<int>(batch.size()) == good.num_lanes,
          "batch/trace size mismatch");
  const V all_lanes = Lanes::low_mask(static_cast<int>(batch.size()));
  const bool has_x = good.has_x;
  V detected = Lanes::zero();

  // Lazily tracked faulty state: `state[l]` (and its X mask `state_x[l]`)
  // is meaningful only for lanes in `dirty` (faulty state differs from the
  // good trace in value or X-ness); every other lane's faulty state IS
  // good.state_at[c][l]. A fault that never perturbs the state (the
  // dominant case, thanks to cycle skipping) costs zero per-lane work per
  // cycle.
  scratch_state_.assign(batch.size(), 0);
  scratch_state_x_.assign(batch.size(), 0);
  std::vector<std::uint32_t>& state = scratch_state_;
  std::vector<std::uint32_t>& state_x = scratch_state_x_;
  V dirty = Lanes::zero();

  const int num_po = circuit_->num_po;
  const int num_sv = circuit_->num_sv;

  // Candidate-cycle jumping (build_excitation_index): while no live,
  // relevant lane has diverged, cycles outside the fault's candidate bitset
  // are provably unexcited in every live lane and are skipped in blocks —
  // the iteration jumps from set bit to set bit instead of testing
  // excitation cycle by cycle. A diverged lane evolves state every cycle,
  // so jumping pauses while one is live and resumes when it reconverges,
  // its test ends or a lower lane detects. A dirty lane that is dead or
  // irrelevant stays so (active masks and below_lowest only shrink), and
  // its state already holds what the scan-out compare needs.
  const std::uint64_t* cand = (cone != nullptr &&
                               mode == FaultyEval::kEventDriven)
                                  ? candidate_bits(good, fault)
                                  : nullptr;

  // Only outputs inside the fault's cone — or that are fault sites
  // themselves (compute_fault_cones removes a bridge's two lines from its
  // cone, but the overlay stamps them directly) — can ever be stamped; the
  // per-cycle PO/next-state scans probe just those.
  scratch_po_cone_.clear();
  scratch_sv_cone_.clear();
  if (cone != nullptr && mode == FaultyEval::kEventDriven) {
    const int site = fault.gate;
    const int site2 =
        fault.kind == FaultSpec::Kind::kBridge ? fault.gate2_or_pin : -1;
    const auto& outs = circuit_->comb.outputs();
    for (int k = 0; k < num_po + num_sv; ++k) {
      const int out = outs[static_cast<std::size_t>(k)];
      if (out != site && out != site2 &&
          !std::binary_search(cone->begin(), cone->end(), out))
        continue;
      if (k < num_po)
        scratch_po_cone_.push_back(k);
      else
        scratch_sv_cone_.push_back(k - num_po);
    }
  }

  for (std::size_t c = 0; c < good.active.size(); ++c) {
    if (cand != nullptr &&
        Lanes::none(dirty & good.active[c] & Lanes::below_lowest(detected))) {
      const std::size_t next = next_set_bit(cand, good.exc_words, c);
      if (next != c) {
        const std::size_t stop = std::min(next, good.active.size());
        stats_.cycles_skipped += static_cast<std::uint64_t>(stop - c);
        if (stop == good.active.size()) break;
        c = stop;  // fall through: this iteration processes the candidate
      }
    }
    // Once a lane detects, only *earlier* tests can change the
    // first-detection attribution, so later lanes stop mattering.
    const V relevant = Lanes::below_lowest(detected) & all_lanes;
    const V active = good.active[c] & relevant;
    if (Lanes::none(active))
      break;  // active masks only shrink; nothing left to see

    // Per-cycle X plane (bit-packed: nullptr for the clean cycles even in
    // an X-bearing batch).
    const V* base_x = good.gate_x_of(c);
    const bool cx = base_x != nullptr;

    if (Lanes::none(dirty & active) && cone != nullptr &&
        mode == FaultyEval::kEventDriven) {
      // Every tracked lane is in the fault-free state: evaluate against the
      // good trace through the event-driven overlay (no copying). An
      // unexcited cycle (the ~97% case) is decided by the seeding predicate
      // alone — for a stuck-at-gate fault one load and compare — without
      // paying the overlay's epoch/heap setup.
      const V* base = good.gate_values[c].data();
      if (!sim_.fault_excited(fault, base, base_x)) {
        ++stats_.cycles_skipped;
        continue;  // not excited: outputs and next state match fault-free
      }
      if (sim_.run_cone_overlay(fault, *cone, base, base_x) == 0) {
        ++stats_.cycles_skipped;
        continue;
      }
      ++stats_.cycles_overlay;
      for (int k : scratch_po_cone_)
        detected |= sim_.overlay_output_det_diff(k, base, base_x) & active;
      if (Lanes::test(detected, 0))
        return detected;  // lane 0 is already the minimum
      // Lanes whose faulty next state differs from the good next state in
      // ANY way (value or X-ness) become dirty; materialize their faulty
      // state bits. Tracking only detectable differences here would lose
      // defined->X state transitions and mis-simulate later cycles.
      V ns_diff = Lanes::zero();
      for (int k : scratch_sv_cone_)
        ns_diff |= sim_.overlay_output_any_diff(num_po + k, base, base_x);
      ns_diff &= active;
      for_each_lane(ns_diff, [&](int l) {
        std::uint32_t ns = 0;
        std::uint32_t nsx = 0;
        for (int k = 0; k < num_sv; ++k) {
          if (Lanes::test(sim_.overlay_output(num_po + k, base), l))
            ns |= 1u << k;
          if (cx &&
              Lanes::test(sim_.overlay_output_xval(num_po + k, base_x), l))
            nsx |= 1u << k;
        }
        state[static_cast<std::size_t>(l)] = ns;
        state_x[static_cast<std::size_t>(l)] = nsx;
      });
      dirty |= ns_diff;
      stats_.dirty_activations +=
          static_cast<std::uint64_t>(Lanes::popcount(ns_diff));
      continue;
    }

    // Legacy full-cone path and the diverged path both need the full state
    // vector: materialize clean lanes from the good trace first.
    for_each_lane(all_lanes & ~dirty, [&](int li) {
      const std::size_t l = static_cast<std::size_t>(li);
      state[l] = good.state_at[c][l];
      state_x[l] = good.state_x_at_of(c, l);
    });

    ++stats_.cycles_full;
    if (Lanes::none(dirty & active) &&
        cone != nullptr) {  // FaultyEval::kFullCone
      sim_.seed_values(good.gate_values[c]);
      sim_.seed_xvals(cx ? &good.gate_x[c] : nullptr);
      sim_.run_cone(fault, *cone);
    } else {
      load_cycle(batch, state, state_x, c);
      sim_.run(fault);
    }
    for (int k = 0; k < num_po; ++k) {
      V diff = sim_.output(k) ^ good.po[c][static_cast<std::size_t>(k)];
      // Detection requires both responses defined; X on either side masks
      // the lane out for this output.
      diff &= ~sim_.output_x(k);
      if (cx) diff &= ~good.po_x[c][static_cast<std::size_t>(k)];
      detected |= diff & active;
    }
    if (Lanes::test(detected, 0))
      return detected;  // lane 0 is already the minimum
    extract_next_state(state, state_x, active);
    // Re-derive the dirty set for active lanes by comparing against the
    // good next state (inactive lanes keep their bits and their state).
    const std::vector<std::uint32_t>& next = c + 1 < good.state_at.size()
                                                 ? good.state_at[c + 1]
                                                 : good.final_state;
    const bool next_in_trace = c + 1 < good.state_at.size();
    for_each_lane(active, [&](int li) {
      const std::size_t l = static_cast<std::size_t>(li);
      const std::uint32_t nx =
          next_in_trace ? good.state_x_at_of(c + 1, l)
                        : (has_x ? good.final_state_x[l] : 0u);
      const bool differs = state[l] != next[l] || state_x[l] != nx;
      if (differs) {
        if (!Lanes::test(dirty, li)) ++stats_.dirty_activations;
        Lanes::set(dirty, li);
      } else {
        if (Lanes::test(dirty, li)) {
          ++stats_.dirty_clears;
          V bit = Lanes::zero();
          Lanes::set(bit, li);
          dirty &= ~bit;
        }
      }
    });
  }

  // Scan-out comparison of the final state. Clean lanes track the good
  // trace by construction, so only dirty lanes can differ; lanes at or
  // above the lowest detecting lane cannot change the attribution (and
  // their state may be stale), so restrict to the relevant ones. A state
  // bit that is X on either side is not a detection.
  const V relevant = Lanes::below_lowest(detected) & all_lanes;
  for_each_lane(relevant & dirty, [&](int li) {
    const std::size_t l = static_cast<std::size_t>(li);
    std::uint32_t mismatch = state[l] ^ good.final_state[l];
    mismatch &= ~state_x[l];
    if (has_x) mismatch &= ~good.final_state_x[l];
    if (mismatch != 0) Lanes::set(detected, li);
  });
  return detected;
}

/// The portable 64-pattern scan simulator every existing caller uses;
/// explicitly instantiated in scan_sim.cpp. Wider instantiations live only
/// in the per-width fault-sim engine TUs.
using GoodTrace = GoodTraceT<Word>;
using ScanBatchSim = ScanBatchSimT<Word>;
extern template class ScanBatchSimT<Word>;

}  // namespace fstg
